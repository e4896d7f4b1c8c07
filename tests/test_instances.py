import math
import warnings

import numpy as np
import pytest

from corround.fulfillment import instance_to_json, solve_dlp
from corround.instances import (
    FIXED_COST,
    EARTH_RADIUS_MILES,
    GeneratorConfig,
    GeneratorError,
    OrphanItemWarning,
    SizeImpossible,
    build_geography,
    build_instance,
    demand_profile,
    fixed_cost,
    gen_carrying,
    gen_demand_rates,
    gen_inventory,
    gen_order_types,
    haversine,
    load_fcs,
    load_regions,
    unit_cost,
)
from corround.streams import RandomStream


def test_haversine_zero_and_quarter_and_half():
    assert haversine(41.0, -87.0, 41.0, -87.0) == 0.0
    quarter = haversine(0.0, 0.0, 0.0, 90.0)
    assert quarter == pytest.approx(math.pi * EARTH_RADIUS_MILES / 2.0, rel=1e-9)
    assert quarter == pytest.approx(6218.3, abs=0.5)
    anti = haversine(0.0, 0.0, 0.0, 180.0)
    assert anti == pytest.approx(math.pi * EARTH_RADIUS_MILES, rel=1e-9)
    assert anti == pytest.approx(12436.6, abs=1.0)


def test_cost_formulas():
    assert unit_cost(0.0) == pytest.approx(0.423)
    assert unit_cost(1000.0) == pytest.approx(0.964)
    assert fixed_cost() == 8.759


def test_bundled_data_shapes():
    regions = load_regions()
    fcs = load_fcs()
    assert len(regions) == 99
    assert len(fcs) == 10
    names = [r[0] for r in regions]
    assert len(set(names)) == 99
    assert not any("Honolulu" in n for n in names)


def test_geography_selection():
    geo = build_geography(J=10, K=5)
    assert geo.J == 10 and geo.K == 5
    assert geo.dist.shape == (5, 10)
    # regions come sorted by population, largest first
    assert geo.region_names[0] == "New York NY"
    pops = geo.population
    assert np.all(np.diff(pops) <= 0)
    with pytest.raises(GeneratorError):
        build_geography(J=500, K=5)
    with pytest.raises(GeneratorError):
        build_geography(J=10, K=50)


def test_config_validation():
    with pytest.raises(SizeImpossible):
        GeneratorConfig(n=3, n_max=4)
    with pytest.raises(GeneratorError):
        GeneratorConfig(p_carry=0.0)
    with pytest.raises(GeneratorError):
        GeneratorConfig(n_per=0)
    with pytest.raises(GeneratorError):
        GeneratorConfig(z_safety=-1.0)
    # counts and seed are integers, the two rates finite numbers; the
    # message names the field
    for name, value in [("T", 2.5), ("J", 2.0), ("seed", 1.5), ("K", True), ("n_per", "3"),
                        ("n", None), ("p_carry", math.nan), ("p_carry", True),
                        ("z_safety", math.inf), ("z_safety", "0.5")]:
        with pytest.raises(GeneratorError, match=f"^{name} must be"):
            GeneratorConfig(**{name: value})
    cfg = GeneratorConfig(n=np.int64(8), seed=np.uint32(3))
    assert type(cfg.n) is int and type(cfg.seed) is int
    for doc in ([1], "cfg", None):
        with pytest.raises(GeneratorError, match="must be a JSON object"):
            GeneratorConfig.from_dict(doc)
    with pytest.raises(GeneratorError, match="unknown generator config key 'bogus'"):
        GeneratorConfig.from_dict({"n": 4, "bogus": 1})


def test_gen_order_types_counts_and_distinctness():
    cfg = GeneratorConfig(n=10, n_max=1, n_per=1, J=2, K=2, T=100)
    types = gen_order_types(cfg, RandomStream(1))
    assert len(types) == 2 and types[0] == ()
    assert len(types[1]) == 1

    cfg = GeneratorConfig(n=20, n_max=5, n_per=5, J=2, K=2, T=100)
    types = gen_order_types(cfg, RandomStream(2))
    assert len(types) == 26
    sizes = sorted(len(a) for a in types)
    assert sizes == [0] + [s for s in range(1, 6) for _ in range(5)]
    for a in types:
        assert len(set(a)) == len(a)
        assert all(0 <= i < 20 for i in a)


def test_gen_demand_rates_normalization_and_population_split():
    cfg = GeneratorConfig(n=12, n_max=3, n_per=2, J=2, K=2, T=100)
    types = gen_order_types(cfg, RandomStream(3))

    class GeoStub:
        population = np.array([2_000_000.0, 1_000_000.0])
        J = 2

    rates = gen_demand_rates(types, GeoStub(), RandomStream(4))
    assert rates.shape == (len(types), 2)
    assert rates.sum() == pytest.approx(1.0, abs=1e-12)
    ratio = rates[:, 0] / rates[:, 1]
    assert np.allclose(ratio, 2.0)


def test_gen_demand_rates_single_region_identity():
    cfg = GeneratorConfig(n=6, n_max=2, n_per=2, J=1, K=2, T=100)
    types = gen_order_types(cfg, RandomStream(5))

    class GeoStub:
        population = np.array([1.0])
        J = 1

    rates = gen_demand_rates(types, GeoStub(), RandomStream(6))
    assert rates.shape == (5, 1)
    assert rates.sum() == pytest.approx(1.0, abs=1e-12)


def test_carrying_probability_one():
    cfg = GeneratorConfig(n=7, n_max=2, n_per=2, J=2, K=3, T=100, p_carry=1.0)
    assert gen_carrying(cfg, RandomStream(7)).all()


def _tiny_geo(J=2, K=2):
    class GeoStub:
        population = np.linspace(2.0, 1.0, J) * 1e6
        dist = np.abs(np.arange(K)[:, None] - np.arange(J)[None, :]) * 100.0 + 50.0

    g = GeoStub()
    g.J = J
    g.K = K
    return g


def test_demand_profile_conservation_and_orphans():
    geo = _tiny_geo(J=2, K=2)
    types = [(), (0,), (0, 1)]
    rates = np.array([[0.0, 0.0], [0.2, 0.1], [0.3, 0.2]])
    carry = np.array([[True, True], [False, False]])  # FC2 carries nothing
    prof = demand_profile(types, rates, geo, carry)
    # item 0 appears in both nonempty types; item 1 only in the pair
    assert prof.dem[:, 0].sum() == pytest.approx(0.8)
    assert prof.dem[:, 1].sum() == pytest.approx(0.5)
    assert np.all(prof.closest[0] == 1)

    carry_none = np.array([[False, False], [False, False]])
    with pytest.warns(OrphanItemWarning):
        prof2 = demand_profile(types, rates, geo, carry_none)
    assert prof2.dem.sum() == 0.0
    assert np.all(prof2.closest == 0)


def test_gen_inventory_formula():
    cfg = GeneratorConfig(n=1, n_max=1, n_per=1, J=1, K=1, T=10_000, z_safety=0.5)

    class Prof:
        dem = np.array([[0.01]])
        carry = np.array([[True]])

    b = gen_inventory(cfg, Prof())
    assert b[0, 0] == math.ceil(100 + 0.5 * math.sqrt(100 * 0.99))
    assert b[0, 0] == 105

    class ProfZero:
        dem = np.array([[0.0]])
        carry = np.array([[True]])

    assert gen_inventory(cfg, ProfZero())[0, 0] == 0.0


def test_build_instance_smoke_and_dlp():
    cfg = GeneratorConfig(n=8, n_max=2, n_per=2, J=4, K=3, T=600, seed=5)
    inst = build_instance(cfg)
    assert inst.rates.sum() <= 1.0 + 1e-12
    assert len(inst.types) == 4
    # shortage cost strictly dominates any real fulfillment option
    assert np.all(inst.unit_cost[0] > inst.unit_cost[1:].max() )
    assert np.all(inst.unit_cost[0] > FIXED_COST)
    assert np.all(inst.fixed_cost[0] == 0.0)
    assert np.all(np.isinf(inst.inventory[0]))
    # positive stock only where carried and demanded
    plan = solve_dlp(inst)
    assert plan.objective > 0.0


def test_big_network_config_builds():
    from corround.fulfillment import build_dlp

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        cfg = GeneratorConfig(n=100, n_max=10, n_per=10, p_carry=0.5,
                              z_safety=0.5, T=10_000, J=99, K=10, seed=7)
        inst = build_instance(cfg, build_geography(99, 10))
    assert len(inst.types) == 100
    assert inst.rates.shape == (100, 99)
    problem, idx = build_dlp(inst)
    assert len(idx.pairs) == np.count_nonzero(inst.rates) > 0
    # q * (K+1) u columns per pair, then K+1 y columns per pair
    K1 = inst.K + 1
    assert problem.n == sum(len(inst.types[t]) * K1 + K1 for t, _ in idx.pairs)


def test_build_instance_determinism():
    cfg = GeneratorConfig(n=8, n_max=2, n_per=2, J=4, K=3, T=600, seed=9)
    a = instance_to_json(build_instance(cfg))
    b = instance_to_json(build_instance(cfg))
    assert a == b


def test_inventory_sanity_on_generated_instance():
    cfg = GeneratorConfig(n=10, n_max=3, n_per=3, J=3, K=3, T=400, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        rng = RandomStream(cfg.seed)
        types = gen_order_types(cfg, rng)
        rates = gen_demand_rates(types, build_geography(cfg.J, cfg.K), rng)
        carry = gen_carrying(cfg, rng)
        prof = demand_profile(types, rates, build_geography(cfg.J, cfg.K), carry)
        b = gen_inventory(cfg, prof)
    assert np.all((b > 0) <= carry)
