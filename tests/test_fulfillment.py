import io
import math

import numpy as np
import pytest

from corround import rounding
from corround.fulfillment import (
    ARRIVAL_SUBSTREAM,
    DECISION_SUBSTREAM,
    DLPlan,
    DLPSolveError,
    FulfillmentError,
    FulfillmentInstance,
    build_dlp,
    instance_from_json,
    instance_to_json,
    plan_from_json,
    plan_to_json,
    scale,
    simulate,
    solve_dlp,
    theoretical_beta,
)
from corround.instances import GeneratorConfig, build_instance
from corround.streams import RandomStream

from conftest import mps_sha256

INF = float("inf")


def tiny_instance(T=100, lam=0.5, b=1000.0, c_unit=1.0, c_fixed=2.0, c_short=100.0):
    """One item, one FC, one region."""
    return FulfillmentInstance(
        n=1, K=1, J=1, T=T,
        types=((0,),),
        rates=np.array([[lam]]),
        unit_cost=np.array([[[c_short]], [[c_unit]]]),
        fixed_cost=np.array([[0.0], [c_fixed]]),
        inventory=np.array([[INF], [b]]),
    )


def two_fc_instance(b1=1000.0, b2=1000.0, u1=0.1, u2=5.0):
    return FulfillmentInstance(
        n=1, K=2, J=1, T=100,
        types=((0,),),
        rates=np.array([[0.5]]),
        unit_cost=np.array([[[50.0]], [[u1]], [[u2]]]),
        fixed_cost=np.array([[0.0], [1.0], [1.0]]),
        inventory=np.array([[INF], [b1], [b2]]),
    )


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


def test_instance_validation_errors():
    with pytest.raises(FulfillmentError):
        tiny = tiny_instance()
        FulfillmentInstance(
            n=1, K=1, J=1, T=10, types=((0, 0),), rates=tiny.rates,
            unit_cost=tiny.unit_cost, fixed_cost=tiny.fixed_cost,
            inventory=tiny.inventory,
        )
    with pytest.raises(FulfillmentError):
        FulfillmentInstance(
            n=1, K=1, J=1, T=10, types=((0,),), rates=np.array([[1.5]]),
            unit_cost=tiny_instance().unit_cost,
            fixed_cost=tiny_instance().fixed_cost,
            inventory=tiny_instance().inventory,
        )
    with pytest.raises(FulfillmentError):
        FulfillmentInstance(
            n=1, K=1, J=1, T=10, types=((0,),), rates=np.array([[0.5]]),
            unit_cost=tiny_instance().unit_cost,
            fixed_cost=tiny_instance().fixed_cost,
            inventory=np.array([[5.0], [5.0]]),  # null FC must be infinite
        )


# ---------------------------------------------------------------------------
# DLP
# ---------------------------------------------------------------------------


def test_dlp_trivial_value():
    inst = tiny_instance()
    plan = solve_dlp(inst)
    assert plan.objective == pytest.approx(100 * 0.5 * (1.0 + 2.0), abs=1e-7)
    assert plan.u[(0, 0)][0, 1] == pytest.approx(1.0, abs=1e-9)


def test_dlp_zero_inventory_goes_null():
    inst = tiny_instance(b=0.0)
    plan = solve_dlp(inst)
    assert plan.objective == pytest.approx(100 * 0.5 * 100.0, abs=1e-7)
    assert plan.u[(0, 0)][0, 0] == pytest.approx(1.0, abs=1e-9)


def test_dlp_pivot_cap_raises():
    inst = build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1))
    with pytest.raises(DLPSolveError, match="iteration_limit"):
        solve_dlp(inst, max_pivots=1)


def test_dlp_dominance():
    plan = solve_dlp(two_fc_instance())
    assert plan.u[(0, 0)][0, 1] == pytest.approx(1.0, abs=1e-9)


def test_dlp_variable_and_row_counts():
    inst = FulfillmentInstance(
        n=3, K=2, J=2, T=50,
        types=((0,), (1, 2)),
        rates=np.array([[0.2, 0.1], [0.3, 0.2]]),
        unit_cost=np.full((3, 3, 2), 1.0) + np.arange(3)[:, None, None],
        fixed_cost=np.vstack([np.zeros(2), np.full((2, 2), 8.759)]),
        inventory=np.vstack([np.full((1, 3), INF), np.full((2, 3), 100.0)]),
    )
    problem, idx = build_dlp(inst)
    pairs = 4
    u_vars = (1 + 2) * (inst.K + 1) * 2      # sum of sizes over (t, j) pairs
    y_vars = pairs * (inst.K + 1)
    assert idx.n_vars == u_vars + y_vars
    assert idx.n_inventory_rows == inst.K * inst.n
    assert idx.n_assignment_rows == (1 + 2) * 2
    assert idx.n_linking_rows == u_vars
    assert len(problem.constraints) == (
        idx.n_inventory_rows + idx.n_assignment_rows + idx.n_linking_rows
    )


def test_dlp_zero_rate_pairs_carry_no_variables():
    inst = FulfillmentInstance(
        n=1, K=1, J=2, T=10,
        types=((0,),),
        rates=np.array([[0.5, 0.0]]),
        unit_cost=np.array([[[9.0, 9.0]], [[1.0, 1.0]]]),
        fixed_cost=np.array([[0.0, 0.0], [1.0, 1.0]]),
        inventory=np.array([[INF], [100.0]]),
    )
    _, idx = build_dlp(inst)
    assert idx.pairs == ((0, 0),)


def digest_dlps():
    """Seeded DLPs whose MPS text is pinned below: generated J=2 and J=3
    networks, one with a zero-rate pair, one scaled, and a stock-out."""
    base = build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1))
    rates = base.rates.copy()
    rates[0, 1] = 0.0
    yield "zero_rate_pair", FulfillmentInstance(
        n=base.n, K=base.K, J=base.J, T=base.T, types=base.types, rates=rates,
        unit_cost=base.unit_cost, fixed_cost=base.fixed_cost, inventory=base.inventory,
    )
    yield "j2_k4", build_instance(GeneratorConfig(n=8, n_max=3, n_per=4, T=2000, J=2, K=4, seed=2))
    yield "j3_k3", build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=3, K=3, seed=3))
    yield "j2_scaled", scale(build_instance(GeneratorConfig(n=5, n_max=2, n_per=3, T=800, J=2, K=3, seed=4)), 0.5)
    yield "stock_out", tiny_instance(b=0.0)


# SHA-256 of write_lp's text for each DLP above, recorded before the DLP
# builder and LPProblem's conversion were rewritten
DLP_MPS_SHA256 = {
    "zero_rate_pair": "43ccfda00a7c916a168a7ed727b431c23e4029b5cdc21241b021ef565b995eb1",
    "j2_k4": "163d1ac2c1a97be72e2a6272db24371d9c4ede00c9edbfe2721b18ddf641ee02",
    "j3_k3": "9e413ade24c1c679a1b148c1ac85e87ae98e3736dcc4be2c59cb12871f4abd39",
    "j2_scaled": "41d1a9070213e3a5b5c1c508602ecfb74d7fa52badb9fae2e8dfb39c058414d8",
    "stock_out": "7f1f3a0ca090eff7a169d317c10801889b442d389e4ab2ed05e694b8354f4850",
}


def test_dlp_mps_text_is_pinned():
    got = {name: mps_sha256(build_dlp(inst)[0]) for name, inst in digest_dlps()}
    assert got == DLP_MPS_SHA256


def test_plan_check_catches_bad_plans():
    inst = tiny_instance()
    plan = solve_dlp(inst)
    bad = DLPlan(
        objective=plan.objective,
        u={(0, 0): np.array([[0.5, 0.4]])},
        y={(0, 0): np.array([0.5, 0.4])},
    )
    with pytest.raises(FulfillmentError):
        bad.check(inst)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_ample_single_fc_exact_costs():
    inst = tiny_instance(T=300)
    plan = solve_dlp(inst)
    r = simulate(inst, plan, "dilate", RandomStream(5))
    assert r.orders > 0
    assert r.short_orders == 0 and r.shortage_cost == 0.0
    assert r.fixed_cost == pytest.approx(r.orders * 2.0)
    assert r.unit_cost == pytest.approx(r.orders * 1.0)
    assert r.total_cost == pytest.approx(r.fixed_cost + r.unit_cost)
    assert r.fcs_per_order == pytest.approx(1.0)
    assert r.split_orders == 0


def test_simulate_zero_inventory_all_short():
    inst = tiny_instance(b=0.0)
    plan = solve_dlp(inst)
    r = simulate(inst, plan, "independent", RandomStream(6))
    assert r.short_orders == r.orders
    assert r.fcs_per_order == 0.0
    assert r.fixed_cost == 0.0
    assert r.shortage_cost == pytest.approx(r.orders * 100.0)


def test_simulate_never_oversells():
    inst = tiny_instance(T=50, lam=1.0, b=3.0)
    plan = solve_dlp(inst)
    for policy in ("myopic", "independent", "dilate", "force_open", "auto"):
        r = simulate(inst, plan, policy, RandomStream(7))
        fulfilled = round(r.unit_cost / 1.0)
        shorted = round(r.shortage_cost / 100.0)
        assert fulfilled <= 3
        assert fulfilled + shorted == r.orders == 50
    # myopic adapts: it ships all three units before shorting
    r = simulate(inst, plan, "myopic", RandomStream(8))
    assert round(r.unit_cost / 1.0) == 3


def test_simulate_marginal_flow_matches_plan():
    # hand-set plan with mass on the null FC and both real FCs; ample stock,
    # so realized frequencies are pure scheme draws
    base = two_fc_instance()
    plan = DLPlan(
        objective=1.0,
        u={(0, 0): np.array([[0.3, 0.3, 0.4]])},
        y={(0, 0): np.array([0.3, 0.3, 0.4])},
    )
    inst_long = FulfillmentInstance(
        n=1, K=2, J=1, T=40_000, types=((0,),), rates=np.array([[0.5]]),
        unit_cost=base.unit_cost, fixed_cost=base.fixed_cost,
        inventory=np.array([[INF], [1e9], [1e9]]),
    )
    r = simulate(inst_long, plan, "independent", RandomStream(99))
    shorted = r.short_orders
    # unit cost = n1 * 0.1 + n2 * 5.0 and n1 + n2 = orders - shorted
    n_real = r.orders - shorted
    n2 = round((r.unit_cost - 0.1 * n_real) / (5.0 - 0.1))
    n1 = n_real - n2
    for hits, p in ((shorted, 0.3), (n1, 0.3), (n2, 0.4)):
        assert abs(hits / r.orders - p) <= 4 * math.sqrt(p * (1 - p) / r.orders)


def test_simulate_shared_arrivals_and_determinism():
    inst = tiny_instance(T=400)
    plan = solve_dlp(inst)
    rs = [simulate(inst, plan, pol, RandomStream(1234)) for pol in ("myopic", "dilate", "independent")]
    assert len({r.orders for r in rs}) == 1
    a = simulate(inst, plan, "force_open", RandomStream(77))
    b = simulate(inst, plan, "force_open", RandomStream(77))
    for field in ("total_cost", "fixed_cost", "unit_cost", "shortage_cost",
                  "loss_pct", "orders", "fcs_per_order", "split_orders",
                  "short_orders", "seed"):
        assert getattr(a, field) == getattr(b, field)


def test_simulate_argument_errors():
    inst = tiny_instance()
    plan = solve_dlp(inst)
    with pytest.raises(FulfillmentError):
        simulate(inst, plan, "greedy", RandomStream(0))
    with pytest.raises(FulfillmentError):
        simulate(inst, None, "dilate", RandomStream(0))
    # myopic runs without a plan; loss is then undefined
    r = simulate(inst, None, "myopic", RandomStream(0))
    assert math.isnan(r.loss_pct)


def reference_simulate(inst, plan, policy, rng):
    """Per-order dispatch oracle: one ``rounding.*_round`` call per order.

    Validates each (type, region) plan row once, picks its scheme (under
    ``auto`` by ``select_scheme``) and draws on the decision substream, then
    books costs order by order. Returns the report fields except wall time.
    """
    rounds = {
        "independent": lambda m, r: rounding.independent_round(m, r).z,
        "dilate": lambda m, r: rounding.dilate_round(m, r)[0].z,
        "force_open": lambda m, r: rounding.force_open_round(m, r)[0].z,
    }
    dec = rng.derive(DECISION_SUBSTREAM)
    cdf = np.cumsum(inst.rates.ravel())
    idx = np.searchsorted(cdf, rng.derive(ARRIVAL_SUBSTREAM).uniform(inst.T), side="left")
    pairs = [(t, j) for t in range(len(inst.types)) for j in range(inst.J)]
    inv = inst.inventory.copy()
    rows = {}
    fixed = unit = shortage = 0.0
    orders = split = short = fcs = 0
    for flat in idx[idx < len(pairs)]:
        t, j = pairs[flat]
        if flat not in rows:
            mat = np.clip(plan.u[(t, j)], 0.0, None)
            m = rounding.validate(mat / mat.sum(axis=1, keepdims=True))
            rows[flat] = (m, rounding.select_scheme(m)[0] if policy == "auto" else policy)
        m, scheme = rows[flat]
        ks = rounds[scheme](m, dec)
        orders += 1
        used = set()
        for pos, i in enumerate(inst.types[t]):
            k = int(ks[pos])
            if k and inv[k, i] >= 1.0:
                inv[k, i] -= 1.0
                unit += inst.unit_cost[k, i, j]
            else:
                k = 0
                shortage += inst.unit_cost[0, i, j]
            used.add(k)
        fixed += sum(inst.fixed_cost[k, j] for k in used)
        real = len(used - {0})
        fcs += real
        split += real >= 2
        short += 0 in used
    total = fixed + unit + shortage
    return {
        "policy": policy, "scheme": policy, "total_cost": total, "fixed_cost": fixed,
        "unit_cost": unit, "shortage_cost": shortage, "dlp_value": plan.objective,
        "loss_pct": 100.0 * (total - plan.objective) / plan.objective, "orders": orders,
        "fcs_per_order": fcs / orders if orders else 0.0, "split_orders": split,
        "short_orders": short, "seed": rng.seed,
    }


def test_simulate_matches_per_order_reference():
    import warnings

    from corround.instances import GeneratorConfig, OrphanItemWarning, build_instance

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        inst = build_instance(GeneratorConfig(n=10, n_max=4, n_per=3, J=3, K=4, T=1200, seed=23))
    plan = solve_dlp(inst)
    hand = FulfillmentInstance(
        n=2, K=3, J=1, T=1500, types=((0, 1), (1,)), rates=np.array([[0.5], [0.3]]),
        unit_cost=np.arange(8, dtype=float).reshape(4, 2, 1) + 1.0,
        fixed_cost=np.array([[0.0], [1.0], [2.0], [3.0]]),
        inventory=np.array([[INF, INF], [200.0, 100.0], [300.0, 0.0], [0.0, 400.0]]),
    )
    # mass on the null FC, an all-zero column and a trailing zero entry
    hand_plan = DLPlan(
        objective=5.0,
        u={(0, 0): np.array([[0.2, 0.5, 0.3, 0.0], [0.0, 0.4, 0.0, 0.6]]),
           (1, 0): np.array([[0.1, 0.9, 0.0, 0.0]])},
        y={(0, 0): np.array([0.2, 0.5, 0.3, 0.6]), (1, 0): np.array([0.1, 0.9, 0.0, 0.0])},
    )
    for case, pl in ((inst, plan), (scale(inst, 0.5), plan), (hand, hand_plan)):
        for policy in ("independent", "dilate", "force_open", "auto"):
            for seed in (3, 4):
                got = simulate(case, pl, policy, RandomStream(seed))
                want = reference_simulate(case, pl, policy, RandomStream(seed))
                assert {f: getattr(got, f) for f in want} == want, (policy, seed)


# ---------------------------------------------------------------------------
# theoretical bound and scaling
# ---------------------------------------------------------------------------


def test_theoretical_beta_singletons():
    inst = tiny_instance()
    plan = solve_dlp(inst)
    beta, relaxed = theoretical_beta(inst, plan)
    assert beta == pytest.approx(1.0)
    assert relaxed == pytest.approx(1.0)


def test_theoretical_beta_pairs_capped_by_js():
    inst = FulfillmentInstance(
        n=2, K=2, J=1, T=50,
        types=((0, 1),),
        rates=np.array([[0.5]]),
        unit_cost=np.full((3, 2, 1), 1.0),
        fixed_cost=np.array([[0.0], [2.0], [2.0]]),
        inventory=np.vstack([np.full((1, 2), INF), np.full((2, 2), 100.0)]),
    )
    plan = DLPlan(
        objective=1.0,
        u={(0, 0): np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])},
        y={(0, 0): np.array([0.0, 0.5, 0.5])},
    )
    beta, relaxed = theoretical_beta(inst, plan)
    assert beta == pytest.approx(1.0)  # B(2) = 1 caps the per-order term
    assert relaxed == pytest.approx(1.0 + math.log(2))


def test_scaling_shrinks_randomized_loss():
    import warnings

    from corround.instances import GeneratorConfig, OrphanItemWarning, build_geography, build_instance
    from corround.streams import derive_seed

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        geo = build_geography(J=4, K=3)
        inst = build_instance(GeneratorConfig(n=8, n_max=3, n_per=3, J=4, K=3, T=800, seed=17), geo)
        mean_loss = {}
        for theta in (1.0, 8.0):
            s = scale(inst, theta)
            plan = solve_dlp(s)
            losses = [
                simulate(s, plan, "dilate", RandomStream(derive_seed(17, 7000 + r))).loss_pct
                for r in range(12)
            ]
            mean_loss[theta] = float(np.mean(losses))
    assert mean_loss[8.0] < mean_loss[1.0]


def test_scale_identity_and_doubling():
    inst = tiny_instance(T=120, b=37.0)
    same = scale(inst, 1.0)
    assert same.T == inst.T
    assert np.array_equal(same.inventory, inst.inventory)

    double = scale(inst, 2.0)
    assert double.T == 240
    assert double.inventory[1, 0] == 74.0
    p1 = solve_dlp(inst)
    p2 = solve_dlp(double)
    assert p2.objective == pytest.approx(2.0 * p1.objective, rel=1e-9)

    frac = scale(tiny_instance(b=2.4), 1.25)
    assert frac.inventory[1, 0] == 3.0
    with pytest.raises(FulfillmentError):
        scale(inst, 0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_instance_json_round_trip():
    inst = two_fc_instance()
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.n == inst.n and back.K == inst.K and back.T == inst.T
    assert back.types == inst.types
    assert np.array_equal(back.rates, inst.rates)
    assert np.array_equal(back.unit_cost, inst.unit_cost)
    assert np.array_equal(back.inventory, inst.inventory)
    assert instance_to_json(back) == text


def test_plan_json_round_trip():
    inst = tiny_instance()
    plan = solve_dlp(inst)
    back = plan_from_json(plan_to_json(plan))
    assert back.objective == plan.objective
    assert np.array_equal(back.u[(0, 0)], plan.u[(0, 0)])
    assert np.array_equal(back.y[(0, 0)], plan.y[(0, 0)])
