import dataclasses
import io
import itertools
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from corround import rounding
from corround.errors import SolverFailure
from corround.fulfillment import (
    ARRIVAL_SUBSTREAM,
    DECISION_SUBSTREAM,
    INV_TOL,
    PLAN_TOL,
    DLPlan,
    FulfillmentError,
    FulfillmentInstance,
    POLICIES,
    build_dlp,
    instance_from_json,
    instance_to_json,
    plan_from_json,
    plan_to_json,
    _closest_fcs,
    _ranks,
    scale,
    simulate,
    solve_dlp,
    theoretical_beta,
)
from corround.instances import GeneratorConfig, OrphanItemWarning, build_instance
from corround.simplex import EQ, LE, LPProblem
from corround.streams import RandomStream

from conftest import assert_same_lp, full_dlp, mps_sha256, solve_full_dlp

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


def _with(inst, **arrays):
    """The instance's arrays with entries replaced: name=(index, value)."""
    fields = {name: getattr(inst, name).copy() for name in ("rates", "unit_cost", "fixed_cost", "inventory")}
    for name, (at, value) in arrays.items():
        fields[name][at] = value
    return dict(n=inst.n, K=inst.K, J=inst.J, T=inst.T, types=inst.types, **fields)


@pytest.mark.parametrize("name, at, value", [
    ("rates", (0, 0), np.nan),
    ("rates", (0, 0), INF),
    ("unit_cost", (1, 0, 0), np.nan),
    ("unit_cost", (0, 0, 0), -INF),
    ("fixed_cost", (1, 0), INF),
    ("fixed_cost", (0, 0), np.nan),
    ("inventory", (1, 0), np.nan),
])
def test_instance_rejects_non_finite_data(name, at, value):
    # each of these once passed the range checks and gave a report that
    # was quietly wrong: a NaN rate served every step, a NaN or infinite
    # cost made total_cost NaN or inf
    with pytest.raises(FulfillmentError, match=name):
        FulfillmentInstance(**_with(tiny_instance(), **{name: (at, value)}))
    doc = json.loads(instance_to_json(tiny_instance()))
    if name == "inventory":
        doc[name][at[0] - 1][at[1]] = value
    else:
        target = doc[name]
        for i in at[:-1]:
            target = target[i]
        target[at[-1]] = value
    with pytest.raises(FulfillmentError, match=name):
        instance_from_json(json.dumps(doc))


def test_instance_allows_unbounded_stock_on_a_real_fc():
    inst = FulfillmentInstance(**_with(tiny_instance(T=200, lam=1.0), inventory=((1, 0), INF)))
    plan = DLPlan(objective=1.0, u={(0, 0): np.array([[0.0, 1.0]])})
    for policy in POLICIES:
        r = simulate(inst, plan, policy, RandomStream(1))
        assert (r.orders, r.short_items, r.stockout_orders) == (200, 0, (-1,)), policy
    # the DLP has no budget row for unbounded stock, which never binds, and
    # solves as with stock for every order
    bounded = FulfillmentInstance(**_with(inst, inventory=((1, 0), 200.0)))
    assert len(build_dlp(inst)[0].constraints) == len(build_dlp(bounded)[0].constraints) - 1
    solved = solve_dlp(inst)
    solved.check(inst)
    assert solved.objective == pytest.approx(600.0, abs=1e-9)
    assert solved.objective == pytest.approx(solve_dlp(bounded).objective, abs=1e-9)
    hand, _ = hand_case()
    inv = hand.inventory.copy()
    inv[1, 0] = inv[3, 1] = INF
    hand_inf = dataclasses.replace(hand, inventory=inv)
    solved = solve_dlp(hand_inf)
    solved.check(hand_inf)
    assert solved.objective == pytest.approx(3150.0, abs=1e-7)


def test_instance_item_ids_are_ints():
    fields = _with(tiny_instance())
    inst = FulfillmentInstance(**{**fields, "types": ((np.int64(0),),)})
    assert type(inst.types[0][0]) is int
    assert instance_to_json(inst) == instance_to_json(tiny_instance())
    for types in (((0.0,),), (("0",),), (0,), ((True,),), ((np.False_,),)):
        with pytest.raises(FulfillmentError, match="integer item ids"):
            FulfillmentInstance(**{**fields, "types": types})
    # JSON's true is no item id, though it would name item 1
    doc = json.loads(instance_to_json(hand_case()[0]))
    doc["types"][1] = [True]
    with pytest.raises(FulfillmentError, match="integer item ids"):
        instance_from_json(json.dumps(doc))


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
    with pytest.raises(SolverFailure, match="iteration_limit"):
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
    assert idx.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert idx.u_off == (0, 3, 6, 12)
    u_vars = (1 + 2) * (inst.K + 1) * 2      # sum of sizes over (t, j) pairs
    y_vars = len(idx.pairs) * (inst.K + 1)
    assert problem.n == u_vars + y_vars
    # K*n inventory rows, one assignment row per item slot, one linking row
    # per u column
    n_inventory, n_assignment = inst.K * inst.n, (1 + 2) * 2
    assert problem.relations.tolist() == [LE] * n_inventory + [EQ] * n_assignment + [LE] * u_vars
    assert problem.rhs.tolist() == [100.0] * n_inventory + [1.0] * n_assignment + [0.0] * u_vars
    # a real FC's unbounded stock has no row
    inv = inst.inventory.copy()
    inv[2, 1] = INF
    unbounded, _ = build_dlp(dataclasses.replace(inst, inventory=inv))
    assert unbounded.rhs.tolist() == [100.0] * (n_inventory - 1) + problem.rhs[n_inventory:].tolist()
    assert idx.cells.tolist() == list(range(u_vars))
    # FC 1 has no stock of item 2, which is slot 1 of type 1 in both
    # regions: slot positions 6 + 3 + 1 and 12 + 3 + 1 lose their u column
    # and linking row, and (1, 2) its budget row; every y column stays
    inv = inst.inventory.copy()
    inv[1, 2] = 0.0
    empty = dataclasses.replace(inst, inventory=inv)
    reduced, idx = build_dlp(empty)
    assert idx.cells.tolist() == [pos for pos in range(u_vars) if pos not in (10, 16)]
    assert (idx.pairs, idx.u_off) == (((0, 0), (0, 1), (1, 0), (1, 1)), (0, 3, 6, 12))
    assert reduced.n == (u_vars - 2) + y_vars
    assert reduced.relations.tolist() == [LE] * (n_inventory - 1) + [EQ] * n_assignment + [LE] * (u_vars - 2)
    assert reduced.rhs.tolist() == [100.0] * (n_inventory - 1) + [1.0] * n_assignment + [0.0] * (u_vars - 2)
    # each cell took its budget, assignment and two linking entries along
    assert reduced.A.nnz == problem.A.nnz - 2 * 4
    plan = solve_dlp(empty)
    assert plan.u[(1, 0)][1, 1] == plan.u[(1, 1)][1, 1] == 0.0


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


# SHA-256 of write_lp's text for each DLP above with every cell (the
# oracle `full_dlp`), recorded before the DLP builder and LPProblem's
# conversion were rewritten
DLP_MPS_SHA256 = {
    "zero_rate_pair": "43ccfda00a7c916a168a7ed727b431c23e4029b5cdc21241b021ef565b995eb1",
    "j2_k4": "163d1ac2c1a97be72e2a6272db24371d9c4ede00c9edbfe2721b18ddf641ee02",
    "j3_k3": "9e413ade24c1c679a1b148c1ac85e87ae98e3736dcc4be2c59cb12871f4abd39",
    "j2_scaled": "41d1a9070213e3a5b5c1c508602ecfb74d7fa52badb9fae2e8dfb39c058414d8",
    "stock_out": "7f1f3a0ca090eff7a169d317c10801889b442d389e4ab2ed05e694b8354f4850",
}


# the same for `build_dlp`, recorded when the zero-stock cells left the LP
REDUCED_DLP_MPS_SHA256 = {
    "zero_rate_pair": "2372273b0150494b424d33705dbfb5e8f28782d256e11195855b3d76b5133b1f",
    "j2_k4": "88355ff6b71a6126d9bea13a6311e70de9cf17b0893c316d830e64f835bcbb8c",
    "j3_k3": "2acc88c3d83ba9c68b3165f4f7c5a7e474a2c31c2080175624bb6d81558dccb4",
    "j2_scaled": "4c8a16e59b9a09dabacc64db3384361ecb67ce31c045167d4f57cb724f9b659d",
    "stock_out": "00f8ee774b84ba34145ff383aafe10dfff8777f62f34f6c831696a25f6a8d57c",
}


def test_dlp_mps_text_is_pinned():
    got = {name: mps_sha256(full_dlp(inst)[0]) for name, inst in digest_dlps()}
    assert got == DLP_MPS_SHA256


def test_reduced_dlp_mps_text_is_pinned():
    got = {name: mps_sha256(build_dlp(inst)[0]) for name, inst in digest_dlps()}
    assert got == REDUCED_DLP_MPS_SHA256


def test_plan_check_catches_bad_plans():
    inst = tiny_instance()
    # a row that does not sum to 1 is refused when the plan is built
    with pytest.raises(FulfillmentError, match=re.escape("(0, 0) has an item row not summing to 1")):
        DLPlan(objective=1.0, u={(0, 0): np.array([[0.5, 0.4]])})
    # check catches a flow past the stock (50 orders, 10 units), an order
    # without a row and a row that does not fit the instance
    plan = DLPlan(objective=1.0, u={(0, 0): np.array([[0.0, 1.0]])})
    plan.check(inst)
    with pytest.raises(FulfillmentError, match=re.escape("oversubscribes inventory by 4.00e+01")):
        plan.check(tiny_instance(b=10.0))
    with pytest.raises(FulfillmentError, match=re.escape("no row for order (0, 0)")):
        DLPlan(objective=1.0, u={}).check(inst)
    wide = DLPlan(objective=1.0, u={(0, 0): np.array([[0.0, 0.5, 0.5]])})
    with pytest.raises(FulfillmentError, match=re.escape("(0, 0) has shape (1, 3)")):
        wide.check(inst)


def test_no_positive_rate_gives_an_empty_plan():
    inst = dataclasses.replace(tiny_instance(), rates=np.array([[0.0]]))
    plan = solve_dlp(inst)
    assert (plan.objective, dict(plan.u), dict(plan.y)) == (0.0, {}, {})
    plan.check(inst)
    assert theoretical_beta(inst, plan) == (1.0, 1.0)
    for policy in POLICIES:
        r = simulate(inst, plan, policy, RandomStream(1))
        assert (r.orders, r.total_cost, r.uniforms) == (0, 0.0, 0), policy


def reference_check(inst, plan, tol=1e-7):
    """Per-item oracle of the plan checks: each item row sums to 1 and
    y >= max u within tol, and the expected flow T * rate * u, added pair
    by pair and item by item, stays within each real FC's stock."""
    flow = np.zeros((inst.K + 1, inst.n))
    for (t, j), mat in plan.u.items():
        if np.abs(mat.sum(axis=1) - 1.0).max() > tol:
            raise FulfillmentError(f"plan rows for order {(t, j)} do not sum to 1")
        if np.any(plan.y[(t, j)] < mat.max(axis=0) - tol):
            raise FulfillmentError(f"plan y < max u for order {(t, j)}")
        for pos, i in enumerate(inst.types[t]):
            flow[:, i] += inst.T * inst.rates[t, j] * mat[pos]
    over = flow[1:] - inst.inventory[1:]
    if over.max() > INV_TOL:
        raise FulfillmentError(f"plan oversubscribes inventory by {over.max():.2e}")


def _error(check, *args):
    """The FulfillmentError message of check(*args), else None."""
    try:
        check(*args)
    except FulfillmentError as exc:
        return str(exc)
    return None


def test_check_agrees_with_the_per_item_reference():
    outcomes = []
    for name, inst, plan in edge_cases():
        # half of every item's mass moved to FC 1, which oversubscribes it
        spread = {key: 0.5 * u + 0.5 * np.eye(inst.K + 1)[1] for key, u in plan.u.items()}
        spread = DLPlan(plan.objective, spread)
        for factor in (1e6, 2.0, 1.0, 0.5, 0.0):
            inv = inst.inventory.copy()
            inv[np.isfinite(inv)] *= factor
            case = dataclasses.replace(inst, inventory=inv)
            for p in (plan, spread):
                want = _error(reference_check, case, p)
                assert _error(p.check, case) == want, (name, factor)
                outcomes.append(want)
    assert outcomes.count(None) >= 20 and len(set(outcomes)) >= 20


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
    plan = DLPlan(objective=1.0, u={(0, 0): np.array([[0.3, 0.3, 0.4]])})
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


def reference_arrivals(inst, rng):
    """Flat (type, region) index of each arriving order."""
    cdf = np.cumsum(inst.rates.ravel())
    idx = np.searchsorted(cdf, rng.derive(ARRIVAL_SUBSTREAM).uniform(inst.T), side="left")
    return idx[idx < inst.rates.size]


def reference_myopic(inst, arriving):
    """Per-request myopic oracle: for each request in arrival order, the
    cheapest FC (lower k on ties) that carries the item and still has a
    unit. Returns the FCs and, per FC k = 1..K, the index of the first
    order that took the last unit of an item there, else -1."""
    inv = inst.inventory.tolist()
    cands: dict[tuple, list] = {}
    fc = []
    stockout = [-1] * inst.K
    for o, flat in enumerate(arriving.tolist()):
        t, j = divmod(flat, inst.J)
        for i in inst.types[t]:
            ks = cands.get((i, j))
            if ks is None:
                ks = cands[(i, j)] = sorted(
                    (k for k in range(1, inst.K + 1) if inst.inventory[k, i] > 0),
                    key=lambda k: (inst.unit_cost[k, i, j], k),
                )
            pick = 0
            for k in ks:
                if inv[k][i] >= 1.0:
                    inv[k][i] -= 1.0
                    pick = k
                    if inv[k][i] < 1.0 and stockout[k - 1] < 0:
                        stockout[k - 1] = o
                    break
            fc.append(pick)
    return np.array(fc, dtype=np.intp), tuple(stockout)


def reference_simulate(inst, plan, policy, rng):
    """Per-order dispatch oracle: one ``rounding.*_round`` call per order,
    or under ``myopic`` the picks of `reference_myopic`.

    Validates each (type, region) plan row once, picks its scheme (under
    ``auto`` by ``select_scheme``) and draws on the decision substream, then
    books costs order by order, serving an item while its FC has a unit
    left. Returns the report fields except wall time.
    """
    rounds = {
        "independent": lambda m, r: rounding.independent_round(m, r).z,
        "dilate": lambda m, r: rounding.dilate_round(m, r)[0].z,
        "force_open": lambda m, r: rounding.force_open_round(m, r)[0].z,
    }
    dec = rng.derive(DECISION_SUBSTREAM)
    arriving = reference_arrivals(inst, rng)
    myopic = iter(reference_myopic(inst, arriving)[0].tolist()) if policy == "myopic" else None
    inv = inst.inventory.copy()
    rows = {}
    fixed = unit = shortage = 0.0
    orders = split = short = fcs = short_items = 0
    stockout = [-1] * inst.K
    drawn = dict.fromkeys(rounding.SCHEMES, 0)
    for flat in arriving:
        t, j = divmod(int(flat), inst.J)
        if myopic is not None:
            ks = [next(myopic) for _ in inst.types[t]]
        else:
            if flat not in rows:
                mat = np.clip(plan.u[(t, j)], 0.0, None)
                m = rounding.validate(mat / mat.sum(axis=1, keepdims=True))
                rows[flat] = (m, rounding.select_scheme(m)[0] if policy == "auto" else policy)
            m, scheme = rows[flat]
            ks = rounds[scheme](m, dec)
            drawn[scheme] += 1
        used = set()
        for pos, i in enumerate(inst.types[t]):
            k = int(ks[pos])
            if k and inv[k, i] >= 1.0:
                inv[k, i] -= 1.0
                unit += inst.unit_cost[k, i, j]
                if inv[k, i] < 1.0 and stockout[k - 1] < 0:
                    stockout[k - 1] = orders
            else:
                k = 0
                shortage += inst.unit_cost[0, i, j]
                short_items += 1
            used.add(k)
        for k in sorted(used):
            fixed += inst.fixed_cost[k, j]
        real = len(used - {0})
        fcs += real
        split += real >= 2
        short += 0 in used
        orders += 1
    total = fixed + unit + shortage
    return {
        "policy": policy, "scheme": "none" if policy == "myopic" else policy,
        "total_cost": total, "fixed_cost": fixed,
        "unit_cost": unit, "shortage_cost": shortage, "dlp_value": plan.objective,
        "loss_pct": 100.0 * (total - plan.objective) / plan.objective, "orders": orders,
        "fcs_per_order": fcs / orders if orders else 0.0, "split_orders": split,
        "short_orders": short, "seed": rng.seed, "uniforms": dec.position,
        "short_items": short_items, "dilate_orders": drawn["dilate"],
        "force_open_orders": drawn["force_open"], "stockout_orders": tuple(stockout),
    }


def hand_case():
    """Two items, three FCs; every cost is a small integer."""
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
    )
    return hand, hand_plan


def rows_dlp(inst):
    """The DLP as {index: value} rows, built one dict per row: the builder
    that the array builder replaced, kept as its reference."""
    K1, T = inst.K + 1, inst.T
    pairs = [(t, j) for t in range(len(inst.types)) for j in range(inst.J) if inst.rates[t, j] > 0.0]
    u_off = list(itertools.accumulate((len(inst.types[t]) * K1 for t, _ in pairs), initial=0))
    n_u = u_off[-1]
    c = np.empty(n_u + K1 * len(pairs))
    slots, by_item = [], {}
    for p, (t, j) in enumerate(pairs):
        w, y = T * inst.rates[t, j], n_u + p * K1
        a = list(inst.types[t])
        c[u_off[p]:u_off[p + 1]] = (w * inst.unit_cost[:, a, j].T).ravel()
        c[y:y + K1] = w * inst.fixed_cost[:, j]
        for pos, i in enumerate(a):
            slots.append((u_off[p] + pos * K1, y))
            by_item.setdefault(i, []).append((u_off[p] + pos * K1, w))
    stock = inst.inventory.tolist()
    rows = [({u + k: w for u, w in by_item.get(i, ())}, "<=", stock[k][i])
            for k in range(1, K1) for i in range(inst.n) if stock[k][i] < math.inf]
    rows += [(dict.fromkeys(range(u, u + K1), 1.0), "=", 1.0) for u, _ in slots]
    rows += [({u + k: 1.0, y + k: -1.0}, "<=", 0.0) for u, y in slots for k in range(K1)]
    return LPProblem(c=c, constraints=rows), pairs, u_off[:-1]


def dlp_battery():
    """Seeded generated networks and hand-made edge cases: +inf stock on
    real FCs, zero-rate orders, one-item types only, a T = 0 horizon (all
    weights 0) and an instance with no order of positive rate."""
    out = [(f"gen{seed}", build_instance(GeneratorConfig(n=n, n_max=3, n_per=n_per, T=1000, J=J, K=K, seed=seed)))
           for seed, n, J, K, n_per in ((0, 6, 1, 1, 4), (1, 6, 2, 2, 3), (2, 6, 3, 3, 3), (3, 8, 2, 4, 4),
                                        (4, 4, 1, 2, 3), (6, 9, 2, 3, 6), (7, 7, 1, 4, 3))]
    base = out[0][1]
    inv = base.inventory.copy()
    inv[1, :] = INF
    inv[2:, 0] = INF
    rates = base.rates.copy()
    rates[::2, 0] = 0.0
    out += [("inf_stock", dataclasses.replace(base, inventory=inv)),
            ("zero_rates", dataclasses.replace(base, rates=rates)),
            ("no_orders", dataclasses.replace(base, rates=np.zeros_like(rates))),
            ("no_horizon", dataclasses.replace(base, T=0)),
            ("one_item_types", two_fc_instance()), ("tiny", tiny_instance(b=0.0)), ("hand", hand_case()[0])]
    return out


DLP_BATTERY = dlp_battery()


def stocked_rows_dlp(inst):
    """`rows_dlp` with the zero-stock cells taken out: the u column of
    every (item slot, real FC) whose FC has no stock of the slot's item,
    its linking row and the budget row of every zero-stock (k, i) go, and
    the columns left are renumbered in order. Returns the LP, its pairs
    and u offsets, and the slot position of each u column left."""
    full, pairs, u_off = rows_dlp(inst)
    K1, stock = inst.K + 1, inst.inventory.tolist()
    dead = {u_off[p] + pos * K1 + k
            for p, (t, _) in enumerate(pairs) for pos, i in enumerate(inst.types[t])
            for k in range(1, K1) if stock[k][i] == 0.0}
    keep = [col for col in range(full.n) if col not in dead]
    new = {col: pos for pos, col in enumerate(keep)}
    # rows_dlp's rows: a budget row per finite-stock (k, i), an assignment
    # row per item slot, then a linking row per u column in column order
    budgets = [stock[k][i] for k in range(1, K1) for i in range(inst.n) if stock[k][i] < math.inf]
    n_u = sum(len(inst.types[t]) for t, _ in pairs) * K1
    link = len(full.constraints) - n_u
    rows = [({new[col]: v for col, v in coef.items() if col not in dead}, rel, rhs)
            for pos, (coef, rel, rhs) in enumerate(full.constraints)
            if not (pos < len(budgets) and budgets[pos] == 0.0 or pos - link in dead)]
    return LPProblem(c=full.c[keep], constraints=rows), pairs, u_off, [col for col in keep if col < n_u]


@pytest.mark.parametrize("name,inst", DLP_BATTERY, ids=[name for name, _ in DLP_BATTERY])
def test_dlp_arrays_match_the_row_builder(name, inst):
    problem, idx = full_dlp(inst)
    ref, pairs, u_off = rows_dlp(inst)
    assert_same_lp(problem, ref)
    assert idx.pairs == tuple(pairs) and idx.u_off == tuple(u_off)


@pytest.mark.parametrize("name,inst", DLP_BATTERY, ids=[name for name, _ in DLP_BATTERY])
def test_reduced_dlp_arrays_match_the_stocked_row_builder(name, inst):
    problem, idx = build_dlp(inst)
    ref, pairs, u_off, cells = stocked_rows_dlp(inst)
    assert_same_lp(problem, ref)
    assert idx.pairs == tuple(pairs) and idx.u_off == tuple(u_off)
    assert idx.cells.tolist() == cells and not idx.cells.flags.writeable


def generated_dlps():
    """30 seeded generator instances: J = 1-3, K = 2-5, p_carry 0.5-0.9
    and z_safety 0-1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        return [(f"seed{seed}", build_instance(GeneratorConfig(
                    n=8 + seed % 5, n_max=3, n_per=3, p_carry=(0.5, 0.7, 0.9)[seed % 3],
                    z_safety=(0.0, 0.5, 1.0)[seed // 3 % 3], T=1000, J=1 + seed // 10, K=2 + seed % 4,
                    seed=seed)))
                for seed in range(30)]


def perfbench_dlps():
    """The DLPs of perfbench's LP suites on its default and held-out seeds
    (12 one-region desk DLPs and 12 small ones each, every generator seed
    a SeedSequence of (seed, 1, i)), and its two dispatch networks."""
    desk = dict(n=20, n_max=5, n_per=5, p_carry=0.75, z_safety=0.5, T=10_000, K=5)
    sizes = {"desk": dict(desk, J=1), "small": dict(desk, n=10, n_max=3, n_per=3, T=2000, J=1)}
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        for seed, (size, cfg), i in itertools.product((20250808, 4242424242), sizes.items(), range(12)):
            sub = int(np.random.SeedSequence([seed, 1, i]).generate_state(1, np.uint64)[0])
            out.append((f"{size}_{seed}_{i}", build_instance(GeneratorConfig(seed=sub, **cfg))))
        out += [(f"network_j{J}", build_instance(GeneratorConfig(seed=3, **dict(desk, T=T, J=J))))
                for J, T in ((2, 1500), (3, 10_000))]
    return out


ORACLE_DLPS = DLP_BATTERY + list(digest_dlps()) + generated_dlps() + perfbench_dlps()


@pytest.mark.parametrize("name,inst", ORACLE_DLPS, ids=[name for name, _ in ORACLE_DLPS])
def test_dlp_matches_the_full_lp(name, inst):
    """The reduced DLP's optimum is the full one's within 1e-9 relative, its
    plan passes check, and every zero-stock cell of it is exactly 0.0."""
    ref, plan = solve_full_dlp(inst), solve_dlp(inst)
    assert abs(plan.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
    plan.check(inst)
    assert plan.u.keys() == ref.u.keys()
    for (t, _), u in plan.u.items():
        empty = inst.inventory[:, list(inst.types[t])].T == 0.0
        assert np.all(u[empty] == 0.0)


def test_oracle_dlps_have_zero_stock_cells():
    """Most DLPs above lose cells, so their zero checks are not vacuous."""
    lost = [name for name, inst in ORACLE_DLPS if build_dlp(inst)[0].n < full_dlp(inst)[0].n]
    assert len(lost) >= 0.8 * len(ORACLE_DLPS)


def test_reduced_dlp_status_matches_the_full_lp():
    # no stock anywhere: every item to the null FC, on both LPs
    for build in (solve_dlp, solve_full_dlp):
        plan = build(tiny_instance(b=0.0))
        assert plan.objective == pytest.approx(5000.0, rel=1e-12)
        assert plan.u[(0, 0)].tolist() == [[1.0, 0.0]]
    # a negative fixed cost at FC 2, which stocks nothing: its y column
    # keeps its cost without a linking row, so both LPs are unbounded
    inst = FulfillmentInstance(
        n=1, K=2, J=1, T=100, types=((0,),), rates=np.array([[0.5]]),
        unit_cost=np.array([[[50.0]], [[1.0]], [[2.0]]]), fixed_cost=np.array([[0.0], [1.0], [-1.0]]),
        inventory=np.array([[INF], [100.0], [0.0]]),
    )
    assert build_dlp(inst)[0].n == full_dlp(inst)[0].n - 1
    for build in (solve_dlp, solve_full_dlp):
        with pytest.raises(SolverFailure, match="status unbounded"):
            build(inst)
    # the pivot cap binds on both
    capped = build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1))
    for build in (solve_dlp, solve_full_dlp):
        with pytest.raises(SolverFailure, match="iteration_limit"):
            build(capped, max_pivots=1)
    # No valid instance has an infeasible DLP: sending every item to the
    # null FC meets every row. Negative stock, which the instance refuses,
    # forced past it makes the full LP infeasible; the reduced LP has no
    # cell at that FC, and check refuses its plan, so neither returns one.
    bad = dataclasses.replace(inst, fixed_cost=np.array([[0.0], [1.0], [1.0]]))
    object.__setattr__(bad, "inventory", np.array([[INF], [-1.0], [0.0]]))
    with pytest.raises(SolverFailure, match="status infeasible"):
        solve_full_dlp(bad)
    with pytest.raises(FulfillmentError, match="oversubscribes inventory"):
        solve_dlp(bad)


def edge_cases():
    """(name, instance, plan) battery for the dispatch reference check."""
    import dataclasses
    import warnings

    from corround.instances import OrphanItemWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        inst = build_instance(GeneratorConfig(n=10, n_max=4, n_per=3, J=3, K=4, T=1200, seed=23))
    plan = solve_dlp(inst)
    hand, hand_plan = hand_case()
    zero = inst.inventory.copy()
    zero[1:] = 0.0
    frac = inst.inventory.copy()
    frac[1:] = np.where(frac[1:] > 0.0, 2.5, 0.999)
    hand_frac = hand.inventory.copy()
    hand_frac[1:] = [[2.5, 0.999], [0.999, 2.5], [1.0, 3.5]]
    # every real FC costs the same, so myopic breaks ties to the lower k
    hand_tied = hand.unit_cost.copy()
    hand_tied[1:] = 4.0
    hand_inf = hand.inventory.copy()
    hand_inf[1, 0] = hand_inf[3, 1] = INF
    k1 = FulfillmentInstance(
        n=2, K=1, J=2, T=400, types=((0, 1), (0,), (1,)),
        rates=np.array([[0.3, 0.2], [0.0, 0.0], [0.1, 0.25]]),
        unit_cost=np.array([[[9.0, 8.0], [7.0, 6.0]], [[1.0, 2.0], [3.0, 4.0]]]),
        fixed_cost=np.array([[0.5, 0.25], [2.0, 3.0]]),
        inventory=np.array([[INF, INF], [60.0, 45.5]]),
    )
    # type 1 never arrives; type 2 sends all of its mass to the null FC
    k1_plan = DLPlan(
        objective=100.0,
        u={(0, 0): np.array([[0.25, 0.75], [0.5, 0.5]]), (0, 1): np.array([[0.0, 1.0], [0.1, 0.9]]),
           (2, 0): np.array([[1.0, 0.0]]), (2, 1): np.array([[1.0, 0.0]])},
    )
    mixed = FulfillmentInstance(
        n=3, K=2, J=2, T=300, types=((0, 1), (1, 2, 0)),
        rates=np.array([[0.25, 0.2], [0.3, 0.15]]),
        unit_cost=np.arange(18, dtype=float).reshape(3, 3, 2) % 7 + 1.0,
        fixed_cost=np.array([[0.5, 1.0], [2.0, 3.0], [4.0, 1.5]]),
        inventory=np.array([[INF, INF, INF], [120.0, 90.0, 150.0], [80.0, 200.0, 60.0]]),
    )
    # (0, 0) has every item on one FC, item 1 on the null FC; (1, 0) is
    # fractional with item 2 on FC 1 alone; (0, 1) uses all K + 1 columns,
    # so it draws through the dense kernels; (1, 1) is integral
    mixed_u = {(0, 0): np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
               (0, 1): np.array([[0.2, 0.3, 0.5], [0.0, 0.6, 0.4]]),
               (1, 0): np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.3, 0.7]]),
               (1, 1): np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])}
    mixed_plan = DLPlan(objective=50.0, u=mixed_u)
    return [
        ("generated", inst, plan),
        ("half", scale(inst, 0.5), plan),
        ("no orders", dataclasses.replace(inst, T=0), plan),
        ("no stock", dataclasses.replace(inst, inventory=zero), plan),
        ("fractional stock", dataclasses.replace(inst, inventory=frac), plan),
        # three times the orders against the original stock
        ("stocked out", dataclasses.replace(scale(inst, 3.0), inventory=inst.inventory), plan),
        ("hand", hand, hand_plan),
        ("hand fractional", dataclasses.replace(hand, inventory=hand_frac), hand_plan),
        ("hand tied costs", dataclasses.replace(hand, unit_cost=hand_tied), hand_plan),
        ("hand unbounded stock", dataclasses.replace(hand, inventory=hand_inf), hand_plan),
        ("K=1", k1, k1_plan),
        ("mixed rows", mixed, mixed_plan),
    ]


def test_simulate_matches_per_order_reference():
    for name, case, pl in edge_cases():
        for policy in ("independent", "dilate", "force_open", "auto"):
            for seed in (3, 4):
                got = simulate(case, pl, policy, RandomStream(seed))
                want = reference_simulate(case, pl, policy, RandomStream(seed))
                assert {f: getattr(got, f) for f in want} == want, (name, policy, seed)
                if policy == "auto":
                    assert got.dilate_orders + got.force_open_orders == got.orders


def test_simulate_myopic_matches_per_request_reference():
    for name, case, pl in edge_cases():
        for seed in (3, 4):
            arriving = reference_arrivals(case, RandomStream(seed))
            want_fc, want_stockout = reference_myopic(case, arriving)
            t, j = np.divmod(arriving, case.J)
            item = np.array([i for o in t for i in case.types[o]], dtype=np.intp)
            region = np.repeat(j, [len(case.types[o]) for o in t])
            assert np.array_equal(_closest_fcs(case, item, region), want_fc), (name, seed)
            got = simulate(case, pl, "myopic", RandomStream(seed))
            want = reference_simulate(case, pl, "myopic", RandomStream(seed))
            assert {f: getattr(got, f) for f in want} == want, (name, seed)
            assert got.stockout_orders == want_stockout, (name, seed)


def test_simulate_myopic_breaks_cost_ties_to_the_lower_fc():
    inst = dataclasses.replace(two_fc_instance(b1=3.0, b2=4.0, u1=1.0, u2=1.0), T=60)
    inst = dataclasses.replace(inst, rates=np.array([[1.0]]))
    arriving = reference_arrivals(inst, RandomStream(0))
    item = np.zeros(arriving.size, dtype=np.intp)
    assert _closest_fcs(inst, item, item).tolist() == [1] * 3 + [2] * 4 + [0] * 53
    assert simulate(inst, None, "myopic", RandomStream(0)).stockout_orders == (2, 6)


@pytest.mark.parametrize("size", [256, 257, 65536, 65537])
def test_ranks_count_earlier_equal_keys(size):
    # 256 and 65536 keys are the largest that fit 8 and 16 bits
    gen = np.random.default_rng(size)
    values = gen.integers(0, size, 30)
    values[:2] = 0, size - 1
    key = gen.choice(values, 4000)
    seen = {}
    want = []
    for k in key.tolist():
        want.append(seen.get(k, 0))
        seen[k] = want[-1] + 1
    assert _ranks(key, size).tolist() == want
    assert _ranks(key[:0], size).size == 0


def test_simulate_report_is_pinned():
    # fixed outcomes of the hand case, so that simulate and its reference
    # cannot drift together
    hand, hand_plan = hand_case()
    pinned = {
        "myopic": (9376.0, 2037.0, 5700.0, 1639.0, 1194, 252, 694, 945, 0, 0, 0),
        "independent": (9055.0, 1956.0, 5400.0, 1699.0, 1194, 252, 863, 1005, 1945, 0, 0),
        "dilate": (8865.0, 1890.0, 5245.0, 1730.0, 1194, 252, 854, 1036, 4776, 1194, 0),
        "force_open": (9112.0, 1973.0, 5450.0, 1689.0, 1194, 263, 851, 995, 6721, 0, 1194),
        "auto": (8865.0, 1890.0, 5245.0, 1730.0, 1194, 252, 854, 1036, 4776, 1194, 0),
    }
    for policy, want in pinned.items():
        r = simulate(hand, hand_plan, policy, RandomStream(3))
        got = (r.total_cost, r.fixed_cost, r.unit_cost, r.shortage_cost, r.orders,
               r.split_orders, r.short_orders, r.short_items, r.uniforms,
               r.dilate_orders, r.force_open_orders)
        assert got == want, policy


def _fields(report):
    """Every report field but the wall time."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "wall_ms"}


@pytest.mark.parametrize("policies", [("auto", "force_open", "dilate", "independent"),
                                      ("independent", "dilate", "force_open", "auto")])
def test_plan_tables_are_reused_across_calls_and_instances(policies):
    # the battery's cases share plan objects, so that all but the first call
    # on a plan draw through the tables an earlier call built
    for name, case, pl in edge_cases():
        fresh = plan_from_json(plan_to_json(pl))
        for policy in policies:
            got = simulate(case, pl, policy, RandomStream(5))
            want = reference_simulate(case, pl, policy, RandomStream(5))
            assert {f: getattr(got, f) for f in want} == want, (name, policy)
            assert _fields(got) == _fields(simulate(case, fresh, policy, RandomStream(5))), (name, policy)


def test_pickled_plan_gives_identical_reports():
    _, inst, plan = edge_cases()[0]
    before = {p: _fields(simulate(inst, plan, p, RandomStream(8))) for p in POLICIES}
    copy = pickle.loads(pickle.dumps(plan))
    for key, mat in copy.u.items():
        assert np.array_equal(mat, plan.u[key]) and not mat.flags.writeable
    for p in POLICIES:
        assert _fields(simulate(inst, copy, p, RandomStream(8))) == before[p], p


def test_plan_arrays_are_read_only_copies():
    hand, hand_plan = hand_case()
    row = np.array([[0.1, 0.9, 0.0, 0.0]])
    plan = DLPlan(objective=5.0, u={**hand_plan.u, (1, 0): row})
    before = _fields(simulate(hand, plan, "dilate", RandomStream(2)))
    row[0] = [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        plan.u[(1, 0)][0, 0] = 1.0
    with pytest.raises(ValueError):
        plan.y[(1, 0)][0] = 1.0
    with pytest.raises(TypeError):
        plan.u[(1, 0)] = row
    assert _fields(simulate(hand, plan, "dilate", RandomStream(2))) == before


def malformed_rows():
    """(what, pair named by the error, u): plans on hand_case()'s layout
    that `DLPlan` refuses to build, one fault each."""
    _, hand_plan = hand_case()
    cases = [
        ("NaN entry", (1, 0), [[0.1, np.nan, 0.0, 0.0]]),
        ("inf entry", (1, 0), [[0.1, INF, 0.0, 0.0]]),
        ("negative entry", (1, 0), [[-0.1, 1.1, 0.0, 0.0]]),
        ("all-zero item", (0, 0), [[0.2, 0.5, 0.3, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        ("item summing to 0.9", (1, 0), [[0.5, 0.4, 0.0, 0.0]]),
        ("item summing to 1 + 2 PLAN_TOL", (1, 0), [[0.1, 0.9 + 2 * PLAN_TOL, 0.0, 0.0]]),
        ("K columns beside K + 1", (1, 0), [[0.1, 0.9, 0.0]]),
        ("no item rows", (1, 0), np.empty((0, 4))),
        ("1-D u", (1, 0), [0.1, 0.9, 0.0, 0.0]),
    ]
    for what, pair, u in cases:
        yield what, pair, {**hand_plan.u, pair: np.array(u, dtype=float)}


class _Pickled:
    """Pickles as the DLPlan of the given fields, whatever they hold, as a
    plan pickled by a version that did not check them would."""

    def __init__(self, *fields):
        self.fields = fields

    def __reduce__(self):
        return DLPlan, self.fields


def _plan_text(objective, u):
    entries = [{"type": t, "region": j, "u": np.asarray(u[(t, j)]).tolist()} for t, j in u]
    return json.dumps({"objective": objective, "entries": entries})


def test_malformed_plans_fail_when_built():
    for _, pair, u in malformed_rows():
        # NaN and inf are written as JSON's NaN and Infinity literals
        for build in (lambda: DLPlan(objective=5.0, u=u),
                      lambda: pickle.loads(pickle.dumps(_Pickled(5.0, u))),
                      lambda: plan_from_json(_plan_text(5.0, u))):
            with pytest.raises(FulfillmentError, match=re.escape(str(pair))):
                build()


def test_plan_construction_tolerances_and_keys():
    _, hand_plan = hand_case()
    u = dict(hand_plan.u)
    # within PLAN_TOL of a row sum of 1 is well formed
    u[(1, 0)] = np.array([[0.1, 0.9 + PLAN_TOL / 2, 0.0, 0.0]])
    DLPlan(objective=5.0, u=u)
    # numpy int keys become ints, and the mappings iterate in key order
    plan = DLPlan(objective=np.float32(5.0), u={(np.int64(t), j): a for (t, j), a in reversed(hand_plan.u.items())})
    assert list(plan.u) == list(plan.y) == [(0, 0), (1, 0)]
    assert all(type(t) is int for t, _ in plan.u)
    assert plan_to_json(plan) == plan_to_json(hand_plan)
    bad = {
        "not a pair": {(0,): [[1.0]]},
        "float type": {(0.0, 0): [[1.0]]},
        "bool region": {(0, False): [[1.0]]},
        "text key": {"ab": [[1.0]]},
        "text entries": {(0, 0): [["a"]]},
        "ragged rows": {(0, 0): [[1.0], [0.5, 0.5]]},
    }
    for what, u in bad.items():
        with pytest.raises(FulfillmentError, match="int \\(type, region\\) pair"):
            DLPlan(objective=1.0, u=u)
    for objective in (np.nan, INF, "5", None, True, False):
        with pytest.raises(FulfillmentError, match="objective"):
            DLPlan(objective=objective, u={})


def test_plan_y_is_max_u():
    """y is each row's max_i u, read-only, and stays so through JSON and
    pickle; y is no input: a text's y is read past, and the constructor and
    the pickled form of a version that took y refuse it."""
    _, hand_plan = hand_case()
    text = plan_to_json(hand_plan)
    doc = json.loads(text)
    for entry in doc["entries"]:
        entry["y"] = [2.0] * len(entry["y"])
    for plan in (hand_plan, plan_from_json(text), plan_from_json(json.dumps(doc)),
                 plan_from_json(_plan_text(5.0, hand_plan.u)), pickle.loads(pickle.dumps(hand_plan))):
        assert list(plan.y) == list(plan.u)
        for key, u in plan.u.items():
            assert np.array_equal(plan.y[key], u.max(axis=0)) and not plan.y[key].flags.writeable
        assert plan_to_json(plan) == text
    with pytest.raises(TypeError):
        DLPlan(objective=5.0, u=dict(hand_plan.u), y=dict(hand_plan.y))
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(_Pickled(5.0, dict(hand_plan.u), dict(hand_plan.y))))


def malformed_plans():
    """(what, pair named by the error, plan): well-formed plans that do not
    fit hand_case(), so that no randomized policy can draw from them."""
    hand, hand_plan = hand_case()
    good = dict(hand_plan.u)
    rows = {
        "missing pair": ((1, 0), {(0, 0): good[(0, 0)]}),
        "K columns": ((0, 0), {(0, 0): np.array([[0.2, 0.5, 0.3], [0.0, 0.4, 0.6]]),
                               (1, 0): np.array([[0.1, 0.9, 0.0]])}),
        "extra item row": ((1, 0), {**good, (1, 0): np.array([[0.1, 0.9, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])}),
        "unknown order": ((2, 0), {**good, (2, 0): np.array([[1.0, 0.0, 0.0, 0.0]])}),
        "unknown region": ((0, 1), {**good, (0, 1): good[(0, 0)]}),
        "negative type": ((-1, 0), {**good, (-1, 0): np.array([[1.0, 0.0, 0.0, 0.0]])}),
    }
    return hand, [(what, pair, DLPlan(objective=5.0, u=u))
                  for what, (pair, u) in rows.items()]


@pytest.mark.parametrize("policy", ["independent", "dilate", "force_open", "auto"])
def test_simulate_rejects_malformed_plans(policy):
    hand, plans = malformed_plans()
    for _, pair, plan in plans:
        with pytest.raises(FulfillmentError, match=re.escape(str(pair))):
            simulate(hand, plan, policy, RandomStream(3))
    # myopic ignores the plan
    assert simulate(hand, plans[0][2], "myopic", RandomStream(3)).orders > 0


def test_plan_fit_errors_name_the_pair():
    hand, plans = malformed_plans()
    for what, pair, plan in plans:
        for copy in (plan, plan_from_json(plan_to_json(plan)), pickle.loads(pickle.dumps(plan))):
            with pytest.raises(FulfillmentError, match=re.escape(str(pair))):
                copy.check(hand)
            # beta averages over the rows there are
            if what != "missing pair":
                with pytest.raises(FulfillmentError, match=re.escape(str(pair))):
                    theoretical_beta(hand, copy)


def test_plan_tables_are_checked_per_instance_layout():
    # a plan drawn from on one instance is checked again on an instance
    # whose order types differ, not drawn through the first one's tables
    hand, hand_plan = hand_case()
    simulate(hand, hand_plan, "dilate", RandomStream(1))
    wider = dataclasses.replace(hand, types=((0, 1), (0, 1)))
    with pytest.raises(FulfillmentError, match=re.escape("(1, 0)")):
        simulate(wider, hand_plan, "dilate", RandomStream(1))


def test_simulate_myopic_counts_short_items():
    inst = tiny_instance(T=50, lam=1.0, b=3.0)
    r = simulate(inst, None, "myopic", RandomStream(7))
    assert (r.orders, r.short_orders, r.short_items, r.uniforms) == (50, 47, 47, 0)
    assert (r.dilate_orders, r.force_open_orders) == (0, 0)


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
    plan = DLPlan(objective=1.0, u={(0, 0): np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])})
    beta, relaxed = theoretical_beta(inst, plan)
    assert beta == pytest.approx(1.0)  # B(2) = 1 caps the per-order term
    assert relaxed == pytest.approx(1.0 + math.log(2))


def test_theoretical_beta_matches_the_per_order_guarantees():
    # the per-order formula: min(1 + ln q, force_open's 1 / min_i max_k u,
    # B(q)), weighted by rate times the fixed cost of y
    for seed, J in itertools.product(range(4), (1, 2, 3)):
        inst = build_instance(GeneratorConfig(n=10, n_max=4, n_per=3, J=J, K=4, T=500, seed=seed))
        plan = solve_dlp(inst)
        num = den = 0.0
        for (t, j), mat in plan.u.items():
            q = len(inst.types[t])
            term = min(rounding.guarantee_dilate(q), 1.0 / mat.max(axis=1).min(), rounding.guarantee_js(q))
            w = inst.rates[t, j] * float(inst.fixed_cost[:, j] @ plan.y[(t, j)])
            num, den = num + w * term, den + w
        beta, relaxed = theoretical_beta(inst, plan)
        assert beta == pytest.approx(num / den, rel=1e-12)
        assert relaxed == 1.0 + math.log(max(len(inst.types[t]) for t, _ in plan.u))


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


@pytest.mark.parametrize("theta", [1e308, INF, math.nan, 1e17])
def test_scale_rejects_horizons_past_int64(theta):
    with pytest.raises(FulfillmentError):
        scale(tiny_instance(T=120), theta)
    # with no horizon to bound, the scaled stock must stay finite
    with pytest.raises(FulfillmentError):
        scale(tiny_instance(T=0), theta if theta != 1e17 else 1e306)


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


@pytest.mark.parametrize("reader, text, field", [
    (plan_from_json, '{"objective": 1}', "entries"),
    (plan_from_json, '{"entries": []}', "objective"),
    (plan_from_json, '{"objective": 1, "entries": [{"type": 0, "region": 0, "y": [1.0]}]}', "u"),
    (plan_from_json, "[]", "objective"),
    (instance_from_json, '{"n": 1}', "K"),
    (instance_from_json, "[1, 2]", "n"),
])
def test_json_readers_name_a_missing_field(reader, text, field):
    with pytest.raises(FulfillmentError, match=f"no field '{field}'"):
        reader(text)


@pytest.mark.parametrize("field,value,message", [
    ("T", 2.5, "T must be an integer, got 2.5"),
    ("T", -5, "T must be >= 0, got -5"),
    ("T", "100", "T must be an integer, got '100'"),
    ("J", None, "J must be an integer, got None"),
    ("n", 1.0, "n must be an integer, got 1.0"),
    ("K", -1, "K must be >= 0, got -1"),
    ("rates", [["x"]], "rates is not an array of numbers"),
    ("unit_cost", "cheap", "unit_cost is not an array of numbers"),
    ("inventory", [[1.0], ["lots"]], "inventory is not an array of numbers"),
    # JSON's true and false are no counts
    ("n", True, "n must be an integer, got True"),
    ("T", True, "T must be an integer, got True"),
    ("K", False, "K must be an integer, got False"),
])
def test_instance_counts_and_arrays_are_checked(field, value, message):
    doc = json.loads(instance_to_json(tiny_instance()))
    doc[field] = value
    with pytest.raises(FulfillmentError, match=re.escape(message)):
        instance_from_json(json.dumps(doc))
    if field in ("n", "K", "J", "T"):
        with pytest.raises(FulfillmentError, match=re.escape(message)):
            FulfillmentInstance(**{**_with(tiny_instance()), field: value})
    inst = FulfillmentInstance(**{**_with(tiny_instance()), "T": np.int64(100)})
    assert type(inst.T) is int and inst.T == 100


def test_json_readers_reject_malformed_documents():
    doc = json.loads(instance_to_json(two_fc_instance()))
    doc["inventory"] = doc["inventory"][:1]
    with pytest.raises(FulfillmentError, match=re.escape("inventory shape (1, 1) != (K, n)")):
        instance_from_json(json.dumps(doc))
    doc = json.loads(plan_to_json(hand_case()[1]))
    doc["entries"].append(doc["entries"][0])
    with pytest.raises(FulfillmentError, match=re.escape("lists order (0, 0) twice")):
        plan_from_json(json.dumps(doc))
    with pytest.raises(FulfillmentError, match=re.escape("plan entries must be a list, got int")):
        plan_from_json('{"objective":0,"entries":5}')
    # JSON's true is no objective
    doc = json.loads(plan_to_json(hand_case()[1]))
    doc["objective"] = True
    with pytest.raises(FulfillmentError, match=re.escape("plan objective True is not a finite number")):
        plan_from_json(json.dumps(doc))
