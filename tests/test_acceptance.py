"""Acceptance battery: one test per criterion, tolerances fixed up front.

Heavy shared artifacts (the 10^6-sample Monte Carlo runs and the desk-scale
fulfillment campaign) are computed once as module fixtures and reused. Each
test prints one PASS/FAIL line.
"""

import math
import time
import warnings
from argparse import Namespace

import numpy as np
import pytest

from corround import cli, rounding
from corround.fulfillment import POLICIES, scale, simulate, solve_dlp
from corround.instances import GeneratorConfig, OrphanItemWarning, build_geography, build_instance
from corround.optimal import solve_optimal_alpha
from corround.rounding import (
    guarantee_dilate,
    guarantee_force_open,
    mc_estimate,
    validate,
)
from corround.setcover import batch_cover_usage, hard_instance, marginals_from_fractional_cover
from corround.setcover import FractionalCover, SetCoverInstance
from corround.streams import RandomStream, derive_seed

from conftest import instance_battery, random_instance

BASE_SEED = 20250808
N_BIG = 10 ** 6
N_COVER = 10 ** 5
REPLICATIONS = 30
DESK_INSTANCES = 5


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{name}] {tag} {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery():
    return instance_battery(seed=BASE_SEED, count=20, q_max=10, K_max=8)


@pytest.fixture(scope="module")
def mc_runs(battery):
    runs = {}
    for idx, m in enumerate(battery):
        for scheme in ("dilate", "force_open"):
            rng = RandomStream(derive_seed(BASE_SEED, 100 + 2 * idx + (scheme == "force_open")))
            runs[(idx, scheme)] = mc_estimate(m, scheme, N_BIG, rng)
    return runs


@pytest.fixture(scope="module")
def desk_campaign():
    geo = build_geography(J=10, K=5)
    campaign = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        for idx in range(DESK_INSTANCES):
            inst_seed = derive_seed(BASE_SEED, cli.INSTANCE_STRIDE + idx)
            cfg = GeneratorConfig(
                n=20, n_max=5, n_per=5, p_carry=0.75, z_safety=0.5,
                T=10_000, J=10, K=5, seed=inst_seed,
            )
            inst = build_instance(cfg, geo)
            plan = solve_dlp(inst)
            reports = {p: [] for p in POLICIES}
            for rep in range(REPLICATIONS):
                rep_seed = derive_seed(inst_seed, cli.REPLICATION_STRIDE + rep)
                for policy in POLICIES:
                    reports[policy].append(simulate(inst, plan, policy, RandomStream(rep_seed)))
            campaign.append({"inst": inst, "plan": plan, "reports": reports})
    return campaign


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_marginal_exactness(battery, mc_runs):
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for idx, m in enumerate(battery):
        tol = 4.0 * np.sqrt(m.u * (1.0 - m.u) / N_BIG)
        for scheme in ("dilate", "force_open"):
            err = np.abs(mc_runs[(idx, scheme)].marginals - m.u)
            worst = max(worst, float((err - tol).max()))
            ok &= bool(np.all(err <= tol + 1e-12))
    report("C1 marginal exactness", ok,
           f"20 instances x 2 schemes at N=1e6, worst err-tol {worst:.2e}, "
           f"{time.perf_counter() - t0:.0f}s")
    assert ok


def test_c02_competitive_bounds(battery, mc_runs):
    slack = 4.0 * math.sqrt(0.25 / N_BIG)
    violations = 0
    for idx, m in enumerate(battery):
        for scheme, g in (
            ("dilate", guarantee_dilate(m.q)),
            ("force_open", guarantee_force_open(m)),
        ):
            bound = np.minimum(g * m.y, 1.0) + slack
            violations += int((mc_runs[(idx, scheme)].usage > bound).sum())
    report("C2 competitive bounds", violations == 0, f"violations {violations}")
    assert violations == 0


def test_c03_tail_bound(battery, mc_runs):
    slack = 4.0 * math.sqrt(0.25 / N_BIG)
    ok = True
    for idx, m in enumerate(battery[:10]):
        rep = mc_runs[(idx, "dilate")]
        bound = np.minimum(m.q * np.exp(-rep.tail_grid), 1.0) + slack
        ok &= bool(np.all(rep.tail <= bound))
    report("C3 tail bound", ok, "q*e^-t on t grid, 10 instances")
    assert ok


def test_c04_instance_optimal_lp():
    # frozen expected values, each computed beforehand with an independent
    # brute-force LP (scipy linprog over the nonempty subsets)
    a1 = solve_optimal_alpha(validate([[0.3, 0.7]])).alpha
    a2 = solve_optimal_alpha(validate([[0.6, 0.4], [0.3, 0.7]])).alpha
    pairs = validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    a3 = solve_optimal_alpha(pairs).alpha
    ok = abs(a1 - 1.0) <= 1e-7 and abs(a2 - 1.0) <= 1e-7 and abs(a3 - 4.0 / 3.0) <= 1e-6

    gen = np.random.default_rng(derive_seed(BASE_SEED, 4))
    dominated = True
    for t in range(20):
        q = int(gen.integers(1, 5))
        K = int(gen.integers(2, 9))
        m = random_instance(gen, q, K, sparse=bool(t % 3 == 1))
        alpha = solve_optimal_alpha(m).alpha
        dominated &= alpha <= min(guarantee_dilate(q), guarantee_force_open(m)) + 1e-7
    report("C4 instance-optimal LP", ok and dominated,
           f"alpha1 {a1:.9f}, hand {a2:.9f}, pairs {a3:.9f}, dominated {dominated}")
    assert ok and dominated


def _random_cover(gen):
    q = int(gen.integers(3, 13))
    K = int(gen.integers(2, 9))
    members = [set() for _ in range(K)]
    counts = np.zeros(q, dtype=int)
    for e in range(q):
        picks = gen.choice(K, size=int(gen.integers(1, K + 1)), replace=False)
        for k in picks:
            members[k].add(e)
            counts[e] += 1
    sc = SetCoverInstance(q=q, members=tuple(tuple(sorted(s)) for s in members))
    y = FractionalCover(y=np.full(K, 1.0 / counts.min()))
    return sc, y


def test_c05_set_cover_rounding():
    gen = np.random.default_rng(derive_seed(BASE_SEED, 5))
    slack = 4.0 * math.sqrt(0.25 / N_COVER)
    all_feasible = True
    bound_ok = True
    for t in range(10):
        sc, y = _random_cover(gen)
        usage, feasible = batch_cover_usage(
            sc, y, "dilate", N_COVER, RandomStream(derive_seed(BASE_SEED, 500 + t))
        )
        all_feasible &= feasible == N_COVER
        bound = np.minimum(guarantee_dilate(sc.q) * y.y, 1.0) + slack
        bound_ok &= bool(np.all(usage <= bound))
    report("C5 set cover rounding", all_feasible and bound_ok,
           f"feasible in all runs {all_feasible}, usage bound {bound_ok}")
    assert all_feasible and bound_ok


def test_c06_lower_bound_witness():
    d = 2
    ok = True
    details = []
    for K in (4, 8, 16):
        sc, y = hard_instance(d, K)
        usage, feasible = batch_cover_usage(
            sc, y, "force_open", N_COVER, RandomStream(derive_seed(BASE_SEED, 600 + K))
        )
        assert feasible == N_COVER
        ratio = float((usage / y.y).mean())
        floor = d * (1.0 - d / K)
        slack = 4.0 * math.sqrt(0.25 / N_COVER) / float(y.y[0])
        ok &= ratio >= floor - slack
        details.append(f"K={K}: {ratio:.3f} >= {floor:.3f}")
    report("C6 lower-bound witness", ok, "; ".join(details))
    assert ok


def test_c06_lower_bound_lp_optimum():
    # the family's subset LP at d = 4, K = 8 (q = 70): alpha* = d - d(d-1)/K
    # = 2.5, the lower bound met exactly, and within min(1 + ln q, d)
    d, K = 4, 8
    m = marginals_from_fractional_cover(*hard_instance(d, K))
    alpha = solve_optimal_alpha(m).alpha
    ok = abs(alpha - 2.5) <= 1e-9 and alpha <= min(1.0 + math.log(m.q), d) + 1e-9
    report("C6 lower-bound LP optimum", ok, f"d={d}, K={K}, q={m.q}: alpha* {alpha!r}")
    assert ok


def test_c07_dlp_soundness(desk_campaign):
    ok = True
    for entry in desk_campaign:
        dlp = entry["plan"].objective
        for policy in POLICIES:
            totals = np.array([r.total_cost for r in entry["reports"][policy]])
            se = totals.std(ddof=1) / math.sqrt(len(totals))
            ok &= totals.mean() >= dlp - 3.0 * se
    inst0 = desk_campaign[0]["inst"]
    dlp1 = desk_campaign[0]["plan"].objective
    dlp2 = solve_dlp(scale(inst0, 2.0)).objective
    hom = abs(dlp2 - 2.0 * dlp1) / (2.0 * dlp1)
    ok_hom = hom <= 1e-6
    report("C7 DLP soundness", ok and ok_hom,
           f"all policy means >= DLP - 3SE; DLP(2)/(2 DLP(1)) off by {hom:.2e}")
    assert ok and ok_hom


def _mean_over_instances(campaign, policy, field):
    per_instance = [
        float(np.mean([getattr(r, field) for r in entry["reports"][policy]]))
        for entry in campaign
    ]
    return float(np.mean(per_instance))


def test_c08_directional_table_reproduction(desk_campaign):
    loss = {p: _mean_over_instances(desk_campaign, p, "loss_pct") for p in POLICIES}
    fcs = {p: _mean_over_instances(desk_campaign, p, "fcs_per_order") for p in POLICIES}
    ok = (
        loss["dilate"] <= loss["independent"]
        and loss["dilate"] <= loss["myopic"]
        and fcs["dilate"] <= fcs["independent"]
    )
    detail = ", ".join(f"{p} {loss[p]:.2f}%" for p in ("dilate", "force_open", "independent", "myopic"))
    report("C8 directional Table-1", ok, detail + f"; FCs/order dilate {fcs['dilate']:.3f} vs indep {fcs['independent']:.3f}")
    assert ok


def test_c09_sparsity_regime():
    geo = build_geography(J=10, K=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrphanItemWarning)
        inst_seed = derive_seed(BASE_SEED, 9)
        cfg = GeneratorConfig(
            n=20, n_max=5, n_per=5, p_carry=0.25, z_safety=0.5,
            T=10_000, J=10, K=5, seed=inst_seed,
        )
        inst = build_instance(cfg, geo)
        plan = solve_dlp(inst)
        means = {}
        for policy in ("dilate", "force_open"):
            losses = [
                simulate(inst, plan, policy,
                         RandomStream(derive_seed(inst_seed, cli.REPLICATION_STRIDE + rep))).loss_pct
                for rep in range(REPLICATIONS)
            ]
            means[policy] = float(np.mean(losses))
    ok = means["force_open"] <= 1.1 * means["dilate"]
    report("C9 sparsity regime", ok,
           f"force_open {means['force_open']:.3f}% vs 1.1 x dilate {1.1 * means['dilate']:.3f}%")
    assert ok


def test_c10_runtime_scaling(capsys):
    args = Namespace(seed=BASE_SEED, out=None, check=True)
    code = cli.cmd_bench(args)
    detail = capsys.readouterr().out.strip().splitlines()
    with capsys.disabled():
        pass
    report("C10 runtime scaling", code == cli.EXIT_OK, " | ".join(detail))
    assert code == cli.EXIT_OK
