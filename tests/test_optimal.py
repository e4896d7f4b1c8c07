import io
import math

import numpy as np
import pytest

from corround.errors import CapExceeded
from corround.optimal import (
    DegenerateSubset,
    OptimalSchemeSolution,
    SolverFailure,
    build_lp,
    read_solution,
    sample_optimal,
    solve_optimal_alpha,
    write_solution,
)
from corround.rounding import guarantee_dilate, guarantee_force_open, validate
from corround.streams import RandomStream

from conftest import UnitUniforms, mps_sha256, random_instance


def test_build_counts_q1_k2():
    m = validate([[0.3, 0.7]])
    problem, idx = build_lp(m)
    # alpha + z over {1},{2},{1,2} + conditional masses (1 + 1 + 2)
    assert idx.n_vars == 8
    assert problem.n == 8


def test_build_counts_q2_k2_dense():
    m = validate([[0.6, 0.4], [0.3, 0.7]])
    problem, idx = build_lp(m)
    masks = 3
    coverage = masks * m.q
    marginal = m.q * m.K          # all entries positive
    usage = m.K
    total = 1
    assert len(problem.constraints) == coverage + marginal + usage + total
    u_vars = m.q * (1 + 1 + 2)    # per item: one per subset membership
    assert idx.n_vars == 1 + masks + u_vars


def digest_subset_instances():
    """Marginal matrices whose subset LP's MPS text is pinned below; each
    sparse one has zero marginals, and one has a whole zero column."""
    gen = np.random.default_rng(20240817)
    yield "sparse_q3_k3", random_instance(gen, 3, 3, sparse=True)
    yield "sparse_q5_k4", random_instance(gen, 5, 4, sparse=True)
    yield "sparse_q4_k5", random_instance(gen, 4, 5, sparse=True)
    yield "dense_q2_k3", random_instance(gen, 2, 3)
    yield "zero_column", validate([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]])


# SHA-256 of write_lp's text for each subset LP above, recorded before the
# subset LP builder and LPProblem's conversion were rewritten
SUBSET_MPS_SHA256 = {
    "sparse_q3_k3": "724dac1be3f6fcd0387f36e8e61a8eefc5a45497ff6ef19d0f4db8759b3193db",
    "sparse_q5_k4": "0c82c53d1da60ea151df513e0673f6a5cf0c70ba4f5fd773d2a0235a04c9af14",
    "sparse_q4_k5": "2522ec2835d44b30a5dfd5ff8ef294d216cc9ec5ed757a4682b6c84e8cddf62f",
    "dense_q2_k3": "c10a4bc513e18620233a15f003d6c81a14a02e4bb84c7a61f1589ec23676528c",
    "zero_column": "6e873eb1d6670a615e75674bf7713739fb59106460d289fafbf340694157e651",
}


def test_subset_lp_mps_text_is_pinned():
    got = {name: mps_sha256(build_lp(m)[0]) for name, m in digest_subset_instances()}
    assert got == SUBSET_MPS_SHA256


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        build_lp(validate([np.full(13, 1.0 / 13)]), cap=12)


# expected alphas below were computed up front with an independent
# brute-force LP (scipy linprog over all nonempty subsets) before this
# module existed; see test_acceptance for the battery version
def test_alpha_single_item():
    sol = solve_optimal_alpha(validate([[0.3, 0.7]]))
    assert sol.alpha == pytest.approx(1.0, abs=1e-7)
    assert sol.z[0b01] == pytest.approx(0.3, abs=1e-7)
    assert sol.z[0b10] == pytest.approx(0.7, abs=1e-7)


def test_alpha_hand_k2_q2():
    sol = solve_optimal_alpha(validate([[0.6, 0.4], [0.3, 0.7]]))
    assert sol.alpha == pytest.approx(1.0, abs=1e-7)
    assert sol.usage[0] == pytest.approx(0.6, abs=1e-7)
    assert sol.usage[1] == pytest.approx(0.7, abs=1e-7)


def test_alpha_pairs_is_four_thirds():
    pairs = validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    sol = solve_optimal_alpha(pairs)
    assert sol.alpha == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_alpha_below_scheme_guarantees():
    gen = np.random.default_rng(60)
    for t in range(8):
        q = int(gen.integers(1, 4))
        K = int(gen.integers(2, 6))
        m = random_instance(gen, q, K, sparse=bool(t % 2))
        sol = solve_optimal_alpha(m)
        assert sol.alpha <= min(guarantee_dilate(q), guarantee_force_open(m)) + 1e-7
        assert sol.alpha >= 1.0 - 1e-9


def test_alpha_is_one_for_two_fcs():
    gen = np.random.default_rng(61)
    for t in range(20):
        m = random_instance(gen, int(gen.integers(1, 5)), 2)
        assert solve_optimal_alpha(m).alpha == pytest.approx(1.0, abs=1e-7)


def test_verify_catches_corruption():
    sol = solve_optimal_alpha(validate([[0.3, 0.7]]))
    bad = OptimalSchemeSolution(
        alpha=sol.alpha, K=sol.K, q=sol.q,
        z={k: v * 0.5 for k, v in sol.z.items()}, u_cond=sol.u_cond,
    )
    with pytest.raises(SolverFailure):
        bad.verify(validate([[0.3, 0.7]]))


def test_sampling_single_subset():
    sol = OptimalSchemeSolution(
        alpha=1.0, K=2, q=2,
        z={0b11: 1.0},
        u_cond={(0, 0, 0b11): 0.5, (1, 0, 0b11): 0.5,
                (0, 1, 0b11): 0.2, (1, 1, 0b11): 0.8},
    )
    for s in range(30):
        z = sample_optimal(sol, RandomStream(s)).z
        assert set(z) <= {0, 1}


def test_sampling_consistency_with_marginals():
    m = validate([[0.6, 0.4], [0.3, 0.7]])
    sol = solve_optimal_alpha(m)
    r = RandomStream(5)
    n = 100_000
    counts = np.zeros((2, 2))
    used = np.zeros(2)
    for _ in range(n):
        z = sample_optimal(sol, r).z
        counts[0, z[0]] += 1
        counts[1, z[1]] += 1
        used[list(set(z))] += 1
    tol = 4.0 * math.sqrt(0.25 / n)
    assert np.all(np.abs(counts / n - m.u) <= tol)
    assert abs(used[0] / n - 0.6) <= tol
    assert abs(used[1] / n - 0.7) <= tol


def test_sampling_at_u_one_stays_on_support():
    # the item's cumulative masses end one ulp under 1 before FC 3, which
    # carries none of its mass
    sol = OptimalSchemeSolution(
        alpha=1.0, K=4, q=1,
        z={0b1111: 1.0},
        u_cond={(0, 0, 0b1111): 0.34, (1, 0, 0b1111): 0.56, (2, 0, 0b1111): 0.10},
    )
    assert sample_optimal(sol, UnitUniforms(0)).z.tolist() == [2]


def loop_sample(s, rng):
    """One draw by the per-item searchsorted loop, the reference sampler."""
    pos = min(int(np.searchsorted(s.z_cdf, rng.uniform(), side="left")), len(s.sorted_masks) - 1)
    mask = s.sorted_masks[pos]
    members = [k for k in range(s.K) if mask >> k & 1]
    draws = rng.uniform(s.q)
    z = np.empty(s.q, dtype=np.int64)
    for i in range(s.q):
        w = np.array([s.u_cond.get((k, i, mask), 0.0) for k in members])
        cdf = np.cumsum(w / w.sum())
        z[i] = members[min(int(np.searchsorted(cdf, draws[i], side="left")), len(members) - 1)]
    return z


def test_sampling_matches_loop_reference():
    gen = np.random.default_rng(11)
    for _ in range(8):
        sol = solve_optimal_alpha(random_instance(gen, 4, 4, sparse=True))
        r1, r2 = RandomStream(3), RandomStream(3)
        for _ in range(200):
            assert np.array_equal(sample_optimal(sol, r1).z, loop_sample(sol, r2))
        assert r1.position == r2.position


def test_sampling_degenerate_subset():
    sol = OptimalSchemeSolution(alpha=1.0, K=1, q=1, z={0b1: 1.0}, u_cond={})
    with pytest.raises(DegenerateSubset):
        sample_optimal(sol, RandomStream(0))


def test_solution_round_trip():
    pairs = validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    sol = solve_optimal_alpha(pairs)
    buf = io.StringIO()
    write_solution(sol, buf)
    buf.seek(0)
    sol2 = read_solution(buf)
    assert sol2.alpha == sol.alpha
    assert sol2.z == sol.z
    assert sol2.u_cond == sol.u_cond
    assert (sol2.K, sol2.q) == (sol.K, sol.q)


def test_solution_text_is_byte_stable():
    sol = solve_optimal_alpha(validate([[0.6, 0.4], [0.3, 0.7]]))
    a, b = io.StringIO(), io.StringIO()
    write_solution(sol, a)
    write_solution(sol, b)
    assert a.getvalue() == b.getvalue()
