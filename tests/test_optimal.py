import hashlib
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
from corround.rounding import ParseError, guarantee_dilate, guarantee_force_open, validate
from corround.simplex import LPProblem
from corround.streams import RandomStream

from conftest import UnitUniforms, assert_same_lp, mps_sha256, random_instance


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


def rows_subset_lp(m):
    """The subset LP as {index: value} rows, built one dict per row: the
    builder that the array builder replaced, kept as its reference."""
    q, K = m.q, m.K
    inside = (np.arange(2 ** K)[:, None] >> np.arange(K) & 1).astype(bool)
    cells = np.argwhere(inside[:, None, :] & (m.u > 0.0))
    S, I, F = cells.T
    rows = []
    ends = (2 ** K + np.searchsorted(S * q + I, np.arange(q, 2 ** K * q + 1))).tolist()
    for key, (lo, hi) in enumerate(zip(ends, ends[1:]), start=q):
        coef = {key // q: -1.0}
        for col in range(lo, hi):
            coef[col] = 1.0
        rows.append((coef, "=", 0.0))
    by_fc = (2 ** K + np.lexsort((S, I, F))).reshape(-1, 2 ** (K - 1)).tolist()
    for cols, u in zip(by_fc, m.u.T[m.u.T > 0.0].tolist()):
        rows.append((dict.fromkeys(cols, 1.0), "=", u))
    for k in range(K):
        coef = dict.fromkeys(np.flatnonzero(inside[:, k]).tolist(), 1.0)
        coef[0] = -float(m.y[k])
        rows.append((coef, "<=", 0.0))
    rows.append((dict.fromkeys(range(1, 2 ** K), 1.0), "=", 1.0))
    c = np.zeros(2 ** K + len(cells))
    c[0] = 1.0
    return LPProblem(c=c, constraints=rows), cells


def subset_battery():
    """Seeded dense and sparse matrices, and edge cases: q = 1, K = 1, a
    one-hot matrix, and zero columns (y_k = 0, whose -0.0 alpha
    coefficient must survive)."""
    gen = np.random.default_rng(20260105)
    out = [(f"{'sparse' if sp else 'dense'}_q{q}_k{K}", random_instance(gen, q, K, sparse=sp))
           for q, K, sp in ((1, 2, False), (3, 3, True), (4, 5, True), (5, 4, False), (2, 6, True), (6, 7, True))]
    out += [("q1_k1", validate([[1.0]])), ("q3_k1", validate([[1.0], [1.0], [1.0]])),
            ("one_hot", validate([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),
            ("zero_column", validate([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]])),
            ("zero_columns", validate([[0.0, 0.3, 0.0, 0.7]]))]
    return out


SUBSET_BATTERY = subset_battery()


@pytest.mark.parametrize("name,m", SUBSET_BATTERY, ids=[name for name, _ in SUBSET_BATTERY])
def test_subset_lp_arrays_match_the_row_builder(name, m):
    problem, idx = build_lp(m)
    ref, cells = rows_subset_lp(m)
    assert_same_lp(problem, ref)
    assert np.array_equal(idx.cells, cells)
    if not m.y.all():
        # the alpha coefficient of a closed FC's usage row is -0.0, kept
        alpha = problem.A.tocsc()[:, 0]
        assert np.signbit(alpha.data).sum() == m.K


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


# a perfbench-style triangle: items 0-2 pairwise share FCs 0, 2 and 4, an
# odd cycle that forces alpha* > 1; the other two items sit on two FCs each
TRIANGLE = [[0.45, 0.0, 0.55, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.62, 0.0, 0.38, 0.0],
            [0.33, 0.0, 0.0, 0.0, 0.67, 0.0],
            [0.0, 0.7, 0.0, 0.0, 0.0, 0.3],
            [0.0, 0.0, 0.25, 0.75, 0.0, 0.0]]


def solution_text_instances():
    """The MPS-pinned instances plus the edges: q = 1 and K = 1, an
    instance with alpha* = 1 and a triangle with alpha* > 1."""
    yield from digest_subset_instances()
    yield "q1_k1", validate([[1.0]])
    yield "alpha_one", validate([[0.6, 0.4], [0.3, 0.7]])
    yield "triangle", validate(TRIANGLE)


# SHA-256 of write_solution's text for each instance above, recorded before
# the subset LP moved onto one column table; the zero_column text holds -0.0
SOLUTION_TEXT_SHA256 = {
    "sparse_q3_k3": "d930592b87146633b709673b82745532b6797f5f72a7a27762e2683c1ea4881b",
    "sparse_q5_k4": "4d00fdc35c2774c9f0305ac2e284985d3347bf519e4738563636f2f8ece49263",
    "sparse_q4_k5": "7df5c5b91a9ea27525e864554d6a3bbc44321abfda29c26c164093c16588ab64",
    "dense_q2_k3": "eb39287f19dc09032a296a79ac44f224e2a8cbddc6e38addaa99018dde09d28d",
    "zero_column": "60cefb005d3b3c31876455408613e25b09039f7e283ece457d4fbbfed4032855",
    "q1_k1": "ee9f9e9cb89f7aae6481c8e4343403e225dfe925b9d7ae9b5d86fbb76c7fa300",
    "alpha_one": "881e42eb60375b49fff0ec438a5be51b723e16e319f89a21ee903ea67b3f41b9",
    "triangle": "99d6e3c2b04ab943f4777fa9a6a14e9ff60e534d7e5a5975c55873cee8e306e2",
}


def test_solution_text_is_pinned():
    got, alphas = {}, {}
    for name, m in solution_text_instances():
        sol = solve_optimal_alpha(m)
        buf = io.StringIO()
        write_solution(sol, buf)
        got[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        alphas[name] = sol.alpha
    assert got == SOLUTION_TEXT_SHA256
    assert alphas["alpha_one"] == pytest.approx(1.0, abs=1e-9)
    assert alphas["triangle"] > 1.1


def test_array_sums_match_loop_reference():
    # usage and the per-subset item masses against the per-mask loops they
    # replaced, which add in the same order
    for _, m in solution_text_instances():
        sol = solve_optimal_alpha(m)
        mass = {tuple(c): v for c, v in zip(sol.cells.tolist(), sol.mass.tolist())}
        usage = np.zeros(sol.K)
        item_mass = np.zeros((2 ** sol.K, sol.q))
        for mask in range(1, 2 ** sol.K):
            members = [k for k in range(sol.K) if mask >> k & 1]
            usage[members] += sol.z[mask]
            for i in range(sol.q):
                item_mass[mask, i] = sum(mass.get((mask, i, k), 0.0) for k in members)
        assert np.array_equal(sol.usage, usage)
        assert np.array_equal(sol.item_mass, item_mass)


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
        alpha=sol.alpha, q=sol.q, z=sol.z * 0.5, cells=sol.cells, mass=sol.mass,
    )
    with pytest.raises(SolverFailure):
        bad.verify(validate([[0.3, 0.7]]))


@pytest.mark.parametrize("other", [[[0.2, 0.3, 0.5]], [[0.3, 0.7], [0.6, 0.4]]])
def test_verify_rejects_another_shape(other):
    # an instance with another K, and one with another q
    sol = solve_optimal_alpha(validate([[0.3, 0.7]]))
    with pytest.raises(SolverFailure, match="does not fit"):
        sol.verify(validate(other))


# q = 1, K = 3, alpha = 2: every subset sum, marginal and usage checks out,
# but three conditional masses are negative
NEGATIVE_MASS_TEXT = """2.0
3 0.3333333333333333
5 0.3333333333333333
6 0.3333333333333334
0 0 3 -0.1
1 0 3 0.43333333333333335
0 0 5 0.43333333333333335
2 0 5 -0.1
1 0 6 -0.1
2 0 6 0.43333333333333335
"""


def test_verify_rejects_negative_mass():
    sol = read_solution(io.StringIO(NEGATIVE_MASS_TEXT))
    with pytest.raises(SolverFailure, match="negative"):
        sol.verify(validate([[1 / 3, 1 / 3, 1 / 3]]))


# q = 1, K = 2 on [[0.5, 0.5]]: z({0}) = z({1}) = 0.5 and each FC carries its half
HALVES_TEXT = "1.0\n1 0.5\n2 0.5\n0 0 1 0.5\n1 0 2 0.5\n"


def test_verify_accepts_halves():
    read_solution(io.StringIO(HALVES_TEXT)).verify(validate([[0.5, 0.5]]))


@pytest.mark.parametrize("cells, match", [
    ("1 0 1 0.5\n0 0 2 0.5\n", "not in its subset"),       # FCs swapped between subsets
    ("0 0 1 0.5\n1 0 2 0.5\n1 0 1 0.0\n", "not in its subset"),
    ("0 0 1 0.5\n1 0 2 0.5\n0 -1 1 0.0\n", "out of range"),  # negative item
    ("0 0 1 0.5\n1 0 2 0.5\n5 0 1 0.0\n", "out of range"),   # FC 5 of K = 2
    ("0 0 1 0.5\n1 0 2 0.5\n-1 0 1 0.0\n", "out of range"),  # negative FC
    ("0 0 1 0.5\n1 0 2 0.5\n0 0 4 0.0\n", "out of range"),   # mask 4 of K = 2
])
def test_verify_rejects_bad_cells(cells, match):
    sol = read_solution(io.StringIO("1.0\n1 0.5\n2 0.5\n" + cells))
    with pytest.raises(SolverFailure, match=match):
        sol.verify(validate([[0.5, 0.5]]))


def test_verify_rejects_an_item_beyond_q():
    sol = read_solution(io.StringIO(HALVES_TEXT))
    bad = OptimalSchemeSolution(alpha=1.0, q=1, z=sol.z, cells=sol.cells + [0, 1, 0],
                                mass=sol.mass)
    with pytest.raises(SolverFailure, match="out of range"):
        bad.verify(validate([[0.5, 0.5]]))


def test_sampling_single_subset():
    sol = read_solution(io.StringIO(
        "1.0\n1 0.0\n2 0.0\n3 1.0\n"
        "0 0 3 0.5\n1 0 3 0.5\n0 1 3 0.2\n1 1 3 0.8\n"
    ))
    assert (sol.K, sol.q) == (2, 2)
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
    # (unlisted subsets read as z = 0)
    sol = read_solution(io.StringIO("1.0\n15 1.0\n0 0 15 0.34\n1 0 15 0.56\n2 0 15 0.10\n"))
    assert (sol.K, sol.q) == (4, 1)
    assert sample_optimal(sol, UnitUniforms(0)).z.tolist() == [2]


def loop_sample(s, rng):
    """One draw by the per-item searchsorted loop, the reference sampler."""
    pos = min(int(np.searchsorted(s.z_cdf, rng.uniform(), side="left")), len(s.support) - 1)
    mask = int(s.support[pos])
    members = [k for k in range(s.K) if mask >> k & 1]
    mass = {tuple(c): v for c, v in zip(s.cells.tolist(), s.mass.tolist())}
    draws = rng.uniform(s.q)
    z = np.empty(s.q, dtype=np.int64)
    for i in range(s.q):
        w = np.array([mass.get((mask, i, k), 0.0) for k in members])
        cdf = np.cumsum(w / w.sum())
        z[i] = members[min(int(np.searchsorted(cdf, draws[i], side="left")), len(members) - 1)]
    return z


def test_sampling_matches_loop_reference():
    gen = np.random.default_rng(11)
    battery = [random_instance(gen, 4, 4, sparse=True) for _ in range(8)]
    battery += [m for _, m in solution_text_instances()]
    for m in battery:
        sol = solve_optimal_alpha(m)
        r1, r2 = RandomStream(3), RandomStream(3)
        for _ in range(200):
            assert np.array_equal(sample_optimal(sol, r1).z, loop_sample(sol, r2))
        assert r1.position == r2.position


def test_sampling_degenerate_subset():
    sol = OptimalSchemeSolution(alpha=1.0, q=1, z=np.array([0.0, 1.0]),
                                cells=np.zeros((0, 3), dtype=np.int64), mass=np.zeros(0))
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
    assert np.array_equal(sol2.z, sol.z)
    assert np.array_equal(sol2.cells, sol.cells)
    assert np.array_equal(sol2.mass, sol.mass)
    assert (sol2.K, sol2.q) == (sol.K, sol.q)


def test_solution_text_is_byte_stable():
    sol = solve_optimal_alpha(validate([[0.6, 0.4], [0.3, 0.7]]))
    a, b = io.StringIO(), io.StringIO()
    write_solution(sol, a)
    write_solution(sol, b)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("\n  \n", 1),
    ("alpha\n1 1.0\n", 1),
    ("1.0 2.0\n1 1.0\n", 1),
    ("1.0\n1 one\n", 2),
    ("1.0\n\n1 1.0\n0 0 1 x\n", 4),     # blank lines count
    ("1.0\n1 1.0\n0 0.5 1 1.0\n", 3),     # a fractional index
    ("1.0\n1 1.0 2\n", 2),
    ("1.0\n0 1.0\n", 2),                 # the empty subset has no z
    ("1.0\n1 0.5\n1 0.5\n", 3),
    ("1.0\n1 1.0\n0 0 1 0.5\n0 0 1 0.5\n", 4),
])
def test_read_solution_reports_the_line(text, line):
    with pytest.raises(ParseError) as info:
        read_solution(io.StringIO(text))
    assert info.value.line == line
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"line {line}: ")


def test_read_solution_sorts_cells_and_fills_masks():
    text = "2.0\n3 1.0\n1 1 3 0.8\n0 0 3 0.5\n0 1 3 0.2\n1 0 3 0.5\n"
    sol = read_solution(io.StringIO(text))
    assert sol.z.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert sol.cells.tolist() == [[3, 0, 0], [3, 0, 1], [3, 1, 0], [3, 1, 1]]
    assert sol.mass.tolist() == [0.5, 0.5, 0.2, 0.8]
    sol.verify(validate([[0.5, 0.5], [0.2, 0.8]]))
