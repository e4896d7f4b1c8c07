import hashlib
import io
import math

import numpy as np
import pytest

from corround import simplex
from corround.errors import CapExceeded, SolverFailure
from corround.optimal import (
    OptimalSchemeSolution,
    build_lp,
    read_solution,
    sample_optimal,
    solve_optimal_alpha,
    write_solution,
)
from corround.rounding import ParseError, guarantee_dilate, guarantee_force_open, validate
from corround.setcover import hard_instance, marginals_from_fractional_cover
from corround.simplex import LPProblem
from corround.streams import RandomStream

from conftest import (
    UnitUniforms,
    assert_same_lp,
    live_subset_lp,
    mps_sha256,
    random_instance,
    solve_live_subset_lp,
)


def test_build_counts_q1_k2():
    m = validate([[0.3, 0.7]])
    problem, _ = build_lp(m)
    # q = 1, K = 2: alpha + z over {1},{2},{1,2} + the free cells. The item
    # meets {1} and {2} in one FC each, so those two cells are forced onto
    # their z; only {1,2}'s two cells are free: n = 1 + 3 + 2
    assert problem.n == 1 + 3 + 2
    # the oracle keeps a column per cell (1 + 1 + 2)
    assert live_subset_lp(m)[0].n == 8


def test_build_counts_q2_k2_dense():
    m = validate([[0.6, 0.4], [0.3, 0.7]])
    problem, _ = build_lp(m)
    masks = 3
    coverage = 1 * m.q            # only {1,2} meets an item in two FCs
    marginal = m.q * m.K          # all entries positive
    usage = m.K
    total = 1
    assert len(problem.constraints) == coverage + marginal + usage + total
    free = m.q * 2                # per item: {1,2}'s two cells; {1}, {2} forced
    assert problem.n == 1 + masks + free
    # the oracle: a cover row per (subset, item), a column per cell
    oracle, _ = live_subset_lp(m)
    assert len(oracle.constraints) == masks * m.q + marginal + usage + total
    assert oracle.n == 1 + masks + m.q * (1 + 1 + 2)


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


def live_subsets(m):
    """The nonempty subsets that meet every item's support, tested one
    subset, item and FC at a time."""
    return [S for S in range(1, 2 ** m.K)
            if all(any(S >> k & 1 and m.u[i, k] > 0.0 for k in range(m.K)) for i in range(m.q))]


def live_rows_subset_lp(m):
    """rows_subset_lp over the live subsets only: the coverage rows and the
    z and u columns of every other subset dropped, the columns left
    renumbered in order. Returns the problem, the live masks and the kept
    rows of the full LP's cells."""
    full, cells = rows_subset_lp(m)
    live = live_subsets(m)
    n_sub, is_live = 2 ** m.K, set(live)
    kept = [r for r, S in enumerate(cells[:, 0].tolist()) if S in is_live]
    col = {0: 0, **{S: 1 + j for j, S in enumerate(live)},
           **{n_sub + r: 1 + len(live) + j for j, r in enumerate(kept)}}
    # the first (2^K - 1) q rows cover item t % q on subset t // q + 1
    rows = [({col[k]: v for k, v in coef.items() if k in col}, rel, rhs)
            for t, (coef, rel, rhs) in enumerate(full.constraints)
            if t >= (n_sub - 1) * m.q or t // m.q + 1 in is_live]
    c = np.zeros(len(col))
    c[0] = 1.0
    return LPProblem(c=c, constraints=rows), np.array(live, dtype=np.int64), cells[kept]


def forced_rows_subset_lp(m):
    """live_rows_subset_lp with its forced cells substituted one cell at a
    time: where a cover row holds a single cell, that row goes and z(S)
    takes the cell's place in its marginal row; the cell columns left are
    renumbered in order. Returns the problem, the live masks, the cells and
    each cell's column."""
    ref, live, cells = live_rows_subset_lp(m)
    rows = ref.constraints
    n_cover, first = len(live) * m.q, 1 + len(live)
    dropped, col = set(), {}
    for r, (S, i, k) in enumerate(cells.tolist()):
        t = live.tolist().index(S) * m.q + i   # the cover row of (S, i)
        if len(rows[t][0]) > 2:                # z and two or more cells
            continue
        assert rows[t][0] == {1 + t // m.q: -1.0, first + r: 1.0}
        dropped.add(t)
        col[first + r] = 1 + t // m.q
        [coef] = [coef for coef, _, _ in rows[n_cover:] if first + r in coef]
        coef[1 + t // m.q] = coef.pop(first + r)
    free = [first + r for r in range(len(cells)) if first + r not in col]
    col.update({old: first + j for j, old in enumerate(free)})
    col.update({j: j for j in range(first)})
    kept = [({col[j]: v for j, v in coef.items()}, rel, rhs)
            for t, (coef, rel, rhs) in enumerate(rows) if t not in dropped]
    c = np.zeros(first + len(free))
    c[0] = 1.0
    return (LPProblem(c=c, constraints=kept), live, cells,
            np.array([col[first + r] for r in range(len(cells))], dtype=np.int64))


@pytest.mark.parametrize("name,m", SUBSET_BATTERY, ids=[name for name, _ in SUBSET_BATTERY])
def test_subset_lp_arrays_match_the_substituted_row_builder(name, m):
    problem, idx = build_lp(m)
    ref, live, cells, col = forced_rows_subset_lp(m)
    assert_same_lp(problem, ref)
    assert np.array_equal(idx.live, live)
    assert np.array_equal(idx.cells, cells)
    assert np.array_equal(idx.col, col)
    if not m.y.all():
        alpha = problem.A.tocsc()[:, 0]
        assert np.signbit(alpha.data).sum() == m.K


@pytest.mark.parametrize("name,m", SUBSET_BATTERY, ids=[name for name, _ in SUBSET_BATTERY])
def test_subset_lp_arrays_match_the_row_builder(name, m):
    # the oracle LP, a column per cell, against the rows it was built from
    problem, idx = live_subset_lp(m)
    ref, live, cells = live_rows_subset_lp(m)
    assert_same_lp(problem, ref)
    assert np.array_equal(idx.live, live)
    assert np.array_equal(idx.cells, cells)
    assert problem.n == 1 + live.size + len(cells)
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


# SHA-256 of write_lp's text for each oracle LP (live_subset_lp) above.
# dense_q2_k3 was recorded before the subset LP builder and LPProblem's
# conversion were rewritten; the others, whose LPs drop the subsets that
# miss some item's support, when the builder moved onto the live subsets
SUBSET_MPS_SHA256 = {
    "sparse_q3_k3": "bd3411bec64787ef4a4ddaf18184e53ce380924da441593a1714fbf7f4f88c1f",
    "sparse_q5_k4": "57b149f87c07dc781c533a68665f3b94983b51053a73e7faf752af5f158d8960",
    "sparse_q4_k5": "7c270ee69d858f9921fdc6dfcf287cdef4c5287360cfc9a5816e58153bf25f76",
    "dense_q2_k3": "c10a4bc513e18620233a15f003d6c81a14a02e4bb84c7a61f1589ec23676528c",
    "zero_column": "a08128a41b186e1cd419e113f9708e5de7a04fd02094ce9d7d6789e1e1e892c7",
}


# SHA-256 of write_lp's text for each build_lp LP above, recorded when the
# forced cells left the LP
REDUCED_MPS_SHA256 = {
    "sparse_q3_k3": "5fef688dd9e6af8c8ee4f5aa1511fd3a965ba3e0efa7b514a78eab2a65264ff8",
    "sparse_q5_k4": "862d8b75031c8a6e22fadc95a7e643e22c809c16b0aec622be41dd116e07bca3",
    "sparse_q4_k5": "cd9e69dc42785fcf41e1b46c01c182956b180b5fe9895bf0033024412154a249",
    "dense_q2_k3": "9343303e0593f120a557f5edbc734443d2122dbfb8736518ffc6b1a25e16b145",
    "zero_column": "d9a6b425588ade4fc0e495c090fe1d9a046ffa304d0b745b0ab423593b059246",
}


def test_subset_lp_mps_text_is_pinned():
    got = {name: mps_sha256(live_subset_lp(m)[0]) for name, m in digest_subset_instances()}
    assert got == SUBSET_MPS_SHA256
    got = {name: mps_sha256(build_lp(m)[0]) for name, m in digest_subset_instances()}
    assert got == REDUCED_MPS_SHA256


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


# SHA-256 of write_solution's text for each instance above, solved on the
# oracle LP (solve_live_subset_lp). The dense ones were recorded before the
# subset LP moved onto one column table; the sparse ones, whose LPs reach
# another optimal vertex over the live subsets, when the builder moved onto
# them. The zero_column text holds -0.0
SOLUTION_TEXT_SHA256 = {
    "sparse_q3_k3": "e6ae2363301362867a113f568228661ba83c1392b5262afd90616d8554d8c6fb",
    "sparse_q5_k4": "5c6fc37ff370f860f9c2a13cb3fe29f6a78604e4638985f969079390a0281d8f",
    "sparse_q4_k5": "ae6d04d408084db5c515eb255aca2d340f3d7c0a0a8474ce8337e0de3a62aae6",
    "dense_q2_k3": "eb39287f19dc09032a296a79ac44f224e2a8cbddc6e38addaa99018dde09d28d",
    "zero_column": "55f4673737315ca03c6f2fbfaf0c50fe7f75dbfc94ca553ef31d3e623ce63596",
    "q1_k1": "ee9f9e9cb89f7aae6481c8e4343403e225dfe925b9d7ae9b5d86fbb76c7fa300",
    "alpha_one": "881e42eb60375b49fff0ec438a5be51b723e16e319f89a21ee903ea67b3f41b9",
    "triangle": "d1b7d6f565b17b334ff94f42283216568c193fb4d68555402babe7fa3c3433b2",
}


# the same for solve_optimal_alpha, recorded when the forced cells left the
# LP. Every text but q1_k1's changed then: HiGHS reaches another optimal
# vertex of the reduced LP (on the triangle z moves by up to 0.3), or the
# same one with other last bits
REDUCED_SOLUTION_TEXT_SHA256 = {
    "sparse_q3_k3": "2c254488fd42c60f1c8def218941864f4e4587b9acc0d412398e697822988890",
    "sparse_q5_k4": "8f215fc67b7b1431dedcb8ee9283b9f6a5e3046eedd9a39afe796b6037b32798",
    "sparse_q4_k5": "cdb4c6b0f4c22744034b9788d7ede937237d286cc1ed7ac81fd50ae0fb62f80b",
    "dense_q2_k3": "a5ceca583076ab4ed35de9cd02634c91fb75897cd8d16158083bb24e990a0e9c",
    "zero_column": "089791d164d3f8286a9446f00ac056fad44cd0ae1fc327043c8a77b3f60d3f3f",
    "q1_k1": "ee9f9e9cb89f7aae6481c8e4343403e225dfe925b9d7ae9b5d86fbb76c7fa300",
    "alpha_one": "b21c144a6b7974d00f42a0eebe4947f97665a789bb9bf0c82319f530e166804a",
    "triangle": "45c9ffa97b689f3a1634eac09ac35cb50e421f1c88096acb20693f06610deff1",
}


def solution_sha256(sol) -> str:
    buf = io.StringIO()
    write_solution(sol, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_solution_text_is_pinned():
    old = {name: solve_live_subset_lp(m) for name, m in solution_text_instances()}
    assert {name: solution_sha256(sol) for name, sol in old.items()} == SOLUTION_TEXT_SHA256
    assert old["alpha_one"].alpha == pytest.approx(1.0, abs=1e-9)
    assert old["triangle"].alpha > 1.1
    new = {name: solve_optimal_alpha(m) for name, m in solution_text_instances()}
    assert {name: solution_sha256(sol) for name, sol in new.items()} == REDUCED_SOLUTION_TEXT_SHA256


@pytest.mark.parametrize("name,m", list(solution_text_instances()),
                         ids=[name for name, _ in solution_text_instances()])
def test_changed_solution_texts_are_both_optimal(name, m):
    # where the text changed with the reduced LP, the oracle's solution and
    # the new one both verify, at the same alpha
    old, new = solve_live_subset_lp(m), solve_optimal_alpha(m)
    assert (SOLUTION_TEXT_SHA256[name] == REDUCED_SOLUTION_TEXT_SHA256[name]) == (name == "q1_k1")
    old.verify(m)
    new.verify(m)
    assert new.alpha == pytest.approx(old.alpha, abs=1e-9)


def triangle_instance(gen, q, K, d):
    """A perfbench-style subset-LP instance: items 0-2 pairwise share one of
    three random FCs, an odd cycle, and every other item sits on d random FCs."""
    u = np.zeros((q, K))
    a, b, c = gen.choice(K, size=3, replace=False)
    for i, (x, y) in enumerate(((a, b), (b, c), (a, c))):
        w = gen.uniform(0.3, 0.7)
        u[i, x], u[i, y] = w, 1.0 - w
    for i in range(3, q):
        u[i, gen.choice(K, size=d, replace=False)] = gen.dirichlet(np.ones(d))
    return validate(u)


def oracle_battery():
    """SUBSET_BATTERY, TRIANGLE, perfbench-style triangles whose alpha* > 1
    (q = 5, K = 7 and K = 5, d = 2) and seeded dense and sparse instances
    with q = 1-6 and K = 1-8."""
    out = SUBSET_BATTERY + [("triangle", validate(TRIANGLE))]
    gen = np.random.default_rng(20261019)
    for K, count in ((7, 4), (5, 2)):
        found = 0
        while found < count:
            m = triangle_instance(gen, 5, K, 2)
            if simplex.solve(rows_subset_lp(m)[0]).x[0] > 1.0 + 1e-6:
                out.append((f"triangle_q5_k{K}_{found}", m))
                found += 1
    for t in range(32):
        q, K, sp = int(gen.integers(1, 7)), int(gen.integers(1, 9)), bool(t % 2)
        out.append((f"random{t}_{'sparse' if sp else 'dense'}_q{q}_k{K}", random_instance(gen, q, K, sparse=sp)))
    return out


ORACLE_BATTERY = oracle_battery()


@pytest.mark.parametrize("name,m", ORACLE_BATTERY, ids=[name for name, _ in ORACLE_BATTERY])
def test_alpha_matches_the_full_lp(name, m):
    # the LP over every nonempty subset is the oracle: the live LP reaches
    # its optimum, and the oracle's optimum is 0 on every column the live
    # LP drops; on a dense instance it and the live LP with a column per
    # cell (live_subset_lp) are the same arrays
    full, cells = rows_subset_lp(m)
    ref = simplex.solve(full)
    assert ref.status == simplex.OPTIMAL
    assert solve_optimal_alpha(m).alpha == pytest.approx(ref.x[0], rel=1e-9)
    is_live = set(live_subsets(m))
    dead = [S for S in range(1, 2 ** m.K) if S not in is_live]
    dead += [2 ** m.K + r for r, S in enumerate(cells[:, 0].tolist()) if S not in is_live]
    assert np.abs(ref.x[dead]).max(initial=0.0) <= 1e-12
    if m.u.all():
        assert not dead
        assert_same_lp(live_subset_lp(m)[0], full)


@pytest.mark.parametrize("name,m", ORACLE_BATTERY, ids=[name for name, _ in ORACLE_BATTERY])
def test_forced_cells_carry_their_subset_z(name, m):
    # a cell is forced where its item meets its subset in that FC alone:
    # its column is the subset's z column and its mass is z(S) bit for bit;
    # every other (S, i) pair keeps exactly one cover row, -z(S) plus its cells
    problem, idx = build_lp(m)
    S, I, _ = idx.cells.T
    key = S * m.q + I
    meets = {k: n for k, n in zip(*np.unique(key, return_counts=True))}
    forced = np.array([meets[k] == 1 for k in key.tolist()], dtype=bool)
    z_col = 1 + np.searchsorted(idx.live, S)
    assert np.array_equal(idx.col[forced], z_col[forced])
    assert np.array_equal(idx.col[~forced], 1 + idx.live.size + np.arange(np.count_nonzero(~forced)))
    sol = solve_optimal_alpha(m)
    assert sol.mass[forced].tobytes() == sol.z[S[forced]].tobytes()
    shared = sorted(k for k, n in meets.items() if n > 1)
    assert problem.rhs.size == len(shared) + np.count_nonzero(m.u) + m.K + 1
    for t, k in enumerate(shared):
        idx_t, val_t = problem.row_arrays(t)
        want = {1 + int(np.searchsorted(idx.live, k // m.q)): -1.0}
        want.update(dict.fromkeys(idx.col[key == k].tolist(), 1.0))
        assert dict(zip(idx_t.tolist(), val_t.tolist())) == want
        assert problem.relations[t] == simplex.EQ and problem.rhs[t] == 0.0


def seeded_triangles(K, count, seed=20261021):
    gen = np.random.default_rng([seed, K])
    return [triangle_instance(gen, 5, K, 2) for _ in range(count)]


ORACLE_CASES = ORACLE_BATTERY + [(f"seeded_triangle_k{K}_{t}", m) for K in (5, 7, 8)
                                 for t, m in enumerate(seeded_triangles(K, 20))]


@pytest.mark.parametrize("name,m", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
def test_alpha_matches_the_oracle_lp(name, m):
    # the reduced LP against the LP with a column per cell: the same alpha;
    # both solvers verify the solution they return
    new, old = solve_optimal_alpha(m), solve_live_subset_lp(m)
    assert new.alpha == pytest.approx(old.alpha, abs=1e-9)


def test_solution_text_lists_live_cells_and_reads_the_full_layout():
    m = validate(TRIANGLE)
    sol = solve_optimal_alpha(m)
    full_cells = rows_subset_lp(m)[1]
    assert len(sol.cells) < len(full_cells)
    buf = io.StringIO()
    write_solution(sol, buf)
    assert len(buf.getvalue().splitlines()) == 1 + (2 ** m.K - 1) + len(sol.cells)
    buf.seek(0)
    back = read_solution(buf)
    assert back.alpha == sol.alpha
    assert np.array_equal(back.z, sol.z)
    assert np.array_equal(back.cells, sol.cells)
    assert np.array_equal(back.mass, sol.mass)
    # the full layout, with a zero-mass line for each cell of a subset
    # that misses some item's support, reads, checks out and draws the same
    mass = dict(zip(map(tuple, sol.cells.tolist()), sol.mass.tolist()))
    full = OptimalSchemeSolution(alpha=sol.alpha, q=sol.q, z=sol.z, cells=full_cells,
                                 mass=np.array([mass.get(c, 0.0) for c in map(tuple, full_cells.tolist())]))
    buf = io.StringIO()
    write_solution(full, buf)
    assert len(buf.getvalue().splitlines()) == 1 + (2 ** m.K - 1) + len(full_cells)
    buf.seek(0)
    old = read_solution(buf)
    old.verify(m)
    assert np.array_equal(old.cells, full_cells)
    assert np.array_equal(old.mass, full.mass)
    r1, r2 = RandomStream(7), RandomStream(7)
    for _ in range(200):
        assert np.array_equal(sample_optimal(old, r1).z, sample_optimal(sol, r2).z)


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


@pytest.mark.parametrize("d,K", [(1, 4), (2, 4), (2, 6), (3, 6), (2, 8), (3, 8), (2, 10), (3, 9)])
def test_alpha_on_the_lower_bound_family(d, K):
    # one item per d-subset of K FCs, y = 1/d: alpha* is d - d(d-1)/K, the
    # paper's lower bound met exactly, and within min(1 + ln q, d)
    m = marginals_from_fractional_cover(*hard_instance(d, K))
    alpha = solve_optimal_alpha(m).alpha
    assert alpha == pytest.approx(d - d * (d - 1) / K, abs=1e-9)
    assert alpha <= min(1.0 + math.log(m.q), d) + 1e-9


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
    with pytest.raises(SolverFailure, match="subset probabilities sum to 0.5, not 1"):
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
    # mask 4 sizes z for K = 3, which does not fit an instance with K = 2
    ("0 0 1 0.5\n1 0 2 0.5\n0 0 4 0.0\n", "does not fit q = 1, K = 2"),
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


def test_verify_rejects_a_mask_beyond_z():
    # read_solution sizes z to hold every mask it reads, so only a solution
    # built by hand can carry a cell whose subset z has no entry for
    sol = read_solution(io.StringIO(HALVES_TEXT))
    bad = OptimalSchemeSolution(alpha=1.0, q=1, z=sol.z, cells=sol.cells + [4, 0, 0],
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
    with pytest.raises(SolverFailure, match="subset 1 has z = 1.0 but no mass for item 0"):
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
    ("1.0\n1 1.0\n0 0 0 1.0\n", 3),       # a cell of the empty subset
    ("1.0\n1 1.0\n0 0 1 1.0\n0 0 -1 0.5\n", 4),
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
    # z spans the masks of the cell lines too: mask 3 has no z line, so z = 0
    sol = read_solution(io.StringIO("1.0\n1 1.0\n0 0 3 1.0\n"))
    assert sol.z.tolist() == [0.0, 1.0, 0.0, 0.0] and sol.K == 2
    with pytest.raises(SolverFailure, match="subset 1 has z = 1.0 but no mass for item 0"):
        sample_optimal(sol, RandomStream(0))
    with pytest.raises(SolverFailure, match="item 0 mass 0.0 != z = 1.0 on subset 1$"):
        sol.verify(validate([[1.0, 0.0]]))
