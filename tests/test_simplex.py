import dataclasses
import io
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from corround import simplex
from corround.fulfillment import build_dlp, solve_dlp
from corround.instances import GeneratorConfig, build_instance
from corround.optimal import build_lp
from corround.rounding import validate
from corround.simplex import (
    FEAS_TOL,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    DimensionMismatch,
    LPProblem,
    SolverNumericalError,
    solve,
)

from conftest import (
    colwise_solve,
    linprog_highs_ds,
    linprog_optimum,
    lp_arrays,
    random_instance,
    vertex_enumeration_optimum,
    write_lp,
)

INF = float("inf")


def test_lower_and_upper_bound_rows():
    p = LPProblem(
        c=np.array([1.0]),
        constraints=[(np.array([1.0]), ">=", 3.0), (np.array([1.0]), "<=", 10.0)],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(3.0, abs=1e-9)


def test_unbounded():
    assert solve(LPProblem(c=np.array([-1.0]), constraints=[])).status == UNBOUNDED


def test_infeasible():
    p = LPProblem(
        c=np.array([0.0]),
        constraints=[(np.array([1.0]), "<=", 1.0), (np.array([1.0]), ">=", 2.0)],
    )
    assert solve(p).status == INFEASIBLE


def test_equalities_and_free_variables():
    p = LPProblem(
        c=np.array([2.0, 1.0]),
        constraints=[(np.array([1.0, 1.0]), "=", 1.0)],
        bounds=[(0.0, INF), (-INF, INF)],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(1.0, abs=1e-9)
    assert s.x[0] == pytest.approx(0.0, abs=1e-9)


def test_dict_rows_and_finite_boxes():
    p = LPProblem(
        c=np.array([2.0, 3.0]),
        constraints=[({0: 1.0, 1: 1.0}, ">=", 4.0)],
        bounds=[(0.0, 3.0), (0.0, 3.0)],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(9.0, abs=1e-9)
    assert np.allclose(s.x, [3.0, 1.0], atol=1e-9)


def test_negative_lower_bounds():
    p = LPProblem(
        c=np.array([1.0]),
        constraints=[(np.array([1.0]), ">=", -5.0)],
        bounds=[(-INF, INF)],
    )
    s = solve(p)
    assert s.status == OPTIMAL and s.objective == pytest.approx(-5.0)


def test_crossed_bounds_infeasible():
    p = LPProblem(c=np.array([1.0]), constraints=[], bounds=[(2.0, 1.0)])
    assert solve(p).status == INFEASIBLE


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0, 2.0]), constraints=[(np.array([1.0]), "<=", 1.0)])
    # a dense row that is a scalar or not flat names its row too
    for coef in (1.0, np.ones((1, 2))):
        with pytest.raises(DimensionMismatch, match="row 0: shape"):
            LPProblem(c=np.ones(2), constraints=[(coef, "<=", 1.0)])
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[({3: 1.0}, "<=", 1.0)])
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[(np.array([1.0]), "!!", 1.0)])
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[(np.array([1.0]), "<=", INF)])
    # dict keys that are not numbers name their row
    for key in ("a", None):
        with pytest.raises(DimensionMismatch, match="row 0: column index"):
            LPProblem(c=np.ones(2), constraints=[({key: 1.0}, "<=", 1.0)])
    # fractional column keys are not truncated to a column
    with pytest.raises(DimensionMismatch, match="row 1"):
        LPProblem(c=np.zeros(3), constraints=[({0: 1.0}, "<=", 1.0), ({1.9: 1.0}, "<=", 1.0)])
    # NaN or inf in the objective or in a coefficient, dense or dict
    for bad in (math.nan, INF, -INF):
        with pytest.raises(DimensionMismatch):
            LPProblem(c=np.array([1.0, bad]), constraints=[])
        with pytest.raises(DimensionMismatch):
            LPProblem(c=np.ones(2), constraints=[({1: bad}, "<=", 1.0)])
        with pytest.raises(DimensionMismatch):
            LPProblem(c=np.ones(2), constraints=[(np.array([0.0, bad]), ">=", 1.0)])
    # NaN bounds, either side
    for bounds in ([(0.0, math.nan)], [(math.nan, 1.0)]):
        with pytest.raises(DimensionMismatch):
            LPProblem(c=np.array([-1.0]), constraints=[], bounds=bounds)
    # whole float keys still name their column
    p = LPProblem(c=np.ones(3), constraints=[({2.0: 1.0, 0: 1.0}, ">=", 1.0)])
    idx, val = p.row_arrays(0)
    assert idx.tolist() == [0, 2] and val.tolist() == [1.0, 1.0]


def test_array_entry_point_runs_the_same_checks():
    # min -x0 - x1: x0 + 2 x1 <= 4, x1 >= 1 (row 1 also holds an explicit 0)
    c, rel, rhs = np.array([-1.0, -1.0]), np.array([0, 2], dtype=np.int8), np.array([4.0, 1.0])
    A = (np.array([1.0, 2.0, 0.0, 1.0]), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    p = LPProblem.from_arrays(c, A, rel, rhs)
    rows = LPProblem(c, [({0: 1.0, 1: 2.0}, "<=", 4.0), ({1: 1.0, 0: 0.0}, ">=", 1.0)])
    assert p.A.nnz == 4 and solve(p).objective == pytest.approx(solve(rows).objective) == -3.0
    # constraints is read off A, explicit zeros included
    assert p.constraints == [({0: 1.0, 1: 2.0}, "<=", 4.0), ({0: 0.0, 1: 1.0}, ">=", 1.0)]
    assert lp_arrays(p) == lp_arrays(rows)
    values, ri, ci = A
    bad = [
        ((values, ri, np.array([0, 2, 0, 1])), rel, rhs, "row 0: column index"),      # out of range
        ((values, ri, np.array([0, 0.5, 0, 1])), rel, rhs, "row 0"),                  # not whole
        ((values, ri, np.array([0, 1, 1, 1])), rel, rhs, "row 1: column 1 given twice"),
        ((np.array([1.0, 2.0, math.nan, 1.0]), ri, ci), rel, rhs, "row 1"),           # NaN entry
        ((values, np.array([0, 0, 1]), ci), rel, rhs, "rows in"),                     # lengths differ
        ((values, np.array([0.0, 0.0, 1.0, 1.0]), ci), rel, rhs, "rows in"),          # float rows
        ((values, np.array([0, 0, 1, 2]), ci), rel, rhs, "rows in"),                  # row past m
        ((values, np.array([-1, 0, 1, 1]), ci), rel, rhs, "rows in"),                 # negative row
        (A, np.array([0, 3]), rhs, "row 1: unknown relation 3"),
        (A, np.array([0, 1.5]), rhs, "row 1: unknown relation 1.5"),
        (A, rel, np.array([4.0, INF]), "row 1: rhs must be finite"),
        (A, rel, np.array([4.0]), "relations for 1"),
    ]
    for arrays, codes, b, match in bad:
        with pytest.raises(DimensionMismatch, match=match):
            LPProblem.from_arrays(c, arrays, codes, b)
    # no entries at all, as empty lists
    empty = LPProblem.from_arrays(c, ([], [], []), rel, rhs)
    assert empty.A.shape == (2, 2) and empty.A.nnz == 0
    with pytest.raises(DimensionMismatch, match="bounds length"):
        LPProblem.from_arrays(c, A, rel, rhs, bounds=[(0.0, 1.0)])
    with pytest.raises(DimensionMismatch, match="objective"):
        LPProblem.from_arrays(np.array([-1.0, INF]), A, rel, rhs)


def test_triplets_in_any_order_build_the_same_rows():
    # shuffled triplets give the arrays of the sorted ones, bit for bit
    # (the -0.0 entry included), on a hand LP and on both builders' LPs
    c, rel, rhs = np.array([-1.0, -1.0, 0.0]), np.array([0, 2, 1], dtype=np.int8), np.zeros(3)
    A = (np.array([1.0, 2.0, -0.0, 1.0, 3.0]), np.array([0, 0, 1, 1, 2]), np.array([0, 2, 0, 1, 2]))
    dlp = build_dlp(build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1)))[0]
    subset = build_lp(random_instance(np.random.default_rng(3), 4, 5, sparse=True))[0]
    gen = np.random.default_rng(20261020)
    for p in (LPProblem.from_arrays(c, A, rel, rhs), dlp, subset):
        coo = p.A.tocoo()
        perm = gen.permutation(coo.nnz)
        shuffled = LPProblem.from_arrays(p.c, (coo.data[perm], coo.row[perm], coo.col[perm]),
                                         p.relations, p.rhs, p.bounds)
        assert lp_arrays(shuffled) == lp_arrays(p)


def test_solve_does_not_build_rows():
    problem, _ = build_dlp(build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1)))
    assert solve(problem).status == OPTIMAL
    assert "constraints" not in vars(problem)
    assert len(problem.constraints) == problem.A.shape[0]


def test_iteration_limit_status():
    p = LPProblem(
        c=np.array([1.0, 1.0]),
        constraints=[(np.array([1.0, 1.0]), "=", 2.0), (np.array([1.0, -1.0]), "=", 0.0)],
    )
    s = solve(p, max_pivots=0)
    assert s.status == ITERATION_LIMIT
    assert s.x is None and s.objective is None


def test_pivot_cap_does_not_carry_over():
    # a cap above HiGHS's largest runs uncapped instead of keeping the cap
    # of the solve before, on this thread's one solver
    p = LPProblem(
        c=np.array([1.0, 1.0]),
        constraints=[(np.array([1.0, 1.0]), "=", 2.0), (np.array([1.0, -1.0]), "=", 0.0)],
    )
    inst = build_instance(GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=1))
    for cap in (10 ** 12, 2 ** 31 - 1, 2 ** 31):
        assert solve(p, max_pivots=0).status == ITERATION_LIMIT
        assert solve(p, max_pivots=cap).status == OPTIMAL
        assert solve(p, max_pivots=0).status == ITERATION_LIMIT
        assert solve_dlp(inst, max_pivots=cap).objective == pytest.approx(solve_dlp(inst).objective)
    with pytest.raises(ValueError, match="max_pivots"):
        solve(p, max_pivots=-1)
    assert solve(p).status == OPTIMAL


def test_determinism():
    gen = np.random.default_rng(0)
    A = gen.normal(size=(6, 4))
    b = np.abs(gen.normal(size=6)) + 1.0
    p1 = LPProblem(c=gen.normal(size=4), constraints=[(A[i], "<=", b[i]) for i in range(6)],
                   bounds=[(0.0, 5.0)] * 4)
    s1 = solve(p1)
    s2 = solve(p1)
    assert s1.status == s2.status == OPTIMAL
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_residual_certification_field():
    p = LPProblem(
        c=np.array([1.0, 2.0]),
        constraints=[(np.array([1.0, 1.0]), ">=", 1.0)],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.max_violation <= 1e-7


def vertex_battery():
    """30 seeded feasible LPs over finite boxes: (problem, rows, bounds)."""
    gen = np.random.default_rng(42)
    for trial in range(30):
        n = int(gen.integers(2, 5))
        m = int(gen.integers(1, 7))
        x0 = gen.uniform(0.2, 2.5, size=n)
        rows = []
        for _ in range(m):
            a = gen.normal(size=n)
            rel = ("<=", ">=", "=")[int(gen.integers(0, 3))]
            ax = float(a @ x0)
            if rel == "<=":
                rows.append((a, rel, ax + abs(gen.normal())))
            elif rel == ">=":
                rows.append((a, rel, ax - abs(gen.normal())))
            else:
                rows.append((a, rel, ax))
        bounds = [(0.0, 3.0)] * n
        c = gen.normal(size=n)
        yield LPProblem(c=c, constraints=rows, bounds=bounds), rows, bounds


def test_vertex_enumeration_oracle_battery():
    solved = 0
    for trial, (p, rows, bounds) in enumerate(vertex_battery()):
        s = solve(p)
        assert s.status == OPTIMAL, trial
        expect = vertex_enumeration_optimum(p.c, rows, bounds)
        assert expect is not None
        assert s.objective == pytest.approx(expect, abs=1e-6), trial
        solved += 1
    assert solved == 30


def test_degenerate_problem():
    # many redundant constraints through the same vertex
    n = 3
    rows = [(np.eye(n)[i], "<=", 1.0) for i in range(n)]
    rows += [(np.ones(n), "<=", 3.0), (np.ones(n), "<=", 3.0)]
    rows += [(np.array([1.0, 1.0, 0.0]), "<=", 2.0)]
    p = LPProblem(c=-np.ones(n), constraints=rows)
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(-3.0, abs=1e-9)


def beale_lp():
    # the classic cycling instance for naive pivot rules; its optimum is
    # objective -1/20 at x = (1/25, 0, 1, 0)
    return LPProblem(
        c=np.array([-0.75, 150.0, -0.02, 6.0]),
        constraints=[
            (np.array([0.25, -60.0, -1.0 / 25.0, 9.0]), "<=", 0.0),
            (np.array([0.5, -90.0, -1.0 / 50.0, 3.0]), "<=", 0.0),
            (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
        ],
    )


def test_beale_cycling_example_terminates():
    s = solve(beale_lp(), max_pivots=10_000)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(-0.05, abs=1e-9)
    assert np.allclose(s.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def redundant_equalities_lp():
    # the second equality is a copy of the first
    return LPProblem(
        c=np.array([1.0, 1.0]),
        constraints=[
            (np.array([1.0, 1.0]), "=", 2.0),
            (np.array([1.0, 1.0]), "=", 2.0),
            (np.array([1.0, -1.0]), "<=", 0.5),
        ],
    )


def test_redundant_equalities():
    s = solve(redundant_equalities_lp())
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(2.0, abs=1e-9)


def test_write_lp_mps_sections():
    p = LPProblem(
        c=np.array([1.0, -2.0]),
        constraints=[(np.array([1.0, 1.0]), "<=", 4.0), ({1: 1.0}, "=", 1.0)],
        bounds=[(0.0, 10.0), (-INF, INF)],
    )
    buf = io.StringIO()
    write_lp(p, buf)
    text = buf.getvalue()
    for tag in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", " L  R0", " E  R1", " FR BND X1"):
        assert tag in text


def test_no_rows_finite_boxes():
    p = LPProblem(
        c=np.array([1.0, -2.0, 0.0]),
        constraints=[],
        bounds=[(-1.0, 2.0), (0.5, 3.0), (0.0, 1.0)],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(-7.0, abs=1e-12)
    assert np.allclose(s.x[:2], [-1.0, 3.0])


@pytest.mark.parametrize("rows, status", [
    ([], OPTIMAL),
    ([({}, "<=", 1.0), ({}, ">=", -2.0), ({}, "=", 0.0)], OPTIMAL),
    ([({}, "<=", -FEAS_TOL / 2), ({}, "=", FEAS_TOL / 2)], OPTIMAL),
    ([({}, "<=", -1.0)], INFEASIBLE),
    ([({}, ">=", 1.0)], INFEASIBLE),
    ([({}, "=", 2 * FEAS_TOL)], INFEASIBLE),
])
def test_no_columns_decided_without_highs(rows, status):
    # linprog rejects an empty objective; every row reads 0 <rel> rhs at x = []
    s = solve(LPProblem(c=np.empty(0), constraints=rows))
    assert s.status == status
    if status == OPTIMAL:
        assert (s.objective, s.x.shape, s.iterations) == (0.0, (0,), 0)
        assert s.max_violation <= FEAS_TOL
    else:
        assert s.x is None and s.objective is None


def test_unbounded_free_variables():
    p = LPProblem(
        c=np.array([1.0, -1.0]),
        constraints=[(np.array([1.0, 1.0]), ">=", 1.0)],
        bounds=[(-INF, INF)] * 2,
    )
    s = solve(p)
    assert s.status == UNBOUNDED
    assert s.x is None and s.objective is None


def test_infeasible_equality_system():
    p = LPProblem(
        c=np.array([1.0, 1.0]),
        constraints=[(np.array([1.0, 1.0]), "=", 1.0), (np.array([2.0, 2.0]), "=", 3.0)],
        bounds=[(-INF, INF)] * 2,
    )
    assert solve(p).status == INFEASIBLE


@pytest.mark.parametrize(
    "problem",
    [p for p, _, _ in vertex_battery()] + [beale_lp(), redundant_equalities_lp()],
)
def test_dual_certificate(problem):
    s = solve(problem)
    assert s.status == OPTIMAL
    assert s.max_violation <= FEAS_TOL
    assert s.dual_residual <= FEAS_TOL
    assert s.duality_gap <= FEAS_TOL
    # the returned duals are the certificate: c - A^T row_dual - col_dual = 0
    # and c.x = rhs.row_dual + the bound multipliers times their bounds, in
    # the signs d(objective)/d(rhs) and d(objective)/d(bound) take
    y, w = s.row_dual, s.col_dual
    assert y.shape == problem.rhs.shape and w.shape == problem.c.shape
    scale = max(1.0, float(np.abs(problem.c).max()))
    assert np.abs(problem.c - problem.A.T @ y - w).max() <= FEAS_TOL * scale
    rel = problem.relations
    assert (y[rel == 0] <= 0.0).all() and (y[rel == 2] >= 0.0).all()
    lo, hi = problem.bounds.T
    assert (w[~np.isfinite(lo)] <= 0.0).all() and (w[~np.isfinite(hi)] >= 0.0).all()
    dual_obj = problem.rhs @ y + w[w > 0.0] @ lo[w > 0.0] + w[w < 0.0] @ hi[w < 0.0]
    assert dual_obj == pytest.approx(s.objective, abs=FEAS_TOL * max(1.0, abs(s.objective)))


def test_duals_only_on_an_optimum():
    for _, problem, cap in DIFFERENTIAL:
        s = solve(problem, cap)
        assert (s.row_dual is None and s.col_dual is None) == (s.status != OPTIMAL)
    s = solve(LPProblem(c=np.empty(0), constraints=[({}, "<=", 1.0), ({}, "=", 0.0)]))
    assert s.row_dual.tolist() == [0.0, 0.0] and s.col_dual.size == 0


def corrupted_run(field):
    """`simplex._run_highs` with its optimum's x, or its "<=" rows'
    duals, pushed off, so that the certificate fails."""
    real = simplex._run_highs

    def corrupted(c, rows, row_lo, row_hi, lo, hi, max_pivots):
        status, x, row_dual, col_dual, nit = real(c, rows, row_lo, row_hi, lo, hi, max_pivots)
        if field == "x":
            x = x + 1e-3
        else:
            # the "<=" rows are the ones without a finite lower side
            row_dual = np.where(row_lo == -INF, row_dual * 1.01, row_dual)
        return status, x, row_dual, col_dual, nit

    return corrupted


@pytest.mark.parametrize("field", ["x", "marginals"])
def test_failed_certificate_raises(monkeypatch, field):
    monkeypatch.setattr(simplex, "_run_highs", corrupted_run(field))
    with pytest.raises(SolverNumericalError):
        solve(beale_lp())


def test_missing_bindings_name_the_scipy_floor():
    # a scipy without scipy.optimize._highspy._core, as before 1.15
    code = "import sys; sys.modules['scipy.optimize._highspy._core'] = None; import corround.simplex"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:") and "scipy >= 1.15" in last


# Optima recorded from the two-phase revised simplex (Devex pricing, Bland
# fallback) that this module implemented before it called HiGHS: six seeded
# small DLPs (generator seed -> objective) and four subset LPs with
# alpha* > 1 (matrix -> alpha*).
GOLDEN_DLP = {
    1: 9846.207546858093,
    2: 9504.567009826364,
    3: 9682.552590435927,
    4: 15627.511656192975,
    5: 8551.738856500942,
    6: 6260.221790843971,
}
GOLDEN_SUBSET = [
    ([[0.380, 0.211, 0.332, 0.077], [0.499, 0.002, 0.414, 0.085],
      [0.146, 0.264, 0.152, 0.438], [0.170, 0.298, 0.035, 0.497]], 1.0187353629976583),
    ([[0.495, 0.490, 0.015], [0.338, 0.331, 0.331], [0.162, 0.389, 0.449]], 1.0404463040446303),
    ([[0.129, 0.624, 0.247], [0.678, 0.101, 0.221], [0.731, 0.260, 0.009]], 1.0992509363295881),
    ([[0.141, 0.544, 0.061, 0.254], [0.501, 0.218, 0.009, 0.272],
      [0.460, 0.340, 0.145, 0.055]], 1.078659370725034),
]


def golden_lps():
    for seed, value in GOLDEN_DLP.items():
        cfg = GeneratorConfig(n=6, n_max=3, n_per=3, T=1000, J=2, K=3, seed=seed)
        yield build_dlp(build_instance(cfg))[0], value
    for u, value in GOLDEN_SUBSET:
        yield build_lp(validate(u))[0], value


@pytest.mark.parametrize("problem,value", list(golden_lps()))
def test_golden_optima_of_the_replaced_solver(problem, value):
    s = solve(problem)
    assert s.status == OPTIMAL
    assert s.objective == pytest.approx(value, rel=1e-6)
    assert s.dual_residual <= FEAS_TOL and s.duality_gap <= FEAS_TOL
    # an interior-point cross-solve, so HiGHS's simplex is not its own judge
    assert linprog_optimum(problem, "highs-ipm") == pytest.approx(value, rel=1e-6)


DESK_DLP = dict(n=20, n_max=5, n_per=5, p_carry=0.75, z_safety=0.5, T=10_000, K=5, J=1)


def shaped_lp(gen, shape):
    """A seeded LP of one shape: "eq", "le" or "ge" rows only, "free" or
    "boxed" columns under mixed rows, or an "infeasible" or "unbounded"
    one."""
    n = int(gen.integers(3, 8))
    x0 = gen.uniform(0.5, 2.0, size=n)
    bounds = None

    def rows(count, rel, slack):
        out = []
        for _ in range(count):
            a = np.where(gen.random(n) < 0.6, gen.uniform(0.1, 2.0, size=n), 0.0)
            a[gen.integers(n)] = gen.uniform(0.1, 2.0)
            out.append((a, rel, float(a @ x0) + slack * abs(gen.normal())))
        return out

    if shape == "eq":
        cons, c = rows(int(gen.integers(1, n)), "=", 0.0), gen.uniform(0.1, 1.0, size=n)
    elif shape == "le":
        cons, c = rows(int(gen.integers(2, 7)), "<=", 1.0), -gen.uniform(0.1, 1.0, size=n)
    elif shape == "ge":
        cons, c = rows(int(gen.integers(2, 7)), ">=", -1.0), gen.uniform(0.1, 1.0, size=n)
    elif shape in ("free", "boxed"):
        cons = rows(2, "<=", 1.0) + rows(2, ">=", -1.0) + rows(1, "=", 0.0)
        c = gen.normal(size=n)
        if shape == "free":
            # free columns, held by a box of rows rather than of bounds
            bounds = [(-INF, INF)] * 2 + [(0.0, INF)] * (n - 2)
            for j in range(2):
                cons += [({j: 1.0}, "<=", 5.0), ({j: 1.0}, ">=", -5.0)]
        else:
            bounds = [(x - gen.uniform(0.1, 2.0), x + gen.uniform(0.1, 2.0)) for x in x0]
    elif shape == "infeasible":
        cons = rows(2, "<=", 1.0) + [({0: 1.0, 1: 1.0}, "<=", 1.0), ({0: 1.0, 1: 1.0}, ">=", 2.0)]
        c = gen.normal(size=n)
    else:
        cons, c = rows(2, ">=", -1.0), gen.uniform(0.1, 1.0, size=n)
        c[gen.integers(n)] = -1.0
    return LPProblem(c=c, constraints=cons, bounds=bounds)


SHAPES = ("eq", "le", "ge", "free", "boxed", "infeasible", "unbounded")


def differential_battery():
    """(label, problem, max_pivots) on which ``solve`` must match the
    linprog path it replaced."""
    out = [(f"vertex{t}", p, 10 ** 6) for t, (p, _, _) in enumerate(vertex_battery())]
    out += [("beale", beale_lp(), 10 ** 6), ("redundant", redundant_equalities_lp(), 10 ** 6)]
    out += [(f"golden{t}", p, 10 ** 6) for t, (p, _) in enumerate(golden_lps())]
    out.append(("desk_dlp", build_dlp(build_instance(GeneratorConfig(seed=11, **DESK_DLP)))[0], 10 ** 6))
    gen = np.random.default_rng(20260101)
    out.append(("subset_q5_K7", build_lp(random_instance(gen, 5, 7, sparse=True))[0], 10 ** 6))
    for shape in SHAPES:
        out += [(f"{shape}{t}", shaped_lp(gen, shape), 10 ** 6) for t in range(5)]
    for cap in (0, 1):
        out += [(f"beale_cap{cap}", beale_lp(), cap),
                (f"golden0_cap{cap}", next(golden_lps())[0], cap),
                (f"boxed_cap{cap}", shaped_lp(gen, "boxed"), cap)]
    return out


DIFFERENTIAL = differential_battery()

_LINPROG_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


@pytest.mark.parametrize("label,problem,max_pivots", DIFFERENTIAL, ids=[d[0] for d in DIFFERENTIAL])
def test_same_vertex_and_pivots_as_linprog(label, problem, max_pivots):
    s = solve(problem, max_pivots)
    ref = linprog_highs_ds(problem, max_pivots)
    assert s.status == _LINPROG_STATUS[ref.status]
    assert s.iterations == ref.nit
    if s.status == OPTIMAL:
        assert np.array_equal(s.x, ref.x)
    else:
        assert s.x is None


def test_differential_battery_reaches_every_status():
    seen = {solve(p, cap).status for _, p, cap in DIFFERENTIAL}
    assert seen == {OPTIMAL, ITERATION_LIMIT, INFEASIBLE, UNBOUNDED}


# ---------------------------------------------------------------------------
# solver reuse: each thread keeps one HiGHS and clears it before every run;
# these pin what it returns against a HiGHS built for each solve alone
# ---------------------------------------------------------------------------


def reuse_battery():
    """(problem, max_pivots): the differential battery and a few more DLPs
    and subset LPs, capped and not, in one seeded interleaved order that
    mixes every status."""
    out = [(p, cap) for _, p, cap in DIFFERENTIAL]
    gen = np.random.default_rng(20261019)
    for seed in (21, 22):
        dlp = build_dlp(build_instance(GeneratorConfig(n=10, n_max=3, n_per=3, T=500, J=3, K=4, seed=seed)))[0]
        subset = build_lp(random_instance(gen, 4, 6, sparse=True))[0]
        out += [(dlp, 10 ** 6), (dlp, 5), (subset, 10 ** 6), (subset, 3)]
    return [out[i] for i in gen.permutation(len(out))]


REUSE = reuse_battery()


def fresh_solver():
    """A HiGHS made and set up for one solve, as `simplex._solver` makes
    each thread's."""
    h = simplex._highs._Highs()
    h.passOptions(simplex._OPTIONS)
    return h


def bits(s):
    """Every field of a solution, each array and float as its bits."""
    out = []
    for f in dataclasses.fields(s):
        v = getattr(s, f.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype.str, v.shape, v.tobytes())
        elif isinstance(v, float):
            v = v.hex()
        out.append(v)
    return tuple(out)


def solve_all(battery):
    return [bits(solve(p, cap)) for p, cap in battery]


@pytest.fixture(scope="module")
def fresh_solves():
    """`REUSE` solved with a fresh HiGHS per solve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_solver", fresh_solver)
        return solve_all(REUSE)


def test_reused_solver_matches_a_fresh_one(fresh_solves, monkeypatch):
    # status, x, duals, iterations and the certificate, bit for bit, with
    # every problem following others of every status
    assert {s[0] for s in fresh_solves} == {OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT}
    assert solve_all(REUSE) == fresh_solves
    assert solve_all(REUSE[::-1]) == fresh_solves[::-1]
    # and each right after a solve whose certificate failed and raised
    for (p, cap), want in zip(REUSE, fresh_solves):
        with monkeypatch.context() as mp:
            mp.setattr(simplex, "_run_highs", corrupted_run("marginals"))
            with pytest.raises(SolverNumericalError):
                solve(beale_lp())
        assert bits(solve(p, cap)) == want


def test_reused_solver_in_other_threads(fresh_solves, monkeypatch):
    # four threads, switching often: each makes one solver of its own on
    # its first solve and returns what a fresh solver would
    solve(beale_lp())
    made, got = [], {}
    real = simplex._highs._Highs

    def counted():
        made.append(threading.current_thread())
        return real()

    def work():
        had_one = hasattr(simplex._solvers, "highs")
        got[threading.current_thread()] = had_one, solve_all(REUSE), simplex._solver()

    monkeypatch.setattr(simplex._highs, "_Highs", counted)
    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(made) == len(threads) and set(made) == set(got) == set(threads)
    solvers = {id(h) for _, _, h in got.values()} | {id(simplex._solver())}
    assert len(solvers) == len(threads) + 1
    for had_one, solves, _ in got.values():
        assert not had_one and solves == fresh_solves


def test_reused_solver_in_a_forked_child(fresh_solves):
    # the child is forked after the parent has solved, so it solves with
    # its copy of the parent's solver
    solve(beale_lp())
    with multiprocessing.get_context("fork").Pool(1) as pool:
        solves = pool.apply_async(solve_all, (REUSE,)).get(timeout=120)
    assert solves == fresh_solves


# ---------------------------------------------------------------------------
# the rows go to HiGHS as stored; pinned against the column-wise handoff,
# ">=" rows negated, that `solve` made before
# ---------------------------------------------------------------------------


def handoff_battery():
    """(problem, max_pivots): `REUSE`, and ten more seeded LPs of each
    shape with ">=" rows and free or boxed columns."""
    gen = np.random.default_rng(20261020)
    return REUSE + [(shaped_lp(gen, shape), 10 ** 6) for shape in ("ge", "free", "boxed") for _ in range(10)]


def test_rowwise_handoff_matches_the_colwise_one():
    battery = handoff_battery()
    want = [bits(colwise_solve(p, cap)) for p, cap in battery]
    assert {s[0] for s in want} == {OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT}
    assert solve_all(battery) == want
