import io
import math

import numpy as np
import pytest

from corround import simplex
from corround.fulfillment import build_dlp
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
    write_lp,
)

from conftest import linprog_optimum, vertex_enumeration_optimum

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
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[({3: 1.0}, "<=", 1.0)])
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[(np.array([1.0]), "!!", 1.0)])
    with pytest.raises(DimensionMismatch):
        LPProblem(c=np.array([1.0]), constraints=[(np.array([1.0]), "<=", INF)])
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


def test_iteration_limit_status():
    p = LPProblem(
        c=np.array([1.0, 1.0]),
        constraints=[(np.array([1.0, 1.0]), "=", 2.0), (np.array([1.0, -1.0]), "=", 0.0)],
    )
    s = solve(p, max_pivots=0)
    assert s.status == ITERATION_LIMIT
    assert s.x is None and s.objective is None


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


@pytest.mark.parametrize("field", ["x", "marginals"])
def test_failed_certificate_raises(monkeypatch, field):
    real = simplex.linprog

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        if field == "x":
            res.x = res.x + 1e-3
        else:
            res.ineqlin.marginals = res.ineqlin.marginals * 1.01
        return res

    monkeypatch.setattr(simplex, "linprog", corrupted)
    with pytest.raises(SolverNumericalError):
        solve(beale_lp())


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
