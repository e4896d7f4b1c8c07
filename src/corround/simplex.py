"""Linear programs of the package, solved by HiGHS and certified here.

Problems are stated as `min c.x` over rows `(coefficients, relation, rhs)`
with per-variable bounds; coefficients may be dense vectors or {index: value}
dicts (the builders in this package pass dicts). `solve` assembles the rows
into one sparse matrix in a single pass and hands it to the dual revised
simplex of HiGHS (Huangfu & Hall, "Parallelizing the dual revised simplex
method", Math. Prog. Comp. 10, 2018) through `scipy.optimize.linprog`.

No optimum is returned on the solver's word alone. Every optimal result is
re-checked against the original rows and bounds (primal residual) and
against a dual certificate built from HiGHS's marginals (stationarity
residual and duality gap); a failed check raises SolverNumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO, Union

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

RELATIONS = ("<=", "=", ">=")

FEAS_TOL = 1e-7

INF = float("inf")

# scipy's linprog status codes; 4 (numerical trouble, or HiGHS could not
# tell infeasible from unbounded) raises instead
_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


class DimensionMismatch(ValueError):
    """A constraint row's width disagrees with the objective's."""


class SolverNumericalError(RuntimeError):
    """The solver broke down, or an optimum failed its certificate."""


Coef = Union[np.ndarray, Sequence[float], dict]


@dataclass
class LPProblem:
    """min c.x subject to rows (coef, rel, rhs) and per-variable bounds.

    ``bounds[j]`` is (lower, upper) with +-inf allowed; the default for every
    variable is (0, +inf). rhs values must be finite.
    """

    c: np.ndarray
    constraints: list = field(default_factory=list)
    bounds: Optional[list] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        for pos, (coef, rel, rhs) in enumerate(self.constraints):
            if rel not in RELATIONS:
                raise DimensionMismatch(f"row {pos}: unknown relation {rel!r}")
            if not np.isfinite(rhs):
                raise DimensionMismatch(f"row {pos}: rhs must be finite, got {rhs}")
            if isinstance(coef, dict):
                if coef and (min(coef) < 0 or max(coef) >= n):
                    raise DimensionMismatch(f"row {pos}: column index out of range")
            elif len(coef) != n:
                raise DimensionMismatch(
                    f"row {pos}: width {len(coef)} != objective width {n}"
                )
        if self.bounds is not None and len(self.bounds) != n:
            raise DimensionMismatch("bounds length != objective width")

    @property
    def n(self) -> int:
        return self.c.size

    def row_arrays(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero (indices, values) of a constraint row."""
        coef = self.constraints[pos][0]
        if isinstance(coef, dict):
            if not coef:
                return np.empty(0, dtype=np.int64), np.empty(0)
            idx = np.fromiter(coef.keys(), dtype=np.int64)
            val = np.fromiter(coef.values(), dtype=float)
            order = np.argsort(idx)
            return idx[order], val[order]
        arr = np.asarray(coef, dtype=float)
        idx = np.flatnonzero(arr)
        return idx, arr[idx]


@dataclass
class LPSolution:
    """Status of a solve, and on an optimum its point and certificate.

    ``max_violation`` is the largest absolute residual of ``x`` over the
    rows and bounds. ``dual_residual`` is the largest stationarity error of
    HiGHS's multipliers after projecting them onto their feasible signs,
    relative to max(1, |c|_inf); ``duality_gap`` is the gap between the
    primal objective and the objective of those multipliers, relative to
    max(1, |c.x|). All three are at most FEAS_TOL on a returned optimum.
    """

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int = 0
    max_violation: float = 0.0
    dual_residual: float = 0.0
    duality_gap: float = 0.0


def solve(problem: LPProblem, max_pivots: int = 10 ** 6) -> LPSolution:
    """Solve with HiGHS's dual simplex; returns a certified status.

    ``max_pivots`` caps the simplex iterations; a run that reaches it
    returns ITERATION_LIMIT. Optimal solutions satisfy every row and bound
    within FEAS_TOL and carry a dual certificate within FEAS_TOL (checked;
    a failure raises SolverNumericalError).
    """
    lo, hi = _bounds(problem)
    if np.any(lo > hi):
        return LPSolution(INFEASIBLE, None, None)
    A, b, eq = _signed_rows(problem)
    ub = ~eq
    res = linprog(
        problem.c,
        A_ub=A[ub],
        b_ub=b[ub],
        A_eq=A[eq],
        b_eq=b[eq],
        bounds=np.column_stack((lo, hi)),
        method="highs-ds",
        # no presolve: it can finish an LP (the one-region DLPs, for one)
        # without a single simplex iteration, and then neither the pivot
        # cap nor the pivot count would mean anything
        options={"maxiter": max_pivots, "presolve": False},
    )
    if res.status not in _STATUS:
        raise SolverNumericalError(f"HiGHS failed: {res.message}")
    status = _STATUS[res.status]
    if status != OPTIMAL:
        return LPSolution(status, None, None, int(res.nit))

    x = res.x
    obj = float(problem.c @ x)
    r = A @ x - b
    viol = max(
        float(r[ub].max(initial=0.0)),
        float(np.abs(r[eq]).max(initial=0.0)),
        float((lo - x).max(initial=0.0)),
        float((x - hi).max(initial=0.0)),
    )
    if viol > FEAS_TOL:
        raise SolverNumericalError(f"residual check failed: violation {viol:.3e}")
    dual_res, gap = _dual_certificate(problem.c, obj, A, b, eq, lo, hi, res)
    if dual_res > FEAS_TOL or gap > FEAS_TOL:
        raise SolverNumericalError(
            f"dual certificate failed: residual {dual_res:.3e}, gap {gap:.3e}"
        )
    return LPSolution(OPTIMAL, obj, x, int(res.nit), viol, dual_res, gap)


def _bounds(problem: LPProblem) -> tuple[np.ndarray, np.ndarray]:
    if problem.bounds is None:
        return np.zeros(problem.n), np.full(problem.n, INF)
    lo, hi = np.asarray(problem.bounds, dtype=float).reshape(problem.n, 2).T
    return lo, hi


def _signed_rows(problem: LPProblem) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Every row in one CSR matrix, built in a single pass.

    ``>=`` rows are negated into ``<=`` rows, so the rows are ``A x <= b``
    where ``eq`` is False and ``A x = b`` where it is True.
    """
    m = len(problem.constraints)
    cols, vals = [], []
    counts = np.empty(m, dtype=np.int64)
    b = np.empty(m)
    sign = np.ones(m)
    eq = np.zeros(m, dtype=bool)
    for pos, (coef, rel, rhs) in enumerate(problem.constraints):
        if isinstance(coef, dict):
            cols.extend(coef.keys())
            vals.extend(coef.values())
            counts[pos] = len(coef)
        else:
            arr = np.asarray(coef, dtype=float)
            idx = np.flatnonzero(arr)
            cols.extend(idx.tolist())
            vals.extend(arr[idx].tolist())
            counts[pos] = idx.size
        b[pos] = rhs
        if rel == ">=":
            sign[pos] = -1.0
        elif rel == "=":
            eq[pos] = True
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.asarray(vals, dtype=float) * np.repeat(sign, counts)
    A = sparse.csr_matrix(
        (data, np.asarray(cols, dtype=np.int64), indptr), shape=(m, problem.n)
    )
    return A, b * sign, eq


def _dual_certificate(c, obj, A, b, eq, lo, hi, res) -> tuple[float, float]:
    """Relative stationarity residual and duality gap of HiGHS's marginals.

    The marginals are d(objective)/d(rhs): at most 0 on ``<=`` rows and
    upper bounds, at least 0 on lower bounds, free on equalities, and 0 on
    infinite bounds. They are projected onto those signs first, so a sign
    error shows up as a stationarity error rather than passing unseen.
    """
    y = np.empty(b.size)
    y[~eq] = np.minimum(res.ineqlin.marginals, 0.0)
    y[eq] = res.eqlin.marginals
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    w_lo = np.where(fin_lo, np.maximum(res.lower.marginals, 0.0), 0.0)
    w_hi = np.where(fin_hi, np.minimum(res.upper.marginals, 0.0), 0.0)
    stat = c - A.T @ y - w_lo - w_hi
    dual_res = float(np.abs(stat).max(initial=0.0)) / max(1.0, float(np.abs(c).max(initial=0.0)))
    dual_obj = float(b @ y + lo[fin_lo] @ w_lo[fin_lo] + hi[fin_hi] @ w_hi[fin_hi])
    return dual_res, abs(obj - dual_obj) / max(1.0, abs(obj))


def write_lp(problem: LPProblem, f: TextIO, name: str = "CORROUND") -> None:
    """Dump a problem in fixed MPS format for cross-checking externally."""
    f.write(f"NAME          {name}\n")
    f.write("ROWS\n")
    f.write(" N  COST\n")
    tag = {"<=": "L", ">=": "G", "=": "E"}
    for pos, (_, rel, _) in enumerate(problem.constraints):
        f.write(f" {tag[rel]}  R{pos}\n")
    f.write("COLUMNS\n")
    cols: dict[int, list[tuple[str, float]]] = {j: [] for j in range(problem.n)}
    for j in range(problem.n):
        if problem.c[j] != 0.0:
            cols[j].append(("COST", float(problem.c[j])))
    for pos in range(len(problem.constraints)):
        idx, val = problem.row_arrays(pos)
        for j, v in zip(idx, val):
            cols[int(j)].append((f"R{pos}", float(v)))
    for j in range(problem.n):
        for rowname, v in cols[j]:
            f.write(f"    X{j}  {rowname}  {v!r}\n")
    f.write("RHS\n")
    for pos, (_, _, rhs) in enumerate(problem.constraints):
        if rhs != 0.0:
            f.write(f"    RHS  R{pos}  {float(rhs)!r}\n")
    f.write("BOUNDS\n")
    bounds = problem.bounds if problem.bounds is not None else [(0.0, INF)] * problem.n
    for j, (lo, hi) in enumerate(bounds):
        if lo == -INF and hi == INF:
            f.write(f" FR BND X{j}\n")
            continue
        if lo not in (0.0, -INF):
            f.write(f" LO BND X{j}  {float(lo)!r}\n")
        if lo == -INF:
            f.write(f" MI BND X{j}\n")
        if hi != INF:
            f.write(f" UP BND X{j}  {float(hi)!r}\n")
    f.write("ENDATA\n")
