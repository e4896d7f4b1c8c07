"""Linear programs of the package, solved by HiGHS and certified here.

Problems are stated as `min c.x` over rows `(coefficients, relation, rhs)`
with per-variable bounds; coefficients may be dense vectors or {index: value}
dicts (the builders in this package pass dicts). `LPProblem` validates the
rows and converts them into one sparse matrix in a single pass when it is
constructed; `solve` hands that matrix to the dual revised simplex of HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 10, 2018) through `scipy.optimize.linprog`, and `write_lp`
dumps it as MPS text.

No optimum is returned on the solver's word alone. Every optimal result is
re-checked against the original rows and bounds (primal residual) and
against a dual certificate built from HiGHS's marginals (stationarity
residual and duality gap); a failed check raises SolverNumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TextIO

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


_REL_CODE = {rel: code for code, rel in enumerate(RELATIONS)}
LE, EQ, GE = range(3)


@dataclass(frozen=True, eq=False)
class LPProblem:
    """min c.x subject to rows (coef, rel, rhs) and per-variable bounds.

    ``bounds[j]`` is (lower, upper) with +-inf allowed; the default for every
    variable is (0, +inf). rhs values must be finite. Construction validates
    everything and converts it once: ``c`` and ``bounds`` (an (n, 2) array)
    become float arrays, and the rows one CSR matrix ``A`` with ascending
    column indices per row (explicit zeros of dict rows kept), a relation
    code per row in ``relations`` (an index into RELATIONS) and ``rhs``.
    ``constraints`` keeps the rows as given.
    """

    c: np.ndarray
    constraints: list = field(default_factory=list)
    bounds: Optional[np.ndarray] = None
    A: sparse.csr_matrix = field(init=False, repr=False)
    relations: np.ndarray = field(init=False, repr=False)
    rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        n = c.size
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("objective has a non-finite coefficient")
        if self.bounds is None:
            bounds = np.column_stack((np.zeros(n), np.full(n, INF)))
        else:
            bounds = np.asarray(self.bounds, dtype=float)
            if bounds.shape != (n, 2):
                raise DimensionMismatch("bounds length != objective width")
            if np.isnan(bounds).any():
                raise DimensionMismatch("bounds contain NaN")
        cols, vals, counts, codes, rhs = [], [], [], [], []
        for pos, (coef, rel, b) in enumerate(self.constraints):
            if isinstance(coef, dict):
                cols += coef
                vals += coef.values()
                counts.append(len(coef))
            else:
                arr = np.asarray(coef, dtype=float)
                if arr.shape != (n,):
                    raise DimensionMismatch(
                        f"row {pos}: width {len(coef)} != objective width {n}"
                    )
                idx = np.flatnonzero(arr)
                cols += idx.tolist()
                vals += arr[idx].tolist()
                counts.append(idx.size)
            codes.append(_REL_CODE.get(rel, -1))
            rhs.append(b)
        relations = np.array(codes, dtype=np.int8)
        rhs = np.array(rhs, dtype=float)
        bad = (relations < 0) | ~np.isfinite(rhs)
        if bad.any():
            pos = int(np.argmax(bad))
            _, rel, b = self.constraints[pos]
            raise DimensionMismatch(
                f"row {pos}: unknown relation {rel!r}" if relations[pos] < 0
                else f"row {pos}: rhs must be finite, got {b}"
            )
        m = len(counts)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        keys = np.asarray(cols)
        data = np.asarray(vals, dtype=float)
        ok = (keys >= 0) & (keys < n) & (np.trunc(keys) == keys) & np.isfinite(data)
        if not ok.all():
            pos = int(np.searchsorted(indptr, np.argmin(ok), side="right")) - 1
            raise DimensionMismatch(
                f"row {pos}: column index out of range or not whole, or coefficient not finite"
            )
        A = sparse.csr_matrix((data, keys.astype(np.int64), indptr), shape=(m, n))
        A.sort_indices()
        for name, value in (("c", c), ("bounds", bounds), ("A", A),
                            ("relations", relations), ("rhs", rhs)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.c.size

    def row_arrays(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored (indices, values) of a constraint row, indices ascending."""
        s, e = self.A.indptr[pos], self.A.indptr[pos + 1]
        return self.A.indices[s:e], self.A.data[s:e]


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
    a failure raises SolverNumericalError). A problem with no columns is
    decided here, without HiGHS: optimal at x = [] with objective 0 when
    every row holds there within FEAS_TOL, else infeasible.
    """
    lo, hi = problem.bounds.T
    if np.any(lo > hi):
        return LPSolution(INFEASIBLE, None, None)
    # ">=" rows enter negated, so the rows are A x <= b off eq, A x = b on it
    eq = problem.relations == EQ
    ub = ~eq
    sign = np.where(problem.relations == GE, -1.0, 1.0)
    data = problem.A.data * np.repeat(sign, np.diff(problem.A.indptr))
    A = sparse.csr_matrix((data, problem.A.indices, problem.A.indptr), shape=problem.A.shape)
    b = problem.rhs * sign
    if problem.n == 0:
        # HiGHS needs a column; with none, x = [] and each row reads 0 <= b or 0 = b
        viol = max(float((-b[ub]).max(initial=0.0)), float(np.abs(b[eq]).max(initial=0.0)))
        if viol > FEAS_TOL:
            return LPSolution(INFEASIBLE, None, None)
        return LPSolution(OPTIMAL, 0.0, np.empty(0), 0, viol)
    res = linprog(
        problem.c,
        A_ub=A[ub],
        b_ub=b[ub],
        A_eq=A[eq],
        b_eq=b[eq],
        bounds=problem.bounds,
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
    for pos, code in enumerate(problem.relations.tolist()):
        f.write(f" {'LEG'[code]}  R{pos}\n")
    f.write("COLUMNS\n")
    A = problem.A.tocsc()
    rows, vals = A.indices.tolist(), A.data.tolist()
    for j, cj in enumerate(problem.c.tolist()):
        if cj != 0.0:
            f.write(f"    X{j}  COST  {cj!r}\n")
        for p in range(A.indptr[j], A.indptr[j + 1]):
            f.write(f"    X{j}  R{rows[p]}  {vals[p]!r}\n")
    f.write("RHS\n")
    for pos, rhs in enumerate(problem.rhs.tolist()):
        if rhs != 0.0:
            f.write(f"    RHS  R{pos}  {rhs!r}\n")
    f.write("BOUNDS\n")
    for j, (lo, hi) in enumerate(problem.bounds.tolist()):
        if lo == -INF and hi == INF:
            f.write(f" FR BND X{j}\n")
            continue
        if lo not in (0.0, -INF):
            f.write(f" LO BND X{j}  {lo!r}\n")
        if lo == -INF:
            f.write(f" MI BND X{j}\n")
        if hi != INF:
            f.write(f" UP BND X{j}  {hi!r}\n")
    f.write("ENDATA\n")
