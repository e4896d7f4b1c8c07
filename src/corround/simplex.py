"""Linear programs of the package, solved by HiGHS and certified here.

Problems are stated as `min c.x` over rows `(coefficients, relation, rhs)`
with per-variable bounds; coefficients may be dense vectors or {index: value}
dicts (the builders in this package pass dicts). `LPProblem` validates the
rows and converts them into one sparse matrix in a single pass when it is
constructed; `solve` hands that matrix to the dual revised simplex of HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 10, 2018) through the HiGHS bindings that scipy ships
(`scipy.optimize._highspy._core`, scipy >= 1.15), and `write_lp` dumps it
as MPS text. HiGHS gets the model and options that scipy's own LP front
end (method "highs-ds", presolve off) would give it, without that front
end's per-call option checks and matrix stacking: ``<=`` rows (``>=`` rows
negated) before ``=`` rows, stored by column, dual simplex, presolve off,
the pivot cap as its simplex iteration limit. So it returns the same vertex
after the same number of pivots as scipy's front end would.

No optimum is returned on the solver's word alone. Every optimal result is
re-checked against the original rows and bounds (primal residual) and
against a dual certificate built from HiGHS's marginals (stationarity
residual and duality gap); a failed check raises SolverNumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np
import scipy
from scipy import sparse

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError(
        "corround.simplex calls HiGHS through scipy.optimize._highspy._core, "
        f"which needs scipy >= 1.15 (found scipy {scipy.__version__})"
    ) from exc

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

RELATIONS = ("<=", "=", ">=")

FEAS_TOL = 1e-7

INF = float("inf")

# HiGHS model statuses, mapped as scipy's LP front end maps them (a model
# HiGHS rejects reads as infeasible); any other status (numerical trouble,
# or HiGHS could not tell infeasible from unbounded) raises instead
_MS = _highs.HighsModelStatus
_STATUS = {
    _MS.kOptimal: OPTIMAL,
    _MS.kIterationLimit: ITERATION_LIMIT,
    _MS.kInfeasible: INFEASIBLE,
    _MS.kModelError: INFEASIBLE,
    _MS.kUnbounded: UNBOUNDED,
}


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

    HiGHS is called directly, on the model and options that scipy's LP
    front end (method "highs-ds", presolve off) would pass it, so the
    vertex and the pivot count are the ones that front end would return;
    the checks below are the same. ``max_pivots`` caps the simplex
    iterations; a run that reaches it returns ITERATION_LIMIT.
    Optimal solutions satisfy every row and bound within FEAS_TOL and carry
    a dual certificate within FEAS_TOL (checked; a failure raises
    SolverNumericalError). A problem with no columns is decided here,
    without HiGHS: optimal at x = [] with objective 0 when every row holds
    there within FEAS_TOL, else infeasible.
    """
    lo, hi = problem.bounds.T
    if np.any(lo > hi):
        return LPSolution(INFEASIBLE, None, None)
    # ">=" rows enter negated, so row i reads sign_i * (A_i x - rhs_i) <= 0
    # off eq and = 0 on it
    eq = problem.relations == EQ
    ub = ~eq
    sign = np.where(problem.relations == GE, -1.0, 1.0)
    b = problem.rhs * sign
    if problem.n == 0:
        # HiGHS needs a column; with none, x = [] and each row reads 0 <= b or 0 = b
        viol = max(float((-b[ub]).max(initial=0.0)), float(np.abs(b[eq]).max(initial=0.0)))
        if viol > FEAS_TOL:
            return LPSolution(INFEASIBLE, None, None)
        return LPSolution(OPTIMAL, 0.0, np.empty(0), 0, viol)
    # HiGHS reads row_lo <= A x <= row_hi; the "<=" rows go first
    order = np.concatenate((np.flatnonzero(ub), np.flatnonzero(eq)))
    status, x, row_dual, col_dual, nit = _run_highs(
        problem.c, _colwise(problem.A, sign, order), np.where(eq, b, -INF)[order], b[order],
        lo, hi, max_pivots,
    )
    if status not in _STATUS:
        raise SolverNumericalError(f"HiGHS failed: model status {status.name}")
    status = _STATUS[status]
    if status != OPTIMAL:
        return LPSolution(status, None, None, nit)

    obj = float(problem.c @ x)
    r = (problem.A @ x) * sign - b
    viol = max(
        float(r[ub].max(initial=0.0)),
        float(np.abs(r[eq]).max(initial=0.0)),
        float((lo - x).max(initial=0.0)),
        float((x - hi).max(initial=0.0)),
    )
    # written so that a NaN fails the checks too
    if not viol <= FEAS_TOL:
        raise SolverNumericalError(f"residual check failed: violation {viol:.3e}")
    y = np.empty(b.size)
    y[order] = row_dual
    dual_res, gap = _dual_certificate(problem, obj, sign, y, col_dual)
    if not (dual_res <= FEAS_TOL and gap <= FEAS_TOL):
        raise SolverNumericalError(
            f"dual certificate failed: residual {dual_res:.3e}, gap {gap:.3e}"
        )
    return LPSolution(OPTIMAL, obj, x, nit, viol, dual_res, gap)


def _colwise(A: sparse.csr_matrix, sign: np.ndarray, order: np.ndarray):
    """(start, index, value) of the rows ``sign * A``, taken in ``order``
    and stored by column.

    The arrays ``(sign * A)[order].tocsc()`` would hold, row indices
    ascending in each column, from one stable sort of the entries by
    (column, new row).
    """
    m, n = A.shape
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    row = np.repeat(np.arange(m), np.diff(A.indptr))
    perm = np.argsort(A.indices.astype(np.int64) * m + rank[row], kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(A.indices, minlength=n), out=start[1:])
    return start, rank[row[perm]], (A.data * sign[row])[perm]


# the options scipy's LP front end sets for method "highs-ds" with presolve
# off, less the pivot cap, which each run sets on its own solver
_OPTIONS = _highs.HighsOptions()
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.solver = "simplex"
_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
# no presolve: it can finish an LP (the one-region DLPs, for one) without a
# single simplex iteration, and then neither the pivot cap nor the pivot
# count would mean anything
_OPTIONS.presolve = "off"


def _run_highs(c, cols, row_lo, row_hi, lo, hi, max_pivots):
    """One dual-simplex run of HiGHS on min c.x subject to
    row_lo <= A x <= row_hi and lo <= x <= hi, with A given by column as
    ``cols`` = (start, index, value).

    Returns (model status, x, row duals, column duals, simplex iterations);
    the three arrays are None unless the status is optimal.
    """
    start, index, value = cols
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_hi.size
    # lists: pybind11 copies a list into a std::vector faster than an array
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = lo.tolist()
    lp.col_upper_ = hi.tolist()
    lp.row_lower_ = row_lo.tolist()
    lp.row_upper_ = row_hi.tolist()
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()
    h = _highs._Highs()
    h.passOptions(_OPTIONS)
    h.setOptionValue("simplex_iteration_limit", int(max_pivots))
    if h.passModel(lp) == _highs.HighsStatus.kError:
        return _MS.kModelError, None, None, None, 0
    h.run()
    status = h.getModelStatus()
    nit = h.getInfo().simplex_iteration_count
    if status != _MS.kOptimal:
        return status, None, None, None, nit
    sol = h.getSolution()
    return status, np.array(sol.col_value), np.array(sol.row_dual), np.array(sol.col_dual), nit


def _dual_certificate(problem, obj, sign, y, col_dual) -> tuple[float, float]:
    """Relative stationarity residual and duality gap of HiGHS's duals.

    ``y`` holds HiGHS's row duals in row order, on the rows with ``>=``
    negated (``sign``); ``col_dual`` holds its reduced costs. Both are
    d(objective)/d(rhs): at most 0 on ``<=`` rows and upper bounds, at
    least 0 on lower bounds, free on equalities, and 0 on infinite bounds;
    a column's dual is its lower-bound multiplier where it is >= 0 and its
    upper-bound one where it is <= 0. They are projected onto those signs
    first, so a sign error shows up as a stationarity error rather than
    passing unseen.
    """
    c, (lo, hi) = problem.c, problem.bounds.T
    # projected, then signed back onto the rows as stated
    y = sign * np.where(problem.relations == EQ, y, np.minimum(y, 0.0))
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    w_lo = np.where(fin_lo, np.maximum(col_dual, 0.0), 0.0)
    w_hi = np.where(fin_hi, np.minimum(col_dual, 0.0), 0.0)
    stat = c - problem.A.T @ y - w_lo - w_hi
    dual_res = float(np.abs(stat).max(initial=0.0)) / max(1.0, float(np.abs(c).max(initial=0.0)))
    dual_obj = float(problem.rhs @ y + lo[fin_lo] @ w_lo[fin_lo] + hi[fin_hi] @ w_hi[fin_hi])
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
