"""Linear programs of the package, solved by HiGHS and certified here.

Problems are `min c.x` over rows with a relation and a rhs each, and with
per-variable bounds, held as arrays: the rows as one CSR matrix. The
builders in this package state their rows as (value, row, column) triplets
in any order and pass them to `LPProblem.from_arrays`; `LPProblem(c,
constraints, bounds)` takes rows as (coefficients, relation, rhs) tuples,
coefficients as dense vectors or {index: value} dicts, and turns them into
triplets too. Both run one set of checks and one COO-to-CSR step. `solve`
hands the arrays to the dual revised simplex of HiGHS (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 10,
2018) as numpy buffers, through the array ``passModel`` of the HiGHS
bindings that scipy ships (`scipy.optimize._highspy._core`, scipy >=
1.15). HiGHS gets the options that scipy's own LP front end (method
"highs-ds", presolve off) would give it and the stored rows as they are,
by row, without that front end's per-call option checks and matrix
stacking: the ``<=`` and ``>=`` rows before the ``=`` rows, each row's
relation in its row bounds, dual simplex, presolve off, the pivot cap as
its simplex iteration limit. So it returns the same vertex after the same
number of pivots as scipy's front end would. Each thread keeps one HiGHS
solver, made on its first solve and cleared before every run, so no basis
or solution carries over from one solve to the next.

No optimum is returned on the solver's word alone. Every optimal result is
re-checked against the original rows and bounds (primal residual) and
against a dual certificate built from HiGHS's marginals (stationarity
residual and duality gap); a failed check raises SolverNumericalError. An
optimum carries those multipliers, projected onto their feasible signs, as
its row and column duals.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
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


class LPProblem:
    """min c.x subject to rows (coef, rel, rhs) and per-variable bounds.

    ``bounds[j]`` is (lower, upper) with +-inf allowed; the default for every
    variable is (0, +inf). rhs values must be finite. A problem is held as
    arrays: ``c`` and ``bounds`` (an (n, 2) array) as floats, the rows as
    one CSR matrix ``A`` with strictly ascending column indices per row, a
    relation code per row in ``relations`` (an index into RELATIONS) and
    ``rhs``. `from_arrays` takes the entries of ``A`` as (value, row,
    column) triplets in any order; ``LPProblem(c, constraints, bounds)``
    turns rows given as dense vectors or {index: value} dicts into triplets
    (explicit zeros of dict rows kept). Either way the same checks run once,
    a failure raising DimensionMismatch, and the triplets are sorted into
    ``A``. Only the arrays are kept.
    """

    def __init__(self, c, constraints=(), bounds=None):
        n = np.asarray(c).size
        rows, cols, vals, codes, rhs = [], [], [], [], []
        for pos, (coef, rel, b) in enumerate(constraints):
            if not isinstance(coef, dict):
                arr = np.asarray(coef, dtype=float)
                if arr.shape != (n,):
                    raise DimensionMismatch(f"row {pos}: shape {arr.shape}, not ({n},)")
                idx = np.flatnonzero(arr)
                coef = dict(zip(idx.tolist(), arr[idx].tolist()))
            bad = [key for key in coef if not isinstance(key, numbers.Real)]
            if bad:
                raise DimensionMismatch(f"row {pos}: column index {bad[0]!r} is not a number")
            if rel not in _REL_CODE:
                raise DimensionMismatch(f"row {pos}: unknown relation {rel!r}")
            rows += [pos] * len(coef)
            cols += coef
            vals += coef.values()
            codes.append(_REL_CODE[rel])
            rhs.append(b)
        A = (np.asarray(vals, dtype=float), np.asarray(rows, dtype=np.int64), np.asarray(cols))
        self._set(c, A, codes, rhs, bounds)

    @classmethod
    def from_arrays(cls, c, A, relations, rhs, bounds=None) -> LPProblem:
        """The problem with ``A`` = (values, rows, cols), equal-length arrays
        with one entry of the rows per triplet, in any order: rows integers
        in [0, m), columns whole in [0, n), values finite, no (row, column)
        twice; and m relation codes (indices into RELATIONS) and m rhs.
        """
        self = cls.__new__(cls)
        self._set(c, A, relations, rhs, bounds)
        return self

    def _set(self, c, A, relations, rhs, bounds):
        """Check a problem's arrays and store them, the rows as CSR: the
        checks and the one COO-to-CSR step of both entry points."""
        c = np.asarray(c, dtype=float)
        n = c.size
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("objective has a non-finite coefficient")
        bounds = np.asarray(np.tile([0.0, INF], (n, 1)) if bounds is None else bounds, dtype=float)
        if bounds.shape != (n, 2):
            raise DimensionMismatch("bounds length != objective width")
        if np.isnan(bounds).any():
            raise DimensionMismatch("bounds contain NaN")
        codes = np.asarray(relations)
        rhs = np.asarray(rhs, dtype=float)
        m = rhs.size
        if codes.shape != (m,) or rhs.shape != (m,):
            raise DimensionMismatch(f"{codes.size} relations for {rhs.size} right-hand sides")
        known = (codes == LE) | (codes == EQ) | (codes == GE)
        bad = ~known | ~np.isfinite(rhs)
        if bad.any():
            pos = int(np.argmax(bad))
            if known[pos]:
                raise DimensionMismatch(f"row {pos}: rhs must be finite, got {rhs[pos]}")
            raise DimensionMismatch(f"row {pos}: unknown relation {codes[pos].item()!r}")
        data, rows, cols = np.asarray(A[0], dtype=float), np.asarray(A[1]), np.asarray(A[2])
        if (not rows.shape == cols.shape == data.shape == (data.size,)
                or rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= m)):
            raise DimensionMismatch(f"A is not (values, rows, cols) of one length, rows in [0, {m})")
        ok = (cols >= 0) & (cols < n) & (np.trunc(cols) == cols) & np.isfinite(data)
        if not ok.all():
            raise DimensionMismatch(f"row {rows[~ok].min()}: column index out of range or not "
                                    "whole, or coefficient not finite")
        # each row's entries by ascending column, rows in order
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        perm = np.argsort(rows * n + cols, kind="stable")
        rows, cols = rows[perm], cols[perm]
        twice = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if twice.size:
            raise DimensionMismatch(f"row {rows[twice[0]]}: column {cols[twice[0]]} given twice")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        self.c, self.bounds, self.relations, self.rhs = c, bounds, codes.astype(np.int8), rhs
        self.A = sparse.csr_matrix((data[perm], cols, indptr), shape=(m, n))

    @property
    def n(self) -> int:
        return self.c.size

    @cached_property
    def constraints(self) -> list:
        """The rows of ``A`` as ({index: value}, relation, rhs) tuples,
        explicit zeros included, made on first access; `solve` never reads
        it."""
        A = self.A
        ptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
        return [
            (dict(zip(cols[s:e], vals[s:e])), RELATIONS[code], b)
            for s, e, code, b in zip(ptr, ptr[1:], self.relations.tolist(), self.rhs.tolist())
        ]

    def row_arrays(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored (indices, values) of a constraint row, indices ascending."""
        s, e = self.A.indptr[pos], self.A.indptr[pos + 1]
        return self.A.indices[s:e], self.A.data[s:e]


@dataclass
class LPSolution:
    """Status of a solve, and on an optimum its point and certificate.

    ``max_violation`` is the largest absolute residual of ``x`` over the
    rows and bounds. ``row_dual`` (one per row, on the rows as stated) and
    ``col_dual`` (one per column, its bound multiplier) are HiGHS's
    multipliers projected onto their feasible signs, as d(objective)/d(rhs)
    and d(objective)/d(bound): at most 0 on ``<=`` rows, at least 0 on
    ``>=`` rows, free on ``=`` rows; at least 0 at a finite lower bound,
    at most 0 at a finite upper bound, 0 toward an infinite one. So
    c - A^T row_dual - col_dual is the stationarity error: relative to
    max(1, |c|_inf), its largest entry is ``dual_residual``.
    ``duality_gap`` is the gap between the primal objective and the
    objective of those multipliers, relative to max(1, |c.x|). All three
    are at most FEAS_TOL on a returned optimum; the duals are None unless
    the status is optimal.
    """

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int = 0
    max_violation: float = 0.0
    dual_residual: float = 0.0
    duality_gap: float = 0.0
    row_dual: Optional[np.ndarray] = None
    col_dual: Optional[np.ndarray] = None


def solve(problem: LPProblem, max_pivots: int = 10 ** 6) -> LPSolution:
    """Solve with HiGHS's dual simplex; returns a certified status.

    HiGHS is called directly, on the model and options that scipy's LP
    front end (method "highs-ds", presolve off) would pass it, so the
    vertex and the pivot count are the ones that front end would return;
    the checks below are the same. ``max_pivots`` (>= 0, else ValueError)
    caps the simplex iterations, at most at 2**31 - 1; a run that reaches
    the cap returns ITERATION_LIMIT.
    Optimal solutions satisfy every row and bound within FEAS_TOL and carry
    a dual certificate within FEAS_TOL (checked; a failure raises
    SolverNumericalError). A problem with no columns is decided here,
    without HiGHS: optimal at x = [] with objective 0 when every row holds
    there within FEAS_TOL, else infeasible.
    """
    if max_pivots < 0:
        raise ValueError(f"max_pivots must be >= 0, got {max_pivots}")
    lo, hi = problem.bounds.T
    if np.any(lo > hi):
        return LPSolution(INFEASIBLE, None, None)
    A, rel, b = problem.A, problem.relations, problem.rhs
    (m, n), eq = A.shape, rel == EQ
    # row i holds when sign_i * (A_i x - b_i) is <= 0 off eq and = 0 on it
    sign = np.where(rel == GE, -1.0, 1.0)
    if n == 0:
        # HiGHS needs a column; with none, x = [] and each row reads 0 rel b
        r = -sign * b
        viol = max(float(r[~eq].max(initial=0.0)), float(np.abs(r[eq]).max(initial=0.0)))
        if viol > FEAS_TOL:
            return LPSolution(INFEASIBLE, None, None)
        # every multiplier 0 certifies it: the dual objective is 0 too
        return LPSolution(OPTIMAL, 0.0, np.empty(0), 0, viol, row_dual=np.zeros(m),
                          col_dual=np.empty(0))
    # HiGHS reads row_lo <= A x <= row_hi: the rows of A as stored, the
    # "<=" and ">=" rows first, gathered with one index into A's entries
    order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
    size = np.diff(A.indptr)[order]
    start = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(size, out=start[1:])
    take = np.repeat(A.indptr[order] - start[:-1], size) + np.arange(A.nnz)
    status, x, row_dual, col_dual, nit = _run_highs(
        problem.c, (start, A.indices[take], A.data[take]),
        np.where(rel == LE, -INF, b)[order], np.where(rel == GE, INF, b)[order],
        lo, hi, max_pivots,
    )
    if status not in _STATUS:
        raise SolverNumericalError(f"HiGHS failed: model status {status.name}")
    status = _STATUS[status]
    if status != OPTIMAL:
        return LPSolution(status, None, None, nit)

    obj = float(problem.c @ x)
    # sign * (A x - b), taken as a difference of the signed sides so that
    # a row met exactly reads +0.0
    r = sign * (A @ x) - sign * b
    viol = max(
        float(r[~eq].max(initial=0.0)),
        float(np.abs(r[eq]).max(initial=0.0)),
        float((lo - x).max(initial=0.0)),
        float((x - hi).max(initial=0.0)),
    )
    # written so that a NaN fails the checks too
    if not viol <= FEAS_TOL:
        raise SolverNumericalError(f"residual check failed: violation {viol:.3e}")
    # HiGHS's duals in row order; the ">=" rows' are flipped to those of
    # the rows negated, which `_dual_certificate` takes
    y = np.empty(m)
    y[order] = row_dual
    y, w, dual_res, gap = _dual_certificate(problem, obj, sign, sign * y, col_dual)
    if not (dual_res <= FEAS_TOL and gap <= FEAS_TOL):
        raise SolverNumericalError(
            f"dual certificate failed: residual {dual_res:.3e}, gap {gap:.3e}"
        )
    return LPSolution(OPTIMAL, obj, x, nit, viol, dual_res, gap, y, w)


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


# one HiGHS per thread, made with _OPTIONS on its first solve and kept:
# building and destroying one costs about 0.1 ms, a sizeable share of a
# small solve
_solvers = threading.local()


def _solver():
    """This thread's HiGHS, made on the first call."""
    h = getattr(_solvers, "highs", None)
    if h is None:
        h = _solvers.highs = _highs._Highs()
        h.passOptions(_OPTIONS)
    return h


def _run_highs(c, rows, row_lo, row_hi, lo, hi, max_pivots):
    """One dual-simplex run of this thread's HiGHS on min c.x subject to
    row_lo <= A x <= row_hi and lo <= x <= hi, with A given by row as
    ``rows`` = (start, index, value).

    The run starts from a cleared solver (no basis or solution of an
    earlier run is kept), with the options every run gets and the pivot
    cap as its iteration limit, so its result does not depend on the runs
    before it.
    The arrays go to HiGHS as they are, through its array ``passModel``.
    Returns (model status, x, row duals, column duals, simplex iterations);
    the three arrays are None unless the status is optimal.
    """
    start, index, value = rows
    h = _solver()
    h.clearSolver()
    # HiGHS keeps the limit of the run before when it rejects one above 2**31 - 1
    limit = min(int(max_pivots), 2 ** 31 - 1)
    if h.setOptionValue("simplex_iteration_limit", limit) != _highs.HighsStatus.kOk:
        raise SolverNumericalError(f"HiGHS rejected the simplex iteration limit {limit}")
    # every column continuous (an empty integrality array is not taken)
    if h.passModel(c.size, row_hi.size, value.size, _ROWWISE, _MINIMIZE, 0.0, c, lo, hi,
                   row_lo, row_hi, start, index, value,
                   np.zeros(c.size, dtype=np.int32)) == _highs.HighsStatus.kError:
        return _MS.kModelError, None, None, None, 0
    h.run()
    status = h.getModelStatus()
    nit = h.getInfoValue("simplex_iteration_count")[1]
    if status != _MS.kOptimal:
        return status, None, None, None, nit
    sol = h.getSolution()
    return status, np.array(sol.col_value), np.array(sol.row_dual), np.array(sol.col_dual), nit


def _dual_certificate(problem, obj, sign, y, col_dual):
    """(row duals, column duals, relative stationarity residual, relative
    duality gap) of HiGHS's duals, the duals projected and on the rows as
    stated.

    ``y`` holds HiGHS's row duals in row order, those of ``>=`` rows
    flipped by ``sign`` into the duals of the rows negated; ``col_dual``
    holds its reduced costs. Both duals are
    d(objective)/d(rhs): at most 0 on ``<=`` rows and upper bounds, at
    least 0 on lower bounds, free on equalities, and 0 on infinite bounds;
    a column's dual is its lower-bound multiplier where it is >= 0 and its
    upper-bound one where it is <= 0. They are projected onto those signs
    first, so a sign error shows up as a stationarity error rather than
    passing unseen.
    """
    c, (lo, hi), A = problem.c, problem.bounds.T, problem.A
    # projected, then signed back onto the rows as stated
    y = sign * np.where(problem.relations == EQ, y, np.minimum(y, 0.0))
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    w_lo = np.where(fin_lo, np.maximum(col_dual, 0.0), 0.0)
    w_hi = np.where(fin_hi, np.minimum(col_dual, 0.0), 0.0)
    # A^T y, each column added up in row order
    aty = np.bincount(A.indices, weights=A.data * np.repeat(y, np.diff(A.indptr)),
                      minlength=c.size)
    stat = c - aty - w_lo - w_hi
    dual_res = float(np.abs(stat).max(initial=0.0)) / max(1.0, float(np.abs(c).max(initial=0.0)))
    dual_obj = float(problem.rhs @ y + lo[fin_lo] @ w_lo[fin_lo] + hi[fin_hi] @ w_hi[fin_hi])
    return y, w_lo + w_hi, dual_res, abs(obj - dual_obj) / max(1.0, abs(obj))

