"""Correctness checks, run outside the timed regions.

Each check raises `CheckFailed` with a short reason; the workload counts it
as one failed operation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import binom

from corround import rounding

REL_TOL = 1e-6
# two-sided tail mass of a standard normal beyond 5 sigma
P_5SIGMA = math.erfc(5.0 / math.sqrt(2.0))


class CheckFailed(AssertionError):
    pass


def highs_objective(problem) -> float:
    """Optimum of an LPProblem according to scipy's HiGHS."""
    ub, eq = ([], [], [], []), ([], [], [], [])
    for pos, (_, rel, rhs) in enumerate(problem.constraints):
        idx, val = problem.row_arrays(pos)
        rows, cols, vals, rhs_list = eq if rel == "=" else ub
        sign = -1.0 if rel == ">=" else 1.0
        rows.extend([len(rhs_list)] * idx.size)
        cols.extend(idx.tolist())
        vals.extend((sign * val).tolist())
        rhs_list.append(sign * rhs)

    def matrix(part):
        rows, cols, vals, rhs_list = part
        if not rhs_list:
            return None, None
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(len(rhs_list), problem.n))
        return a, np.asarray(rhs_list)

    a_ub, b_ub = matrix(ub)
    a_eq, b_eq = matrix(eq)
    bounds = problem.bounds if problem.bounds is not None else [(0.0, None)] * problem.n
    bounds = [(None if lo == -math.inf else lo, None if hi == math.inf else hi) for lo, hi in bounds]
    res = linprog(problem.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckFailed(f"HiGHS reference solve failed: {res.message}")
    return float(res.fun)


def same_optimum(value: float, reference: float, what: str) -> None:
    if abs(value - reference) > REL_TOL * max(1.0, abs(reference)):
        raise CheckFailed(f"{what}: {value!r} differs from HiGHS {reference!r}")


def marginals_match(m: rounding.MarginalMatrix, report: rounding.MCReport) -> None:
    """Every empirical marginal lies within 5 sigma of u.

    The test is exact: each count is binomial(n, u_ki), and its two-sided
    tail probability must stay above the 5-sigma normal tail mass divided
    by the number of entries, so a correct scheme fails with probability
    below 6e-7 per matrix whatever its size or sample count.
    """
    n = report.n_samples
    counts = np.rint(report.marginals * n)
    low = binom.cdf(counts, n, m.u)
    high = binom.sf(counts - 1, n, m.u)
    p = np.minimum(1.0, 2.0 * np.minimum(low, high))
    worst = float(p.min())
    if worst < P_5SIGMA / m.u.size:
        i, k = np.unravel_index(int(p.argmin()), p.shape)
        raise CheckFailed(
            f"{report.scheme}: marginal ({i},{k}) is {report.marginals[i, k]:.6f} "
            f"over {n} samples, u = {m.u[i, k]:.6f}"
        )


def usage_bounded(m: rounding.MarginalMatrix, report: rounding.MCReport) -> None:
    """Empirical usage of each FC is at most guarantee * y, up to 5-sigma slack."""
    n = report.n_samples
    cap = np.minimum(1.0, rounding.scheme_guarantee(report.scheme, m) * m.y)
    counts = np.rint(report.usage * n)
    p = binom.sf(counts - 1, n, cap)
    if float(p.min()) < P_5SIGMA / m.K:
        k = int(p.argmin())
        raise CheckFailed(
            f"{report.scheme}: FC {k} used with frequency {report.usage[k]:.6f} "
            f"above its bound {cap[k]:.6f}"
        )


def in_support(u: np.ndarray, z: np.ndarray) -> bool:
    """Every item went to an FC it can ship from."""
    return bool(np.all(u[np.arange(u.shape[0]), z] > 0.0))
