import hashlib
import io
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from corround.rounding import MarginalMatrix, validate
from corround.simplex import write_lp
from corround.streams import RandomStream


def random_instance(gen: np.random.Generator, q: int, K: int, sparse: bool = False) -> MarginalMatrix:
    """Random rounding instance; sparse mode zeroes entries but keeps rows valid."""
    u = gen.dirichlet(np.ones(K), size=q)
    if sparse and K >= 2:
        mask = gen.random((q, K)) < 0.4
        keep = u.argmax(axis=1)
        mask[np.arange(q), keep] = False
        u[mask] = 0.0
        u /= u.sum(axis=1, keepdims=True)
    return validate(u)


def instance_battery(seed: int, count: int, q_max: int = 10, K_max: int = 8):
    """Deterministic battery of mixed dense/sparse instances."""
    gen = np.random.default_rng(seed)
    out = []
    for t in range(count):
        q = int(gen.integers(1, q_max + 1))
        K = int(gen.integers(2, K_max + 1))
        out.append(random_instance(gen, q, K, sparse=bool(t % 3 == 2)))
    return out


def vertex_enumeration_optimum(c, rows, bounds):
    """Brute-force LP optimum for small problems: enumerate candidate vertices.

    rows are (dense_coef, rel, rhs); bounds must be finite boxes. Returns the
    best objective over all feasible intersections of n active planes.
    Independent of the simplex implementation.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    planes = []
    for coef, rel, rhs in rows:
        planes.append((np.asarray(coef, dtype=float), float(rhs)))
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, float(lo)))
        planes.append((e, float(hi)))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if np.linalg.matrix_rank(A) < n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        ok = True
        for coef, rel, rhs in rows:
            ax = float(np.dot(coef, x))
            if rel == "<=" and ax > rhs + 1e-8:
                ok = False
            elif rel == ">=" and ax < rhs - 1e-8:
                ok = False
            elif rel == "=" and abs(ax - rhs) > 1e-8:
                ok = False
            if not ok:
                break
        if ok:
            for j, (lo, hi) in enumerate(bounds):
                if x[j] < lo - 1e-8 or x[j] > hi + 1e-8:
                    ok = False
                    break
        if ok:
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def linprog_optimum(problem, method):
    """Optimum of an LPProblem from scipy's linprog, built from dense rows.

    Independent of the adapter in ``corround.simplex``: rows are densified
    one by one and ``>=`` rows enter as negated ``<=`` rows.
    """
    ub_a, ub_b, eq_a, eq_b = [], [], [], []
    for pos, (_, rel, rhs) in enumerate(problem.constraints):
        row = np.zeros(problem.n)
        idx, val = problem.row_arrays(pos)
        row[idx] = val
        if rel == "=":
            eq_a.append(row)
            eq_b.append(rhs)
        else:
            sign = -1.0 if rel == ">=" else 1.0
            ub_a.append(sign * row)
            ub_b.append(sign * rhs)
    res = linprog(problem.c, A_ub=np.array(ub_a) if ub_a else None, b_ub=ub_b or None,
                  A_eq=np.array(eq_a) if eq_a else None, b_eq=eq_b or None,
                  bounds=problem.bounds, method=method)
    assert res.status == 0, res.message
    return float(res.fun)


def mps_sha256(problem) -> str:
    """SHA-256 of a problem's MPS text from ``write_lp``."""
    buf = io.StringIO()
    write_lp(problem, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class UnitUniforms(RandomStream):
    """A stream whose every uniform is exactly 1.0, the top of its support."""

    def uniform(self, size=None):
        if size is None:
            self.position += 1
            return 1.0
        u = np.ones(size)
        self.position += int(u.size)
        return u


@pytest.fixture
def rng_gen():
    return np.random.default_rng(20240817)
