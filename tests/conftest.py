import hashlib
import io
import itertools
import math
from typing import TextIO

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from corround import simplex
from corround.errors import SolverFailure
from corround.fulfillment import DLPIndex, DLPlan, FulfillmentInstance
from corround.optimal import CLAMP_TOL, OptimalSchemeSolution, SubsetVarIndex
from corround.rounding import MarginalMatrix, validate
from corround.simplex import EQ, GE, INF, LPProblem, LPSolution
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


def linprog_highs_ds(problem, max_pivots=10 ** 6):
    """scipy's linprog result on an LPProblem, asked for the way
    ``corround.simplex.solve`` asked for it before it called HiGHS
    directly: the stored sparse rows with ``>=`` rows negated, split into
    A_ub and A_eq, dual simplex without presolve, ``max_pivots`` as maxiter.
    """
    eq = problem.relations == EQ
    sign = np.where(problem.relations == GE, -1.0, 1.0)
    data = problem.A.data * np.repeat(sign, np.diff(problem.A.indptr))
    A = sparse.csr_matrix((data, problem.A.indices, problem.A.indptr), shape=problem.A.shape)
    b = problem.rhs * sign
    return linprog(problem.c, A_ub=A[~eq], b_ub=b[~eq], A_eq=A[eq], b_eq=b[eq],
                   bounds=problem.bounds, method="highs-ds",
                   options={"maxiter": max_pivots, "presolve": False})


def colwise_solve(problem, max_pivots=10 ** 6):
    """``corround.simplex.solve`` as it was when it handed HiGHS the rows
    by column: ``>=`` rows negated, the ``<=`` rows before the ``=`` rows,
    the entries sorted by (column, row), and the residual added up with a
    per-entry row index. It runs on this thread's solver and shares the
    dual certificate with ``solve``; a problem needs at least one column.
    """
    lo, hi = problem.bounds.T
    if np.any(lo > hi):
        return LPSolution(simplex.INFEASIBLE, None, None)
    A = problem.A
    (m, n), cols, vals = A.shape, A.indices, A.data
    eq = problem.relations == EQ
    sign = np.where(problem.relations == GE, -1.0, 1.0)
    b = problem.rhs * sign
    row = np.repeat(np.arange(m), np.diff(A.indptr))
    order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
    rank = np.empty(m, dtype=np.int32)
    rank[order] = np.arange(m, dtype=np.int32)
    new_row = rank[row]
    perm = np.argsort(cols.astype(np.int64) * m + new_row, kind="stable")
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    h = simplex._solver()
    h.clearSolver()
    h.setOptionValue("simplex_iteration_limit", int(max_pivots))
    h.passModel(n, m, vals.size, int(simplex._highs.MatrixFormat.kColwise), simplex._MINIMIZE,
                0.0, problem.c, lo, hi, np.where(eq, b, -INF)[order], b[order], start,
                new_row[perm], (vals * sign[row])[perm], np.zeros(n, dtype=np.int32))
    h.run()
    status = simplex._STATUS[h.getModelStatus()]
    nit = h.getInfoValue("simplex_iteration_count")[1]
    if status != simplex.OPTIMAL:
        return LPSolution(status, None, None, nit)
    sol = h.getSolution()
    x = np.array(sol.col_value)
    obj = float(problem.c @ x)
    r = np.bincount(row, weights=vals * x[cols], minlength=m) * sign - b
    viol = max(float(r[~eq].max(initial=0.0)), float(np.abs(r[eq]).max(initial=0.0)),
               float((lo - x).max(initial=0.0)), float((x - hi).max(initial=0.0)))
    y = np.empty(m)
    y[order] = sol.row_dual
    y, w, dual_res, gap = simplex._dual_certificate(problem, obj, sign, y, np.array(sol.col_dual))
    return LPSolution(status, obj, x, nit, viol, dual_res, gap, y, w)


def lp_arrays(problem) -> list:
    """A problem's arrays as (name, dtype, bytes), so that equal lists mean
    equal bit for bit, the sign of a zero included."""
    arrays = {"c": problem.c, "indptr": problem.A.indptr, "indices": problem.A.indices,
              "data": problem.A.data, "relations": problem.relations, "rhs": problem.rhs,
              "bounds": problem.bounds}
    return [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()]


def assert_same_lp(got, want):
    """``got`` holds ``want``'s arrays bit for bit, and rebuilding it from
    its ``constraints`` rows gives them again."""
    assert lp_arrays(got) == lp_arrays(want)
    assert lp_arrays(LPProblem(got.c, got.constraints, got.bounds)) == lp_arrays(want)


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


def mps_sha256(problem) -> str:
    """SHA-256 of a problem's MPS text from ``write_lp``."""
    buf = io.StringIO()
    write_lp(problem, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def live_subset_lp(m: MarginalMatrix) -> tuple[LPProblem, SubsetVarIndex]:
    """The subset LP over the live subsets with a column for every cell,
    forced or free: ``optimal.build_lp`` as it was before the forced cells
    (item i meets S in FC k alone, so u_ki(S) = z(S)) left the LP. Kept as
    the oracle of the reduced LP; its MPS text and solutions are pinned."""
    q, K = m.q, m.K
    inside = (np.arange(2 ** K)[:, None] >> np.arange(K) & 1).astype(bool)  # [S, k]: k in S
    on = m.u > 0.0
    live = np.flatnonzero((inside @ on.T).all(axis=1))
    inside = inside[live]
    n_live = live.size
    cells = np.argwhere(inside[:, None, :] & on)   # (j, i, k) for S = live[j]
    J, I, F = cells.T
    first = 1 + n_live  # column of the first cell
    cell_col, z_col = first + np.arange(len(cells)), np.arange(1, first)
    cover = np.arange(n_live * q)
    n_marg = np.count_nonzero(on)
    marg_row = cover.size - 1 + np.cumsum(on.T).reshape(K, q)   # where u_ki > 0
    usage = cover.size + n_marg + np.arange(K)
    fc, j = np.nonzero(inside.T)   # FC fc is in live subset j
    # by block: cover rows (-z, cells), marginal rows, usage rows (-y alpha, z), sum of z
    values = np.concatenate((-np.ones(cover.size), np.ones(2 * len(cells)), -m.y,
                             np.ones(fc.size + n_live)))
    rows = np.concatenate((cover, J * q + I, marg_row[F, I], usage, usage[fc],
                           np.full(n_live, cover.size + n_marg + K)))
    cols = np.concatenate((z_col[cover // q], cell_col, cell_col, np.zeros(K, dtype=np.int64),
                           z_col[j], z_col))
    EQ, LE = simplex.EQ, simplex.LE
    relations = np.repeat(np.array([EQ, EQ, LE, EQ], dtype=np.int8), (cover.size, n_marg, K, 1))
    rhs = np.concatenate((np.zeros(cover.size), m.u.T[on.T], np.zeros(K), [1.0]))

    c = np.zeros(first + len(cells))
    c[0] = 1.0
    cells[:, 0] = live[J]   # J is a view of this column: its last read was above
    problem = simplex.LPProblem.from_arrays(c, (values, rows, cols), relations, rhs)
    return problem, SubsetVarIndex(K=K, q=q, live=live, cells=cells, col=cell_col)


def solve_live_subset_lp(m: MarginalMatrix) -> OptimalSchemeSolution:
    """The verified scheme from `live_subset_lp`, assembled the way
    ``optimal.solve_optimal_alpha`` assembled it from that LP."""
    problem, index = live_subset_lp(m)
    sol = simplex.solve(problem)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(f"subset LP ended with status {sol.status}")
    first = 1 + index.live.size
    z = np.zeros(2 ** index.K)
    z[index.live] = sol.x[1:first]
    low = np.flatnonzero(z < CLAMP_TOL)
    if low.size:
        raise SolverFailure(f"z({low[0]:b}) = {float(z[low[0]])} below clamp tolerance")
    out = OptimalSchemeSolution(
        alpha=float(sol.x[0]), q=index.q, z=np.where(z < 0.0, 0.0, z),
        cells=index.cells, mass=np.where(sol.x[first:] < 0.0, 0.0, sol.x[first:]),
    )
    out.verify(m)
    return out


def full_dlp(inst: FulfillmentInstance) -> tuple[LPProblem, DLPIndex]:
    """The DLP with a u column for every (item slot, FC) cell, stocked or
    not: ``fulfillment.build_dlp`` as it was before the zero-stock cells
    (whose budget row forces u to 0) left the LP, except that its index
    lists every cell in ``cells``. Kept as the oracle of the reduced LP;
    its MPS text and arrays are pinned."""
    K1 = inst.K + 1
    pt, pj = np.nonzero(inst.rates > 0.0)
    pairs = tuple(zip(pt.tolist(), pj.tolist()))
    q = np.array([len(inst.types[t]) for t in pt.tolist()], dtype=np.intp)
    u_off = (np.cumsum(q) - q) * K1
    # per item slot: its pair, its item and its order's weight T * rate
    pair = np.repeat(np.arange(len(pairs)), q)
    item = np.fromiter(itertools.chain.from_iterable(inst.types[t] for t in pt.tolist()),
                       dtype=np.intp, count=int(q.sum()))
    w = inst.T * inst.rates[pt, pj]
    n_s = item.size
    n_u = n_s * K1
    c = np.concatenate((
        (w[pair, None] * inst.unit_cost[:, item, pj[pair]].T).ravel(),
        (w[:, None] * inst.fixed_cost[:, pj].T).ravel(),
    ))

    # an inventory row per finite stock (k, i) of a real FC, in (k, i) order:
    # u column s*(K+1) + k enters the row of (k, item of s) with weight T * rate
    finite = inst.inventory < math.inf
    finite[0] = False
    n_inv = np.count_nonzero(finite)
    stocked = finite[:, item].T.ravel()
    inv_row = (np.cumsum(finite) - 1).reshape(finite.shape)[:, item].T.ravel()
    u_col = np.arange(n_u)
    link = n_inv + n_s + u_col   # the linking row u <= y of each u column
    values = np.concatenate((np.repeat(w[pair], K1)[stocked], np.repeat([1.0, 1.0, -1.0], n_u)))
    rows = np.concatenate((inv_row[stocked], n_inv + u_col // K1, link, link))
    cols = np.concatenate((u_col[stocked], u_col, u_col, n_u + np.repeat(pair * K1, K1) + u_col % K1))
    relations = np.repeat(np.array([simplex.LE, simplex.EQ, simplex.LE], dtype=np.int8), (n_inv, n_s, n_u))
    rhs = np.concatenate((inst.inventory[finite], np.ones(n_s), np.zeros(n_u)))
    problem = simplex.LPProblem.from_arrays(c, (values, rows, cols), relations, rhs)
    return problem, DLPIndex(pairs, tuple(u_off.tolist()), u_col)


def solve_full_dlp(inst: FulfillmentInstance, max_pivots: int = 10 ** 6) -> DLPlan:
    """The verified plan from `full_dlp`, assembled the way
    ``fulfillment.solve_dlp`` assembled it from that LP."""
    problem, index = full_dlp(inst)
    sol = simplex.solve(problem, max_pivots=max_pivots)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(f"DLP ended with status {sol.status}")
    x, K1 = np.clip(sol.x, 0.0, None), inst.K + 1
    u = {(t, j): x[s:s + len(inst.types[t]) * K1].reshape(-1, K1) for (t, j), s in zip(index.pairs, index.u_off)}
    plan = DLPlan(objective=float(sol.objective), u=u)
    plan.check(inst)
    return plan


def independent_usage(m: MarginalMatrix) -> np.ndarray:
    """Exact P[FC k used] under the independent scheme: each item draws its
    FC on its own, so k stays unused with probability prod_i (1 - u_ki)."""
    return 1.0 - np.prod(1.0 - m.u, axis=0)


def dilate_usage(m: MarginalMatrix) -> np.ndarray:
    """Exact P[FC k used] under the dilate scheme.

    With W_j = E_j * y_j, i.i.d. Exp(1), item i sees FC j at W_j / u_ji and
    takes the first FC it sees. Given W_k = w, the items of a set T all take
    k with probability exp(-w * s_T), s_T = sum_{j != k} max_{i in T}
    u_ji / u_ki. Inclusion-exclusion over the sets T of items with u_ki > 0,
    integrated over w, gives P[k unused] = sum_T (-1)^|T| / (1 + s_T), the
    empty T giving 1: O(2^n n K) for an FC that n items can take, in one
    array pass over all T."""
    usage = np.zeros(m.K)
    for k in range(m.K):
        items = np.flatnonzero(m.u[:, k] > 0.0)
        ratio = np.delete(m.u[items], k, axis=1) / m.u[items, k, None]   # (|items|, K - 1)
        T = (np.arange(2 ** items.size)[:, None] >> np.arange(items.size) & 1).astype(bool)
        s = np.where(T[:, :, None], ratio, 0.0).max(axis=1, initial=0.0).sum(axis=1)
        sign = np.where(T.sum(axis=1) % 2, -1.0, 1.0)
        usage[k] = 1.0 - (sign / (1.0 + s)).sum()
    return usage


class ConstantUniforms(RandomStream):
    """A stream whose every uniform is ``value``; subclasses fix the value."""

    value = 1.0

    def uniform(self, size=None):
        if size is None:
            self.position += 1
            return self.value
        u = np.full(size, self.value)
        self.position += int(u.size)
        return u


class UnitUniforms(ConstantUniforms):
    """Every uniform is exactly 1.0, the top of the stream's support."""


class SmallestUniforms(ConstantUniforms):
    """Every uniform is 2**-53, the smallest value RandomStream.uniform
    returns (1 minus the largest double below 1)."""

    value = 2.0 ** -53


class TinyUniforms(ConstantUniforms):
    """Every uniform is the smallest positive double, 5e-324."""

    value = math.ulp(0.0)


@pytest.fixture
def rng_gen():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# The dilate and force_open kernels as they were before they were laid out
# by position: tables per item (q, K) in the dense family, whose kernels
# took the argmin over each draw's (q, K) observed times, and a support
# family whose kernel gathered each position's clocks draw by draw. Kept as
# differential oracles for the position-major kernels.
# ---------------------------------------------------------------------------


def legacy_tables(m: MarginalMatrix, scheme: str, support: bool) -> tuple:
    """A matrix's dilate or force_open tables in the item-major layout."""
    q, K = m.u.shape
    closed = m.y == 0.0
    clock = np.where(closed, -np.inf, -m.y), np.where(closed, np.inf, -np.inf)
    fav = m.favorite
    if support:
        ratios = m.y.take(m.support) / m.u.take(m.support + np.arange(0, m.u.size, K))
        if scheme == "dilate":
            return clock + (m.support, ratios)
        cols = np.where(m.support == fav, K + np.arange(q), m.support)
        return clock + (m.support, cols, ratios, fav, 1.0 / m.y[fav], m.hide_prob)
    if scheme == "dilate":
        return clock + (np.where(m.u > 0.0, np.arange(K), K), m.ratios)
    cols = np.where(m.u > 0.0, np.arange(K), K + q)
    cols[np.arange(q), fav] = K + np.arange(q)
    return clock + (cols, m.ratios, fav.copy(), 1.0 / m.y[fav], m.hide_prob)


def _legacy_clocks(divisor, floor, u, q=0):
    K = divisor.shape[-1]
    c = np.empty(u.shape[:-1] + (K + q + 1,))
    c[..., -1] = np.inf
    e = np.log(u[..., :K], out=c[..., :K])
    e /= divisor
    np.maximum(e, floor, out=e)
    return c, e


def _legacy_hide(c, seen, cap, u, hide):
    K = u.shape[-1] - cap.shape[-1]
    s = c[..., K:-1]
    np.minimum(seen, cap, out=s)
    np.copyto(s, cap, where=u[..., K:] <= hide)


def _legacy_scan(clocks, cols, ratios, fcs):
    n, w = clocks.shape
    flat = clocks.ravel()
    base = np.arange(0, n * w, w)[:, None]
    first = flat.take(cols[0] + base)
    first *= ratios[0]
    z = np.empty(first.shape, dtype=np.intp)
    z[...] = fcs[0]
    t = np.empty_like(first)
    better = np.empty(first.shape, dtype=bool)
    for p in range(1, len(cols)):
        flat.take(cols[p] + base, out=t)
        t *= ratios[p]
        np.less(t, first, out=better)
        np.minimum(first, t, out=first)
        np.copyto(z, fcs[p], where=better)
    return z, first


def legacy_kernel(scheme: str, support: bool, tables: tuple, u: np.ndarray) -> tuple:
    """(z, first) of dilate or force_open draws u (n, per) on `legacy_tables`."""
    if scheme == "dilate" and support:
        divisor, floor, fcs, ratios = tables
        return _legacy_scan(_legacy_clocks(divisor, floor, u)[0], fcs, ratios, fcs)
    if scheme == "dilate":
        divisor, floor, cols, ratios = tables
        x = _legacy_clocks(divisor, floor, u)[0].take(cols, axis=-1)
        x *= ratios
        z = x.argmin(axis=-1)
        return z, np.take_along_axis(x, z[..., None], -1)[..., 0]
    if support:
        divisor, floor, fcs, cols, ratios, fav, cap, hide = tables
        c = _legacy_clocks(divisor, floor, u, cap.shape[-1])[0]
        _legacy_hide(c, c.take(fav, axis=-1), cap, u, hide)
        return _legacy_scan(c, cols, ratios, fcs)[0], None
    divisor, floor, cols, ratios, fav, cap, hide = tables
    c, e = _legacy_clocks(divisor, floor, u, cap.shape[-1])
    _legacy_hide(c, e.take(fav, axis=-1), cap, u, hide)
    x = c.take(cols, axis=-1)
    x *= ratios
    return x.argmin(axis=-1), None
