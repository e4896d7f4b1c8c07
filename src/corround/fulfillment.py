"""Dynamic multi-item fulfillment: DLP benchmark, policies, simulator.

An instance has n items, K fulfillment centers plus a null FC 0 with
unbounded inventory (an item sent there is simply not fulfilled and pays a
shortage cost), J regions, and a horizon of T time steps. At most one order
arrives per step: order type a from region j with probability rates[a, j].

The deterministic LP (DLP) routes expected demand through fulfillment
frequencies u^a_kij and per-order usage bounds y^a_kj >= u^a_kij, minimizing
expected unit plus fixed costs subject to starting inventories. Its optimum
lower-bounds the expected cost of every dispatch policy, so simulated costs
are reported as a loss percentage over it.

Policies:

* ``myopic`` — each item goes to the cheapest (closest) FC that carries it
  and still has stock, else null; ignores the plan.
* ``independent`` / ``dilate`` / ``force_open`` — randomized dispatch from
  the plan's frequencies using the named rounding scheme, without looking at
  remaining inventory; stocked-out items fall through to null.
* ``auto`` — per order type, whichever of dilate/force_open has the better
  theoretical ratio.

Since the randomized policies never read stock, `simulate` dispatches a
whole arrival stream at once: one draw of the decision substream, each
request started at its item's favorite FC, one `rounding.draw_kernel` call
per (scheme, fractional plan row) for the orders whose row gives some item
more than one FC, and stock-outs by rank, the r-th request for an (FC,
item), counted from 0 in arrival order, being served iff r <
floor(inventory). The draws read the plan's dispatch table: every plan row
checked against the instance and normalised once, its ``auto`` scheme, and
the rows' favorites. The first randomized call on a plan builds it and
every later call reuses it.
``myopic`` reads stock, but an item's stock serves only that item's
requests, so it dispatches every item at once in at most K + 1 stock-out
phases, each ranking the unsettled requests the same way. All policies
then share the rank step and the array bookkeeping of costs and counts.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import rounding, simplex
from .streams import RandomStream

POLICIES = ("myopic", "independent", "dilate", "force_open", "auto")

# substream indices for RandomStream.derive; arrivals are shared across
# policies by construction, decisions are consumed per policy
ARRIVAL_SUBSTREAM = 0x00A221
DECISION_SUBSTREAM = 0x00DEC1

RATE_TOL = 1e-12
INV_TOL = 1e-6
PLAN_TOL = 1e-7   # item rows of a plan's u sum to 1, and y >= max_i u, within this


class FulfillmentError(ValueError):
    pass


class DLPSolveError(RuntimeError):
    """The DLP did not come back optimal."""


@dataclass(frozen=True)
class FulfillmentInstance:
    """Problem data; inventory row 0 is the null FC and is all +inf."""

    n: int
    K: int
    J: int
    T: int
    types: tuple            # tuple of tuples: distinct 0-based int item ids
    rates: np.ndarray       # (n_types, J), sum <= 1
    unit_cost: np.ndarray   # (K+1, n, J); row 0 = shortage cost
    fixed_cost: np.ndarray  # (K+1, J)
    inventory: np.ndarray   # (K+1, n);    row 0 = +inf
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n", "K", "J", "T"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        try:
            object.__setattr__(self, "types", tuple(tuple(map(operator.index, a)) for a in self.types))
        except TypeError:
            raise FulfillmentError("order types must be sequences of integer item ids") from None
        rates, unit, fixed, inv = (_floats(name, getattr(self, name))
                                   for name in ("rates", "unit_cost", "fixed_cost", "inventory"))
        if rates.shape != (len(self.types), self.J):
            raise FulfillmentError(f"rates shape {rates.shape} != (types, J)")
        if unit.shape != (self.K + 1, self.n, self.J):
            raise FulfillmentError(f"unit_cost shape {unit.shape} != (K+1, n, J)")
        if fixed.shape != (self.K + 1, self.J):
            raise FulfillmentError(f"fixed_cost shape {fixed.shape} != (K+1, J)")
        if inv.shape != (self.K + 1, self.n):
            raise FulfillmentError(f"inventory shape {inv.shape} != (K+1, n)")
        for arr, name in ((rates, "rates"), (unit, "unit_cost"), (fixed, "fixed_cost")):
            if not np.all(np.isfinite(arr)):
                raise FulfillmentError(f"{name} has a non-finite entry")
        if np.any(np.isnan(inv)):
            raise FulfillmentError("inventory has a NaN entry")
        if np.any(rates < 0.0):
            raise FulfillmentError("negative arrival rate")
        if rates.sum() > 1.0 + RATE_TOL:
            raise FulfillmentError(f"arrival rates sum to {rates.sum()} > 1")
        if not np.all(np.isinf(inv[0])):
            raise FulfillmentError("null FC must have unbounded inventory")
        if np.any(inv[1:] < 0.0):
            raise FulfillmentError("negative inventory")
        for t, a in enumerate(self.types):
            if len(a) == 0:
                raise FulfillmentError(f"order type {t} is empty")
            if len(set(a)) != len(a):
                raise FulfillmentError(f"order type {t} repeats an item")
            if min(a) < 0 or max(a) >= self.n:
                raise FulfillmentError(f"order type {t} names an unknown item")
        for arr, name in ((rates, "rates"), (unit, "unit_cost"), (fixed, "fixed_cost"), (inv, "inventory")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _count(name: str, value) -> int:
    """An instance count as an int >= 0; FulfillmentError names the field."""
    try:
        v = operator.index(value)
    except TypeError:
        raise FulfillmentError(f"{name} must be an integer, got {value!r}") from None
    if v < 0:
        raise FulfillmentError(f"{name} must be >= 0, got {v}")
    return v


def _floats(name: str, value) -> np.ndarray:
    """An instance array as floats; FulfillmentError names the field."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise FulfillmentError(f"{name} is not an array of numbers") from None


@dataclass(frozen=True)
class DLPIndex:
    """Column layout of the DLP; pairs orders (type, region) with rate > 0.

    Pair p owns two contiguous column blocks: its u block starts at
    ``u_off[p]`` and holds u^a_kij for item slot pos and FC k (null FC 0
    included) at ``u_off[p] + pos*(K+1) + k``; its y block holds y^a_kj
    at ``n_u + p*(K+1) + k``, n_u being the number of u columns, so every
    u block comes before every y block. Rows are one inventory row per
    real FC k and item i with finite stock (k = 1..K outer, item inner),
    then one assignment row per item slot, then one linking row per u
    column, all in pair order.
    """

    pairs: tuple            # ((t, j), ...) in build order
    u_off: tuple            # pair position -> first u column


def build_dlp(inst: FulfillmentInstance) -> tuple[simplex.LPProblem, DLPIndex]:
    """Assemble the DLP.

    Variables exist for every (order type, region) pair with positive
    arrival rate: fulfillment frequencies u for each item slot and FC
    (null included), and usage bounds y per FC. Rows are the inventory
    budgets per non-null (k, i), one assignment equality per item slot,
    and the linking rows y >= u. The null FC has no inventory rows, and
    neither has a (k, i) with infinite stock, whose budget never binds.

    Each block of rows is stated as (value, row, column) triplets off the
    layout: item slot s (slots numbered in pair order) owns the u columns
    s*(K+1) .. s*(K+1) + K, and pair p the y columns n_u + p*(K+1) + k.
    """
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
    return problem, DLPIndex(pairs, tuple(u_off.tolist()))


@dataclass(frozen=True, eq=False)
class DLPlan:
    """Fulfillment frequencies u^a_kij and usage bounds y^a_kj per order (t, j).

    A plan is well formed when it is built: ``u`` and ``y`` have the same
    keys, (t, j) pairs of ints; each ``u[t, j]`` is a (q >= 1, C) array,
    with one C for the whole plan, and each ``y[t, j]`` a (C,) array; every
    entry is finite and non-negative; each item's row of u sums to 1 and
    y >= max_i u, both within PLAN_TOL; the objective is a finite number.
    Otherwise construction raises FulfillmentError naming the first bad key
    in sorted order, also through `plan_from_json` and unpickling. Whether
    a plan fits an instance (`_plan_keys`) is checked by `check`, by the
    randomized policies of `simulate` and by `theoretical_beta`.

    ``u`` and ``y`` hold read-only copies of the arrays given, in sorted
    key order. The randomized policies draw through the plan's dispatch
    table, which the first `simulate` call on an instance builds and later
    calls reuse; a pickled plan leaves it behind, and the copy builds its
    own.
    """

    objective: float
    u: Mapping   # (t, j) -> (q, K+1) array
    y: Mapping   # (t, j) -> (K+1,) array
    _dispatch: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.objective, numbers.Real) or not math.isfinite(self.objective):
            raise FulfillmentError(f"plan objective {self.objective!r} is not a finite number")
        object.__setattr__(self, "objective", float(self.objective))
        u, y = _plan_arrays(self.u, "u"), _plan_arrays(self.y, "y")
        if u.keys() != y.keys():
            raise FulfillmentError(f"plan row {min(u.keys() ^ y.keys())} has only one of u and y")
        keys = list(u)
        C = y[keys[0]].size if keys else 0
        for key in keys:
            if u[key].ndim != 2 or not len(u[key]) or u[key].shape[1] != C or y[key].shape != (C,):
                raise FulfillmentError(f"plan row {key} has u of shape {u[key].shape} and y of shape "
                                       f"{y[key].shape}, not (q >= 1, {C}) and ({C},)")
        # one read-only copy of every item row and every y, checked in one
        # pass; key p owns rows[start[p]:start[p] + q[p]] and cols[p]
        rows = np.concatenate([np.empty((0, C)), *u.values()])
        cols = np.concatenate([np.empty(0), *y.values()]).reshape(len(keys), C)
        rows.flags.writeable = cols.flags.writeable = False
        q = np.fromiter(map(len, u.values()), dtype=np.intp, count=len(keys))
        start = np.cumsum(q) - q
        object.__setattr__(self, "u", MappingProxyType(
            {key: rows[s:s + n] for key, s, n in zip(keys, start.tolist(), q.tolist())}))
        object.__setattr__(self, "y", MappingProxyType(dict(zip(keys, cols))))
        fine = lambda a: ((a >= 0.0) & (a < np.inf)).all(axis=1)
        bad = ~np.array([
            np.logical_and.reduceat(fine(rows), start) & fine(cols),
            np.logical_and.reduceat(np.abs(rows.sum(axis=1) - 1.0) <= PLAN_TOL, start),
            (cols >= np.maximum.reduceat(rows, start) - PLAN_TOL).all(axis=1),
        ])
        if bad.any():
            p = int(np.argmax(bad.any(axis=0)))
            what = ("a negative or non-finite entry", "an item row not summing to 1", "y < max u")
            raise FulfillmentError(f"plan row {keys[p]} has {what[np.argmax(bad[:, p])]}")

    def __reduce__(self):
        return DLPlan, (self.objective, dict(self.u), dict(self.y))

    def check(self, inst: FulfillmentInstance) -> None:
        """Check that the plan fits the instance and keeps to its stock.

        Raises FulfillmentError when a row is not an order of the instance
        or has the wrong shape (`_plan_keys`), when an order with a positive
        rate has no row, or when the expected flow sum T * rate * u of an
        item to a real FC exceeds its stock by more than INV_TOL.
        """
        keys = _plan_keys(inst, self)
        missing = [pair for pair in map(tuple, np.argwhere(inst.rates > 0.0).tolist()) if pair not in self.u]
        if missing:
            raise FulfillmentError(f"plan has no row for order {missing[0]}")
        # one pass over every item row: T * rate * u, added up per item
        rows = np.concatenate([np.empty((0, inst.K + 1)), *self.u.values()])
        items = np.fromiter(itertools.chain.from_iterable(inst.types[t] for t, _ in keys), dtype=np.intp)
        weight = np.repeat([inst.T * inst.rates[key] for key in keys], [len(a) for a in self.u.values()])
        flow = np.zeros((inst.n, inst.K + 1))
        np.add.at(flow, items, weight[:, None] * rows)
        over = flow[:, 1:] - inst.inventory[1:].T
        if over.max(initial=0.0) > INV_TOL:
            raise FulfillmentError(f"plan oversubscribes inventory by {over.max():.2e}")


def _plan_arrays(mapping: Mapping, name: str) -> dict:
    """A plan's u or y as float arrays in sorted (t, j) order, t and j made
    ints."""
    arrays = {}
    for key, a in mapping.items():
        try:
            t, j = key
            arrays[operator.index(t), operator.index(j)] = np.asarray(a, dtype=float)
        except (TypeError, ValueError):
            raise FulfillmentError(f"plan {name} at {key!r} is not an int (type, region) pair "
                                   "with an array of numbers") from None
    return dict(sorted(arrays.items()))


def _plan_keys(inst: FulfillmentInstance, plan: DLPlan) -> list:
    """The plan's (t, j) keys in sorted order, each checked to fit the
    instance: an order of it, whose u row has one row per item of type t
    and one column per FC, null FC 0 included; else FulfillmentError
    naming the pair."""
    keys = list(plan.u)
    for t, j in keys:
        if not (0 <= t < len(inst.types) and 0 <= j < inst.J):
            raise FulfillmentError(f"plan row {(t, j)} is not an order of the instance")
        shape = (len(inst.types[t]), inst.K + 1)
        if plan.u[(t, j)].shape != shape:
            raise FulfillmentError(f"plan row {(t, j)} has shape {plan.u[(t, j)].shape}, the instance needs {shape}")
    return keys


def solve_dlp(inst: FulfillmentInstance, max_pivots: int = 10 ** 6) -> DLPlan:
    """Solve the DLP and return the verified plan."""
    problem, index = build_dlp(inst)
    sol = simplex.solve(problem, max_pivots=max_pivots)
    if sol.status != simplex.OPTIMAL:
        raise DLPSolveError(f"DLP ended with status {sol.status}")
    x, K1 = np.clip(sol.x, 0.0, None), inst.K + 1
    u = {(t, j): x[s:s + len(inst.types[t]) * K1].reshape(-1, K1) for (t, j), s in zip(index.pairs, index.u_off)}
    plan = DLPlan(objective=float(sol.objective), u=u, y={key: a.max(axis=0) for key, a in u.items()})
    plan.check(inst)
    return plan


@dataclass(frozen=True)
class SimulationReport:
    policy: str
    scheme: str
    total_cost: float
    fixed_cost: float
    unit_cost: float
    shortage_cost: float
    dlp_value: float
    loss_pct: float
    orders: int
    fcs_per_order: float
    split_orders: int
    short_orders: int
    wall_ms: float
    seed: int
    uniforms: int       # decision uniforms consumed; 0 under myopic
    short_items: int    # items sent to the null FC
    dilate_orders: int      # orders drawn under dilate
    force_open_orders: int  # orders drawn under force_open
    # per FC k = 1..K, the arrival index (from 0) of the first order that
    # took the last unit of an item there; -1 where no item stocked out
    stockout_orders: tuple


def simulate(
    inst: FulfillmentInstance,
    plan: Optional[DLPlan],
    policy: str,
    rng: RandomStream,
) -> SimulationReport:
    """Run one replication of a policy over a fresh arrival sequence.

    The arrival sequence depends only on the instance and the stream seed
    (substream ARRIVAL_SUBSTREAM), so passing streams with equal seeds to
    different policies replays identical arrivals. Decisions consume a
    separate substream. Items whose drawn FC has stocked out fall through
    to the null FC. Fixed cost is charged once per distinct FC an order
    uses, the null FC included at whatever fixed cost the instance assigns
    it; the FCs-per-order metric never counts the null FC.

    The randomized policies dispatch the whole stream at once: one draw of
    the decision substream, cut per order into the draw's q, K or K + q
    uniforms. An item with one FC on its (type, region) row ships from it
    under every scheme, so only the orders on fractional rows are drawn,
    one kernel call per (scheme, row). A plan is well formed
    when it is built (see `DLPlan`); its rows are checked against the
    instance (`_plan_keys`) once, when its dispatch table is built, and a
    row that is not an order of the instance or has the wrong shape, or an
    arriving order without a row, raises FulfillmentError. Since the
    randomized policies never read stock, stock-outs follow from ranks: the
    r-th request for (k, i), counted from 0 in arrival order, is served iff
    r < floor(b_ki), which is what serving while one unit is left does.
    ``myopic`` reads stock, so it dispatches in stock-out phases, each
    ranking the unsettled requests the same way (see `_closest_fcs`); its
    picks then pass the same rank step, which serves them all. Costs are
    totalled in arrival order, item by item and, for fixed costs, FC by FC,
    as a per-order loop would add them.
    Memory grows with the stream: the decision draw, and for each order on
    a fractional row a few q * K arrays and its clocks.
    """
    if policy not in POLICIES:
        raise FulfillmentError(f"unknown policy {policy!r}")
    if policy != "myopic" and plan is None:
        raise FulfillmentError(f"policy {policy!r} needs a solved plan")
    t_start = time.perf_counter()
    arr_rng = rng.derive(ARRIVAL_SUBSTREAM)
    dec_rng = rng.derive(DECISION_SUBSTREAM)

    cdf = np.cumsum(inst.rates.ravel())
    idx = np.searchsorted(cdf, arr_rng.uniform(inst.T), side="left")
    arriving = idx[idx < inst.rates.size]
    orders = arriving.size

    # one request per (order, item slot), in arrival x item order
    sizes = np.array([len(a) for a in inst.types], dtype=np.intp)
    items = np.fromiter(itertools.chain.from_iterable(inst.types), dtype=np.intp)
    order_type, region = np.divmod(arriving, inst.J)
    n_items = sizes[order_type]
    req_off = np.cumsum(n_items) - n_items
    req_order = np.repeat(np.arange(orders), n_items)
    first_item = (np.cumsum(sizes) - sizes)[order_type]
    req_item = items[first_item[req_order] + np.arange(req_order.size) - req_off[req_order]]

    if policy == "myopic":
        fc, drawn = _closest_fcs(inst, req_item, region[req_order]), {}
    else:
        fc, drawn = _drawn_fcs(inst, plan, policy, arriving, req_off, req_order, dec_rng)

    # the r-th request for (k, i) finds stock iff r < floor(b_ki), and
    # takes the last unit iff r = floor(b_ki) - 1
    units = np.floor(inst.inventory.ravel())
    key = fc * inst.n + req_item
    rank = _ranks(key, units.size)
    cap = units[key]
    served = (rank < cap) & (fc != 0)
    last = served & (rank == cap - 1)
    stockout = np.full(inst.K + 1, -1)
    ks, first = np.unique(fc[last], return_index=True)
    stockout[ks] = req_order[last][first]
    fc = np.where(served, fc, 0)

    used = np.zeros((orders, inst.K + 1), dtype=bool)
    used[req_order, fc] = True
    item_cost = inst.unit_cost[fc, req_item, region[req_order]]
    fixed = _running_sum(inst.fixed_cost.T[region][used])
    unit = _running_sum(item_cost[served])
    shortage = _running_sum(item_cost[~served])
    real = used[:, 1:].sum(axis=1)

    total = fixed + unit + shortage
    dlp = plan.objective if plan is not None else math.nan
    loss = 100.0 * (total - dlp) / dlp if plan is not None and dlp != 0 else math.nan
    wall_ms = (time.perf_counter() - t_start) * 1e3
    return SimulationReport(
        policy=policy,
        scheme="none" if policy == "myopic" else policy,
        total_cost=total,
        fixed_cost=fixed,
        unit_cost=unit,
        shortage_cost=shortage,
        dlp_value=dlp,
        loss_pct=loss,
        orders=orders,
        fcs_per_order=int(real.sum()) / orders if orders else 0.0,
        split_orders=int(np.count_nonzero(real >= 2)),
        short_orders=int(np.count_nonzero(used[:, 0])),
        wall_ms=wall_ms,
        seed=rng.seed,
        uniforms=dec_rng.position,
        short_items=int(served.size - np.count_nonzero(served)),
        dilate_orders=drawn.get("dilate", 0),
        force_open_orders=drawn.get("force_open", 0),
        stockout_orders=tuple(stockout[1:].tolist()),
    )


def _ranks(key: np.ndarray, size: int) -> np.ndarray:
    """Per entry, the number of earlier entries with the same key, for
    keys in [0, size). Up to 65536 keys the stable sort runs on 8- or
    16-bit ints, which numpy radix-sorts."""
    key = key.astype(np.min_scalar_type(size - 1))
    by_key = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=size)
    rank = np.empty(key.size, dtype=np.intp)
    rank[by_key] = np.arange(key.size) - (np.cumsum(counts) - counts)[key[by_key]]
    return rank


def _closest_fcs(inst: FulfillmentInstance, item: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Per request, the cheapest FC (lower k on ties) that still has a unit
    of its item when it arrives, else the null FC 0.

    An item's stock serves only that item's requests, so all items run
    together in phases. Each phase sends every unsettled request to the
    first FC of its (item, region) order with a unit left and ranks the
    requests per (FC, item); per item, the requests before the first one
    ranked past its FC's units left are settled and book their units. That
    FC is then empty, so every phase closes an FC for each item it does not
    finish, and at most K + 1 phases run.
    """
    n = inst.n
    pref = np.argsort(inst.unit_cost[1:], axis=0, kind="stable") + 1  # (K, n, J)
    left = np.floor(inst.inventory)
    fc = np.zeros(item.size, dtype=np.intp)
    todo = np.arange(item.size)
    while todo.size:
        is_open = left[pref, np.arange(n)[:, None]] >= 1.0
        first = np.take_along_axis(pref, is_open.argmax(axis=0)[None], axis=0)[0]
        first[~is_open.any(axis=0)] = 0
        it = item[todo]
        pick = first[it, region[todo]]
        key = pick * n + it
        over = np.flatnonzero(_ranks(key, left.size) >= left.ravel()[key])
        stop = np.full(n, todo.size)
        closed, head = np.unique(it[over], return_index=True)
        stop[closed] = over[head]
        done = np.arange(todo.size) < stop[it]
        fc[todo[done]] = pick[done]
        left -= np.bincount(key[done], minlength=left.size).reshape(left.shape)
        todo = todo[~done]
    return fc


@dataclass(frozen=True)
class _DispatchTable:
    """A plan's rows laid out for randomized dispatch on one instance.

    ``rows[r]`` is the plan's r-th (t, j) row in key order, checked against
    the instance and normalised once. ``row_of`` maps a flat order index
    t*J + j to its row, -1 where the plan has none; per row, ``auto`` is the
    index in SCHEMES of `select_scheme`'s pick, ``per[r, s]`` the uniforms a
    draw under scheme s spends, ``fractional`` whether some item has more
    than one FC, and ``start`` the offset of its items in ``favorite``, the
    rows' `MarginalMatrix.favorite` concatenated.
    """

    rows: tuple
    row_of: np.ndarray
    auto: np.ndarray
    per: np.ndarray
    fractional: np.ndarray
    favorite: np.ndarray
    start: np.ndarray

    @classmethod
    def build(cls, inst: FulfillmentInstance, plan: DLPlan) -> "_DispatchTable":
        keys = _plan_keys(inst, plan)
        row_of = np.full(len(inst.types) * inst.J, -1, dtype=np.intp)
        row_of[[t * inst.J + j for t, j in keys]] = np.arange(len(keys))
        # a well-formed plan's rows sum to 1 within PLAN_TOL, so validate
        # cannot fail on them once the sums are divided out
        rows = [rounding.validate(a / a.sum(axis=1)[:, None]) for a in plan.u.values()]
        per = [[rounding.uniforms_per_draw(s, m.q, m.K) for s in rounding.SCHEMES] for m in rows]
        auto = [rounding.SCHEMES.index(rounding.select_scheme(m)[0]) for m in rows]
        q = np.array([m.q for m in rows], dtype=np.intp)
        return cls(tuple(rows), row_of, np.array(auto, dtype=np.intp),
                   np.array(per, dtype=np.intp).reshape(-1, len(rounding.SCHEMES)),
                   np.array([m.sparsity > 1 for m in rows], dtype=bool),
                   np.concatenate([np.empty(0, dtype=np.intp), *(m.favorite for m in rows)]),
                   np.cumsum(q) - q)


def _dispatch_table(inst: FulfillmentInstance, plan: DLPlan) -> _DispatchTable:
    """The plan's dispatch table for the instance's layout, built on first use."""
    key = (inst.K, inst.J, inst.types)
    table = plan._dispatch.get(key)
    if table is None:
        table = plan._dispatch[key] = _DispatchTable.build(inst, plan)
    return table


def _drawn_fcs(inst, plan, policy, arriving, req_off, req_order, dec_rng) -> tuple[np.ndarray, dict]:
    """Per request, the FC drawn by the policy's scheme, stock unseen, and
    per scheme the number of orders drawn under it.

    Each order draws from its (type, region) row of the plan's dispatch
    table, under its row's ``select_scheme`` pick under ``auto``. Order o
    spends its draw's uniforms from offset ``off[o]`` of one decision draw,
    the same uniforms one ``sample`` call per order would take. Every
    scheme sends an item with one FC to that FC, so each request starts at
    its item's favorite, and only the orders on fractional rows are drawn:
    one `rounding.draw_kernel` call per (scheme, row), on those orders'
    uniforms.
    """
    table = _dispatch_table(inst, plan)
    rows = table.row_of[arriving]
    if np.any(rows < 0):
        t, j = divmod(int(arriving[np.argmin(rows)]), inst.J)
        raise FulfillmentError(f"plan has no row for order {(t, j)}")
    scheme = table.auto[rows] if policy == "auto" else np.full(rows.size, rounding.SCHEMES.index(policy))
    per = table.per[rows, scheme]
    off = np.cumsum(per) - per
    u = dec_rng.uniform(int(per.sum()))
    fc = table.favorite[(table.start[rows] - req_off)[req_order] + np.arange(req_order.size)]
    drawn = np.flatnonzero(table.fractional[rows])
    group = scheme[drawn] * len(table.rows) + rows[drawn]
    for key in np.flatnonzero(np.bincount(group)).tolist():
        members = drawn[group == key]
        s, r = divmod(key, len(table.rows))
        width, kernel, tables = rounding.draw_kernel(table.rows[r], rounding.SCHEMES[s])
        z = kernel(tables, u[off[members, None] + np.arange(width)])[0]
        fc[req_off[members, None] + np.arange(z.shape[1])] = z
    return fc, dict(zip(rounding.SCHEMES, np.bincount(scheme, minlength=len(rounding.SCHEMES)).tolist()))


def _running_sum(x: np.ndarray) -> float:
    """Left-to-right float sum, as a loop adding one term at a time gets it."""
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def theoretical_beta(inst: FulfillmentInstance, plan: DLPlan) -> tuple[float, float]:
    """Fixed-cost-weighted average guarantee of per-order best-scheme dispatch.

    Each plan row's guarantee is `rounding.select_scheme`'s predicted ratio
    on that row of the plan's dispatch table, which checks the plan's fit to
    the instance once (`_plan_keys`), as `simulate` does. Returns (beta,
    relaxed) where relaxed = 1 + ln(max order size) is the coarser
    order-size-only bound. With no fixed-cost mass anywhere the weighted
    average degenerates; beta is then 1.
    """
    rows = _dispatch_table(inst, plan).rows
    num = den = 0.0
    for (t, j), m in zip(plan.u, rows):
        w = inst.rates[t, j] * float(inst.fixed_cost[:, j] @ plan.y[(t, j)])
        num += w * rounding.select_scheme(m)[1]
        den += w
    beta = num / den if den > 0.0 else 1.0
    return beta, 1.0 + math.log(max((m.q for m in rows), default=1))


def scale(inst: FulfillmentInstance, theta: float) -> FulfillmentInstance:
    """Scaled instance: horizon theta*T, inventories theta*b (nearest int).

    Both products are bounded before any array is scaled: theta*T must fit
    a 64-bit int and theta*b must stay finite.
    """
    if not theta > 0.0:
        raise FulfillmentError(f"scale factor must be positive, got {theta}")
    if not inst.T * theta < 2.0 ** 63:
        raise FulfillmentError(f"scaled horizon {inst.T} * {theta} does not fit a 64-bit int")
    stock = inst.inventory[1:]
    top = float(stock[np.isfinite(stock)].max(initial=0.0))
    if not math.isfinite(top * theta):
        raise FulfillmentError(f"scaled inventory {top} * {theta} is not finite")
    inv = inst.inventory.copy()
    inv[1:] = np.rint(inv[1:] * theta)
    meta = {**inst.meta, "scale_theta": inst.meta.get("scale_theta", 1.0) * theta}
    return replace(inst, T=int(round(inst.T * theta)), inventory=inv, meta=meta)


# ---------------------------------------------------------------------------
# JSON serialization (canonical: sorted keys, no whitespace variance)
# ---------------------------------------------------------------------------


def instance_to_json(inst: FulfillmentInstance) -> str:
    """Canonical JSON text; the infinite null-FC inventory row is implied."""
    doc = {
        "n": inst.n,
        "K": inst.K,
        "J": inst.J,
        "T": inst.T,
        "types": [list(a) for a in inst.types],
        "rates": inst.rates.tolist(),
        "unit_cost": inst.unit_cost.tolist(),
        "fixed_cost": inst.fixed_cost.tolist(),
        "inventory": inst.inventory[1:].tolist(),
        "meta": inst.meta,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _fields(doc, *names) -> list:
    """The named fields of a JSON object; FulfillmentError names the first
    one missing."""
    for name in names:
        if not isinstance(doc, dict) or name not in doc:
            raise FulfillmentError(f"JSON object has no field {name!r}")
    return [doc[name] for name in names]


def instance_from_json(text: str) -> FulfillmentInstance:
    doc = json.loads(text)
    n, K, J, T, types, rates, unit, fixed, stock = _fields(
        doc, "n", "K", "J", "T", "types", "rates", "unit_cost", "fixed_cost", "inventory")
    n, K, stock = _count("n", n), _count("K", K), _floats("inventory", stock)
    if stock.shape != (K, n):
        raise FulfillmentError(f"inventory shape {stock.shape} != (K, n)")
    inv = np.vstack((np.full((1, n), np.inf), stock))
    return FulfillmentInstance(n=n, K=K, J=J, T=T, types=types, rates=rates, unit_cost=unit,
                               fixed_cost=fixed, inventory=inv, meta=doc.get("meta", {}))


def plan_to_json(plan: DLPlan) -> str:
    entries = [{"type": t, "region": j, "u": u.tolist(), "y": plan.y[(t, j)].tolist()}
               for (t, j), u in plan.u.items()]
    return json.dumps({"objective": plan.objective, "entries": entries}, sort_keys=True, separators=(",", ":"))


def plan_from_json(text: str) -> DLPlan:
    objective, entries = _fields(json.loads(text), "objective", "entries")
    u, y = {}, {}
    for ent in entries:
        t, j, u_row, y_row = _fields(ent, "type", "region", "u", "y")
        if (t, j) in u:
            raise FulfillmentError(f"plan lists order {(t, j)} twice")
        u[(t, j)], y[(t, j)] = u_row, y_row
    return DLPlan(objective=objective, u=u, y=y)
