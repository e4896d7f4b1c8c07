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
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional, TextIO

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
    types: tuple            # tuple of tuples: distinct 0-based item ids
    rates: np.ndarray       # (n_types, J), sum <= 1
    unit_cost: np.ndarray   # (K+1, n, J); row 0 = shortage cost
    fixed_cost: np.ndarray  # (K+1, J)
    inventory: np.ndarray   # (K+1, n);    row 0 = +inf
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(tuple(a) for a in self.types))
        rates = np.asarray(self.rates, dtype=float)
        unit = np.asarray(self.unit_cost, dtype=float)
        fixed = np.asarray(self.fixed_cost, dtype=float)
        inv = np.asarray(self.inventory, dtype=float)
        if rates.shape != (len(self.types), self.J):
            raise FulfillmentError(f"rates shape {rates.shape} != (types, J)")
        if unit.shape != (self.K + 1, self.n, self.J):
            raise FulfillmentError(f"unit_cost shape {unit.shape} != (K+1, n, J)")
        if fixed.shape != (self.K + 1, self.J):
            raise FulfillmentError(f"fixed_cost shape {fixed.shape} != (K+1, J)")
        if inv.shape != (self.K + 1, self.n):
            raise FulfillmentError(f"inventory shape {inv.shape} != (K+1, n)")
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


@dataclass(frozen=True)
class DLPIndex:
    """Column layout of the DLP; pairs orders (type, region) with rate > 0."""

    pairs: tuple            # ((t, j), ...) in build order
    u_col: dict             # (t, j, pos, k) -> column
    y_col: dict             # (t, j, k) -> column
    n_vars: int
    n_inventory_rows: int
    n_assignment_rows: int
    n_linking_rows: int


def build_dlp(inst: FulfillmentInstance) -> tuple[simplex.LPProblem, DLPIndex]:
    """Assemble the DLP.

    Variables exist for every (order type, region) pair with positive
    arrival rate: fulfillment frequencies u for each item slot and FC
    (null included), and usage bounds y per FC. Rows are the inventory
    budgets per non-null (k, i), one assignment equality per item slot,
    and the linking rows y >= u. The null FC has no inventory rows.
    """
    K, n = inst.K, inst.n
    pairs = [
        (t, j)
        for t in range(len(inst.types))
        for j in range(inst.J)
        if inst.rates[t, j] > 0.0
    ]
    u_col, y_col = {}, {}
    col = 0
    for (t, j) in pairs:
        for pos in range(len(inst.types[t])):
            for k in range(K + 1):
                u_col[(t, j, pos, k)] = col
                col += 1
    for (t, j) in pairs:
        for k in range(K + 1):
            y_col[(t, j, k)] = col
            col += 1
    n_vars = col

    c = np.zeros(n_vars)
    for (t, j) in pairs:
        w = inst.T * inst.rates[t, j]
        for pos, i in enumerate(inst.types[t]):
            for k in range(K + 1):
                c[u_col[(t, j, pos, k)]] = w * inst.unit_cost[k, i, j]
        for k in range(K + 1):
            c[y_col[(t, j, k)]] = w * inst.fixed_cost[k, j]

    rows = []
    by_item = {}
    for (t, j) in pairs:
        for pos, i in enumerate(inst.types[t]):
            by_item.setdefault(i, []).append((t, j, pos))
    n_invent = 0
    for k in range(1, K + 1):
        for i in range(n):
            coef = {
                u_col[(t, j, pos, k)]: inst.T * inst.rates[t, j]
                for (t, j, pos) in by_item.get(i, ())
            }
            rows.append((coef, "<=", float(inst.inventory[k, i])))
            n_invent += 1
    n_assign = 0
    for (t, j) in pairs:
        for pos in range(len(inst.types[t])):
            coef = {u_col[(t, j, pos, k)]: 1.0 for k in range(K + 1)}
            rows.append((coef, "=", 1.0))
            n_assign += 1
    n_link = 0
    for (t, j) in pairs:
        for pos in range(len(inst.types[t])):
            for k in range(K + 1):
                rows.append((
                    {u_col[(t, j, pos, k)]: 1.0, y_col[(t, j, k)]: -1.0},
                    "<=",
                    0.0,
                ))
                n_link += 1

    index = DLPIndex(
        pairs=tuple(pairs),
        u_col=u_col,
        y_col=y_col,
        n_vars=n_vars,
        n_inventory_rows=n_invent,
        n_assignment_rows=n_assign,
        n_linking_rows=n_link,
    )
    return simplex.LPProblem(c=c, constraints=rows), index


@dataclass(frozen=True)
class DLPlan:
    """Optimal fulfillment frequencies; y is post-processed to max_i u."""

    objective: float
    u: dict   # (t, j) -> (q, K+1) array
    y: dict   # (t, j) -> (K+1,) array

    def check(self, inst: FulfillmentInstance, tol: float = 1e-7) -> None:
        """Re-verify plan invariants against the instance."""
        flow = np.zeros((inst.K + 1, inst.n))
        for (t, j), mat in self.u.items():
            sums = mat.sum(axis=1)
            if np.abs(sums - 1.0).max() > tol:
                raise FulfillmentError(f"plan rows for order {(t, j)} do not sum to 1")
            if np.any(self.y[(t, j)] < mat.max(axis=0) - tol):
                raise FulfillmentError(f"plan y < max u for order {(t, j)}")
            for pos, i in enumerate(inst.types[t]):
                flow[:, i] += inst.T * inst.rates[t, j] * mat[pos]
        over = flow[1:] - inst.inventory[1:]
        if over.max() > INV_TOL:
            raise FulfillmentError(f"plan oversubscribes inventory by {over.max():.2e}")


def solve_dlp(inst: FulfillmentInstance, max_pivots: int = 10 ** 6) -> DLPlan:
    """Solve the DLP and return the verified plan."""
    problem, index = build_dlp(inst)
    sol = simplex.solve(problem, max_pivots=max_pivots)
    if sol.status != simplex.OPTIMAL:
        raise DLPSolveError(f"DLP ended with status {sol.status}")
    u, y = {}, {}
    for (t, j) in index.pairs:
        q = len(inst.types[t])
        mat = np.empty((q, inst.K + 1))
        for pos in range(q):
            for k in range(inst.K + 1):
                mat[pos, k] = sol.x[index.u_col[(t, j, pos, k)]]
        np.clip(mat, 0.0, None, out=mat)
        u[(t, j)] = mat
        y[(t, j)] = mat.max(axis=0)
    plan = DLPlan(objective=float(sol.objective), u=u, y=y)
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
    """
    if policy not in POLICIES:
        raise FulfillmentError(f"unknown policy {policy!r}")
    if policy != "myopic" and plan is None:
        raise FulfillmentError(f"policy {policy!r} needs a solved plan")
    t_start = time.perf_counter()
    arr_rng = rng.derive(ARRIVAL_SUBSTREAM)
    dec_rng = rng.derive(DECISION_SUBSTREAM)

    flat_pairs = [(t, j) for t in range(len(inst.types)) for j in range(inst.J)]
    cdf = np.cumsum(inst.rates.ravel())
    draws = arr_rng.uniform(inst.T)
    idx = np.searchsorted(cdf, draws, side="left")
    arriving = idx[idx < len(flat_pairs)]

    inv = inst.inventory.copy()
    # per (type, region): the validated plan row and the scheme that rounds it
    draws: dict[int, tuple] = {}
    myopic_cands: dict[tuple, list] = {}

    fixed = unit = shortage = 0.0
    orders = split = short = 0
    fc_count = 0

    for flat in arriving:
        t, j = flat_pairs[flat]
        a = inst.types[t]
        orders += 1
        if policy == "myopic":
            ks = []
            for i in a:
                key = (i, j)
                cands = myopic_cands.get(key)
                if cands is None:
                    cands = sorted(
                        (k for k in range(1, inst.K + 1) if inst.inventory[k, i] > 0),
                        key=lambda k: (inst.unit_cost[k, i, j], k),
                    )
                    myopic_cands[key] = cands
                pick = 0
                for k in cands:
                    if inv[k, i] >= 1.0:
                        pick = k
                        break
                ks.append(pick)
        else:
            row = draws.get(flat)
            if row is None:
                mat = np.clip(plan.u[(t, j)], 0.0, None)
                m = rounding.validate(mat / mat.sum(axis=1, keepdims=True))
                row = draws[flat] = (m, rounding.select_scheme(m)[0] if policy == "auto" else policy)
            ks = rounding.sample(row[0], row[1], dec_rng, 1)[0].tolist()

        used = set()
        any_short = False
        for pos, i in enumerate(a):
            k = ks[pos]
            if k != 0:
                if inv[k, i] >= 1.0:
                    inv[k, i] -= 1.0
                else:
                    k = 0
            if k == 0:
                shortage += inst.unit_cost[0, i, j]
                any_short = True
            else:
                unit += inst.unit_cost[k, i, j]
            used.add(k)
        for k in used:
            fixed += inst.fixed_cost[k, j]
        real = len(used - {0})
        fc_count += real
        if real >= 2:
            split += 1
        if any_short:
            short += 1

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
        fcs_per_order=fc_count / orders if orders else 0.0,
        split_orders=split,
        short_orders=short,
        wall_ms=wall_ms,
        seed=rng.seed,
    )


def theoretical_beta(inst: FulfillmentInstance, plan: DLPlan) -> tuple[float, float]:
    """Fixed-cost-weighted average guarantee of per-order best-scheme dispatch.

    Returns (beta, relaxed) where relaxed = 1 + ln(max order size) is the
    coarser order-size-only bound. With no fixed-cost mass anywhere the
    weighted average degenerates; beta is then 1.
    """
    num = den = 0.0
    max_q = 1
    for (t, j), mat in plan.u.items():
        q = len(inst.types[t])
        max_q = max(max_q, q)
        term = min(
            rounding.guarantee_dilate(q),
            1.0 / mat.max(axis=1).min(),
            rounding.guarantee_js(q),
        )
        w = inst.rates[t, j] * float(inst.fixed_cost[:, j] @ plan.y[(t, j)])
        num += w * term
        den += w
    beta = num / den if den > 0.0 else 1.0
    return beta, 1.0 + math.log(max_q)


def scale(inst: FulfillmentInstance, theta: float) -> FulfillmentInstance:
    """Scaled instance: horizon theta*T, inventories theta*b (nearest int)."""
    if not theta > 0.0:
        raise FulfillmentError(f"scale factor must be positive, got {theta}")
    inv = inst.inventory.copy()
    inv[1:] = np.rint(inv[1:] * theta)
    meta = dict(inst.meta)
    meta["scale_theta"] = meta.get("scale_theta", 1.0) * theta
    return FulfillmentInstance(
        n=inst.n,
        K=inst.K,
        J=inst.J,
        T=int(round(inst.T * theta)),
        types=inst.types,
        rates=inst.rates,
        unit_cost=inst.unit_cost,
        fixed_cost=inst.fixed_cost,
        inventory=inv,
        meta=meta,
    )


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


def instance_from_json(text: str) -> FulfillmentInstance:
    doc = json.loads(text)
    K, n = doc["K"], doc["n"]
    inv = np.empty((K + 1, n))
    inv[0] = np.inf
    inv[1:] = np.asarray(doc["inventory"], dtype=float)
    return FulfillmentInstance(
        n=n,
        K=K,
        J=doc["J"],
        T=doc["T"],
        types=tuple(tuple(a) for a in doc["types"]),
        rates=np.asarray(doc["rates"], dtype=float),
        unit_cost=np.asarray(doc["unit_cost"], dtype=float),
        fixed_cost=np.asarray(doc["fixed_cost"], dtype=float),
        inventory=inv,
        meta=doc.get("meta", {}),
    )


def write_instance_json(inst: FulfillmentInstance, f: TextIO) -> None:
    f.write(instance_to_json(inst))
    f.write("\n")


def read_instance_json(f: TextIO) -> FulfillmentInstance:
    return instance_from_json(f.read())


def plan_to_json(plan: DLPlan) -> str:
    entries = [
        {"type": t, "region": j, "u": plan.u[(t, j)].tolist(), "y": plan.y[(t, j)].tolist()}
        for (t, j) in sorted(plan.u)
    ]
    return json.dumps(
        {"objective": plan.objective, "entries": entries},
        sort_keys=True,
        separators=(",", ":"),
    )


def plan_from_json(text: str) -> DLPlan:
    doc = json.loads(text)
    u, y = {}, {}
    for ent in doc["entries"]:
        key = (ent["type"], ent["region"])
        u[key] = np.asarray(ent["u"], dtype=float)
        y[key] = np.asarray(ent["y"], dtype=float)
    return DLPlan(objective=doc["objective"], u=u, y=y)
