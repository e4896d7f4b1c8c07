"""Instance-optimal rounding via an LP over FC subsets.

For a given marginal matrix, the smallest achievable usage factor alpha is
the optimum of an LP with one probability z(S) per nonempty FC subset S and
conditional masses u_ki(S) splitting each marginal across the subsets that
contain k. The LP has O(q K 2^K) size, so K is capped (default 12).

The solved distribution is itself a runnable rounding scheme: draw a subset
S proportional to z, then give each item an FC inside S proportional to its
conditional masses. `sample_optimal` implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from . import simplex
from .errors import CapExceeded
from .rounding import MarginalMatrix, RoundingOutcome, inverse_cdf, pinned_cdf
from .streams import RandomStream

DEFAULT_CAP = 12
CHECK_TOL = 1e-7
CLAMP_TOL = -1e-9


class SolverFailure(RuntimeError):
    """The subset LP did not come back optimal."""


class DegenerateSubset(RuntimeError):
    """z(S) > 0 but some item has no conditional mass on S."""


@dataclass(frozen=True)
class SubsetVarIndex:
    """Column layout of the subset LP: alpha, then z, then u_ki(S)."""

    K: int
    q: int
    masks: tuple[int, ...]
    alpha_col: int
    z_col: dict
    u_col: dict  # (k, i, mask) -> column, only where u_ki > 0 and k in mask

    @property
    def n_vars(self) -> int:
        return 1 + len(self.z_col) + len(self.u_col)


def build_lp(m: MarginalMatrix, cap: int = DEFAULT_CAP) -> tuple[simplex.LPProblem, SubsetVarIndex]:
    """Assemble the subset LP (min alpha) for an instance.

    The empty subset carries no variable: rows sum to 1, so some FC is
    always used. u_ki(S) variables exist only where u_ki > 0. Subsets that
    cannot cover every item get their z forced to 0 by the coverage rows.
    """
    if m.K > cap:
        raise CapExceeded(f"K = {m.K} exceeds the subset cap {cap} (2^K blow-up)")
    q, K = m.q, m.K
    masks = tuple(range(1, 2 ** K))
    z_col = {}
    col = 1
    for mask in masks:
        z_col[mask] = col
        col += 1
    u_col = {}
    for mask in masks:
        for i in range(q):
            for k in range(K):
                if mask >> k & 1 and m.u[i, k] > 0.0:
                    u_col[(k, i, mask)] = col
                    col += 1
    n = col

    c = np.zeros(n)
    c[0] = 1.0
    rows = []
    # each item is served from exactly one FC of the realized subset
    for mask in masks:
        for i in range(q):
            coef = {z_col[mask]: -1.0}
            for k in range(K):
                key = (k, i, mask)
                if key in u_col:
                    coef[u_col[key]] = 1.0
            rows.append((coef, "=", 0.0))
    # conditional masses add up to the marginals
    for k in range(K):
        for i in range(q):
            if m.u[i, k] <= 0.0:
                continue
            coef = {u_col[(k, i, mask)]: 1.0 for mask in masks if mask >> k & 1}
            rows.append((coef, "=", float(m.u[i, k])))
    # usage of each FC stays below alpha * y_k
    for k in range(K):
        coef = {z_col[mask]: 1.0 for mask in masks if mask >> k & 1}
        coef[0] = -float(m.y[k])
        rows.append((coef, "<=", 0.0))
    # exactly one subset happens
    rows.append(({z_col[mask]: 1.0 for mask in masks}, "=", 1.0))

    return simplex.LPProblem(c=c, constraints=rows), SubsetVarIndex(
        K=K, q=q, masks=masks, alpha_col=0, z_col=z_col, u_col=u_col
    )


@dataclass(frozen=True)
class OptimalSchemeSolution:
    """alpha*, subset distribution z, and conditional masses u_ki(S)."""

    alpha: float
    K: int
    q: int
    z: dict        # mask -> probability (clamped at 0)
    u_cond: dict   # (k, i, mask) -> mass

    @cached_property
    def sorted_masks(self) -> tuple[int, ...]:
        """Subsets with positive probability, ascending bitmask (sampling support)."""
        return tuple(mk for mk in sorted(self.z) if self.z[mk] > 0.0)

    @cached_property
    def z_cdf(self) -> np.ndarray:
        return pinned_cdf([self.z[mk] for mk in self.sorted_masks])

    @cached_property
    def item_cdfs(self) -> dict:
        """mask -> (FCs of the subset, each item's pinned CDF over them).

        Covers the sampling support; the CDFs form a q x |S| array. Raises
        DegenerateSubset if some item has no conditional mass on a subset.
        """
        out = {}
        for mask in self.sorted_masks:
            members = [k for k in range(self.K) if mask >> k & 1]
            w = np.array([[self.u_cond.get((k, i, mask), 0.0) for k in members]
                          for i in range(self.q)])
            total = w.sum(axis=1)
            empty = np.flatnonzero(total <= 0.0)
            if empty.size:
                raise DegenerateSubset(
                    f"subset {mask:b} has z = {self.z[mask]} but no mass for item {empty[0]}"
                )
            out[mask] = (np.array(members), pinned_cdf(w / total[:, None]))
        return out

    @cached_property
    def usage(self) -> np.ndarray:
        out = np.zeros(self.K)
        for mask, zv in self.z.items():
            for k in range(self.K):
                if mask >> k & 1:
                    out[k] += zv
        return out

    def verify(self, m: MarginalMatrix, tol: float = CHECK_TOL) -> None:
        """Re-check every solution invariant against the instance."""
        total = sum(self.z.values())
        if abs(total - 1.0) > tol:
            raise SolverFailure(f"subset probabilities sum to {total}, not 1")
        if min(self.z.values()) < 0.0:
            raise SolverFailure("negative subset probability after clamping")
        cond_tot = np.zeros((self.q, self.K))
        for (k, i, mask), v in self.u_cond.items():
            cond_tot[i, k] += v
        if np.abs(cond_tot - m.u).max() > tol:
            raise SolverFailure("conditional masses do not reproduce the marginals")
        for mask in self.z:
            for i in range(self.q):
                s = sum(
                    self.u_cond.get((k, i, mask), 0.0)
                    for k in range(self.K)
                    if mask >> k & 1
                )
                if abs(s - self.z[mask]) > tol:
                    raise SolverFailure(
                        f"item {i} mass {s} != z = {self.z[mask]} on subset {mask:b}"
                    )
        if np.any(self.usage > self.alpha * m.y + tol):
            raise SolverFailure("usage exceeds alpha * y")


def solve_optimal_alpha(m: MarginalMatrix, cap: int = DEFAULT_CAP) -> OptimalSchemeSolution:
    """Solve the subset LP and return the verified optimal scheme."""
    problem, index = build_lp(m, cap=cap)
    sol = simplex.solve(problem)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(f"subset LP ended with status {sol.status}")
    x = sol.x
    z = {}
    for mask in index.masks:
        v = float(x[index.z_col[mask]])
        if v < CLAMP_TOL:
            raise SolverFailure(f"z({mask:b}) = {v} below clamp tolerance")
        z[mask] = max(v, 0.0)
    u_cond = {key: max(float(x[col]), 0.0) for key, col in index.u_col.items()}
    out = OptimalSchemeSolution(alpha=float(x[0]), K=index.K, q=index.q, z=z, u_cond=u_cond)
    out.verify(m)
    return out


def sample_optimal(s: OptimalSchemeSolution, rng: RandomStream) -> RoundingOutcome:
    """Draw one assignment from a solved scheme.

    One uniform picks the subset (inverse CDF over ascending bitmasks),
    then one uniform per item picks its FC within the subset.
    """
    u = rng.uniform()
    pos = int(np.searchsorted(s.z_cdf, u, side="left"))
    pos = min(pos, len(s.sorted_masks) - 1)
    mask = s.sorted_masks[pos]
    draws = rng.uniform(s.q)
    members, cdf = s.item_cdfs[mask]
    return RoundingOutcome(z=members[inverse_cdf(cdf, draws)])


# ---------------------------------------------------------------------------
# Text format: first line alpha, then "mask z" lines for every subset in
# ascending mask order, then "k i mask value" lines sorted by (mask, i, k).
# Indices are 0-based; bit k of a mask marks FC k.
# ---------------------------------------------------------------------------


def write_solution(s: OptimalSchemeSolution, f: TextIO) -> None:
    f.write(f"{s.alpha!r}\n")
    for mask in sorted(s.z):
        f.write(f"{mask} {s.z[mask]!r}\n")
    for (k, i, mask) in sorted(s.u_cond, key=lambda t: (t[2], t[1], t[0])):
        f.write(f"{k} {i} {mask} {s.u_cond[(k, i, mask)]!r}\n")


def read_solution(f: TextIO) -> OptimalSchemeSolution:
    lines = [ln for ln in f.read().splitlines() if ln.strip()]
    alpha = float(lines[0])
    z, u_cond = {}, {}
    max_mask = 0
    max_item = -1
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 2:
            z[int(parts[0])] = float(parts[1])
            max_mask = max(max_mask, int(parts[0]))
        elif len(parts) == 4:
            k, i, mask = int(parts[0]), int(parts[1]), int(parts[2])
            u_cond[(k, i, mask)] = float(parts[3])
            max_item = max(max_item, i)
        else:
            raise ValueError(f"unrecognized solution line {ln!r}")
    return OptimalSchemeSolution(
        alpha=alpha, K=max_mask.bit_length(), q=max_item + 1, z=z, u_cond=u_cond
    )
