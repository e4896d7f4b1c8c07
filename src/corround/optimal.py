"""Instance-optimal rounding via an LP over FC subsets.

For a given marginal matrix, the smallest achievable usage factor alpha is
the optimum of an LP with one probability z(S) per live FC subset S and
conditional masses u_ki(S) splitting each marginal across the live subsets
that contain k. A subset is live if it meets every item's support; any
other subset leaves some item unserved, so its z(S) could only be 0. For L
live subsets the LP has O(q K L) size, which is O(q K 2^K) on a dense
instance, where every nonempty subset is live. The 2^K masks are still
enumerated, so K is capped (default 12).

The LP's columns are alpha, then z of each live subset in ascending mask
order, then the u columns. One table lays the cells out: ``cells`` holds a
row (S, i, k) for every live S and k in S with u_ki > 0, in lexicographic
order. Where item i meets S in FC k alone the cell is forced, u_ki(S) =
z(S), and it has no column of its own: ``col`` maps each cell to the
column that holds its mass, z(S)'s for a forced cell. On sparse instances
(each item in at most d FCs) about half the cells are forced; on a dense
one only those of the K singleton subsets. The builder, the solution, its
checks, its sampler and its text all read ``cells``; the solution's z
stays indexed by bitmask, 0 off the live subsets. The builder states the
LP's rows as (value, row, column) triplets off this layout.

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
from .rounding import MarginalMatrix, ParseError, RoundingOutcome, inverse_cdf, pinned_cdf
from .streams import RandomStream

DEFAULT_CAP = 12
CHECK_TOL = 1e-7
CLAMP_TOL = -1e-9


class SolverFailure(RuntimeError):
    """The subset LP did not come back optimal, or a solution fails its checks."""


class DegenerateSubset(RuntimeError):
    """z(S) > 0 but some item has no conditional mass on S."""


@dataclass(frozen=True, eq=False)
class SubsetVarIndex:
    """Column layout of the subset LP over its L live subsets: alpha in
    column 0, z(live[j]) in column 1 + j, then one column per free cell.

    ``cells`` lists every cell (S, i, k), free or forced, and ``col[r]`` is
    the column of ``x`` that holds the mass of row r: the cell's own column
    for a free cell, z(S)'s column for a forced one (item i meets S in FC k
    only). On a dense instance every nonempty subset is live, so z(S) sits
    in column S."""

    K: int
    q: int
    live: np.ndarray   # (L,) int: bitmasks of the live subsets, ascending
    cells: np.ndarray  # (n, 3) int: (mask, item, FC), lexicographic
    col: np.ndarray    # (n,) int: the column of x that holds each cell's mass


def build_lp(m: MarginalMatrix, cap: int = DEFAULT_CAP) -> tuple[simplex.LPProblem, SubsetVarIndex]:
    """Assemble the subset LP (min alpha) for an instance.

    The empty subset carries no variable: rows sum to 1, so some FC is
    always used. Cells (S, i, k) exist only where u_ki > 0. A subset that
    misses some item's support could only carry z(S) = 0, so it gets no
    variable either: the LP runs over the live subsets, which meet every
    item's support.

    A cell is forced when item i meets S in FC k alone: its cover row would
    say u_ki(S) = z(S), so it gets neither a column nor that row, and z(S)'s
    column stands in for it in the marginal row of (k, i). This is the
    singleton-row reduction of LP presolve, done once by construction. The
    other cells are free and get a column each, in ``cells`` order.

    The rows, each block stated as (value, row, column) triplets: one cover
    row per (live S, item i) pair that meets in two or more FCs, in (S, i)
    order (its free cells = z(S)); conditional masses add up to the
    marginals (a row per u_ki > 0, in (k, i) order); FC k's usage is at most
    alpha * y_k; one subset happens.
    """
    if m.K > cap:
        raise CapExceeded(f"K = {m.K} exceeds the subset cap {cap} (2^K blow-up)")
    q, K = m.q, m.K
    inside = (np.arange(2 ** K)[:, None] >> np.arange(K) & 1).astype(bool)  # [S, k]: k in S
    on = m.u > 0.0
    live = np.flatnonzero((inside @ on.T).all(axis=1))
    inside = inside[live]
    n_live = live.size
    cells = np.argwhere(inside[:, None, :] & on)   # (j, i, k) for S = live[j]
    J, I, F = cells.T
    pair = J * q + I
    shared = np.bincount(pair, minlength=n_live * q) > 1   # (S, i) meet in 2+ FCs: a cover row
    free = shared[pair]
    first = 1 + n_live  # column of the first free cell
    n_cover, n_free = np.count_nonzero(shared), np.count_nonzero(free)
    col = J + 1   # z(S)'s column, kept by the forced cells
    col[free] = first + np.arange(n_free)
    cover_row = np.cumsum(shared) - 1   # by (S, i) pair, where it has one
    n_marg = np.count_nonzero(on)
    marg_row = n_cover - 1 + np.cumsum(on.T).reshape(K, q)   # where u_ki > 0
    usage = n_cover + n_marg + np.arange(K)
    fc, j = np.nonzero(inside.T)   # FC fc is in live subset j
    z_col = np.arange(1, first)
    # by block: cover rows (-z, free cells), marginal rows, usage rows (-y alpha, z), sum of z
    values = np.concatenate((-np.ones(n_cover), np.ones(n_free + len(cells)), -m.y,
                             np.ones(fc.size + n_live)))
    rows = np.concatenate((np.arange(n_cover), cover_row[pair[free]], marg_row[F, I], usage,
                           usage[fc], np.full(n_live, n_cover + n_marg + K)))
    cols = np.concatenate((z_col[np.flatnonzero(shared) // q], col[free], col,
                           np.zeros(K, dtype=np.int64), z_col[j], z_col))
    EQ, LE = simplex.EQ, simplex.LE
    relations = np.repeat(np.array([EQ, EQ, LE, EQ], dtype=np.int8), (n_cover, n_marg, K, 1))
    rhs = np.concatenate((np.zeros(n_cover), m.u.T[on.T], np.zeros(K), [1.0]))

    c = np.zeros(first + n_free)
    c[0] = 1.0
    cells[:, 0] = live[J]   # J is a view of this column: its last read was above
    problem = simplex.LPProblem.from_arrays(c, (values, rows, cols), relations, rhs)
    return problem, SubsetVarIndex(K=K, q=q, live=live, cells=cells, col=col)


@dataclass(frozen=True, eq=False)
class OptimalSchemeSolution:
    """alpha*, the subset distribution and the conditional masses.

    ``z`` is indexed by bitmask, with z[0] = 0 for the empty subset;
    ``mass[r]`` is u_ki(S) for row r = (S, i, k) of ``cells``.
    """

    alpha: float
    q: int
    z: np.ndarray      # (2^K,) probabilities, clamped at 0
    cells: np.ndarray  # (n, 3) int: (mask, item, FC)
    mass: np.ndarray   # (n,)

    @property
    def K(self) -> int:
        return self.z.size.bit_length() - 1

    @cached_property
    def support(self) -> np.ndarray:
        """Subsets with positive probability, ascending bitmask."""
        return np.flatnonzero(self.z > 0.0)

    @cached_property
    def z_cdf(self) -> np.ndarray:
        return pinned_cdf(self.z[self.support])

    @cached_property
    def item_mass(self) -> np.ndarray:
        """(2^K, q) mass of each item on each subset, added FC by FC."""
        S, I, _ = self.cells.T
        n = self.z.size
        sums = np.bincount(S * self.q + I, weights=self.mass, minlength=n * self.q)
        return sums.reshape(n, self.q)

    @cached_property
    def item_cdfs(self) -> np.ndarray:
        """(support, q, K) pinned CDFs of each item's FC within each subset of
        the support; FCs outside a subset carry zero weight, so they never
        win an inverse-CDF draw. Raises DegenerateSubset if some item has
        no conditional mass on a subset."""
        total = self.item_mass[self.support]
        empty = np.argwhere(total <= 0.0)
        if empty.size:
            mask = self.support[empty[0, 0]]
            raise DegenerateSubset(
                f"subset {mask:b} has z = {self.z[mask]} but no mass for item {empty[0, 1]}"
            )
        on = self.z[self.cells[:, 0]] > 0.0
        S, I, F = self.cells[on].T
        w = np.zeros((self.support.size, self.q, self.K))
        w[np.searchsorted(self.support, S), I, F] = self.mass[on]
        return pinned_cdf(w / total[..., None])

    @cached_property
    def usage(self) -> np.ndarray:
        """P[FC k used]: the z of every subset containing k, added in mask order."""
        inside = np.arange(self.z.size)[:, None] >> np.arange(self.K) & 1
        return np.where(inside, self.z[:, None], 0.0).sum(axis=0)

    def verify(self, m: MarginalMatrix) -> None:
        """Re-check every solution invariant against the instance."""
        q, K = self.q, self.K
        if self.z.shape != (2 ** m.K,) or q != m.q or self.cells.shape != (self.mass.size, 3):
            raise SolverFailure(f"solution with q = {q}, K = {K}, {len(self.cells)} cells and "
                                f"{self.mass.size} masses does not fit q = {m.q}, K = {m.K}")
        S, I, F = self.cells.T
        if not np.all((S > 0) & (S < 2 ** K) & (I >= 0) & (I < q) & (F >= 0) & (F < K)):
            raise SolverFailure("a cell's subset, item or FC is out of range")
        if not np.all(S >> F & 1):
            raise SolverFailure("a cell's FC is not in its subset")
        if not np.all(self.mass >= 0.0):
            raise SolverFailure("negative or NaN conditional mass")
        total = self.z.sum()
        if not abs(total - 1.0) <= CHECK_TOL:
            raise SolverFailure(f"subset probabilities sum to {total}, not 1")
        if not np.all(self.z >= 0.0):
            raise SolverFailure("negative subset probability after clamping")
        marg = np.bincount(I * K + F, weights=self.mass, minlength=q * K).reshape(q, K)
        if np.abs(marg - m.u).max() > CHECK_TOL:
            raise SolverFailure("conditional masses do not reproduce the marginals")
        off = np.argwhere(np.abs(self.item_mass - self.z[:, None]) > CHECK_TOL)
        if off.size:
            mask, i = off[0]
            raise SolverFailure(
                f"item {i} mass {self.item_mass[mask, i]} != z = {self.z[mask]} on subset {mask:b}"
            )
        if not np.all(self.usage <= self.alpha * m.y + CHECK_TOL):
            raise SolverFailure("usage exceeds alpha * y")


def solve_optimal_alpha(m: MarginalMatrix, cap: int = DEFAULT_CAP) -> OptimalSchemeSolution:
    """Solve the subset LP and return the verified optimal scheme.

    Each cell's mass is read from ``x[index.col]``, so a forced cell's mass
    is its subset's z, bit for bit; z and the masses are clamped at 0."""
    problem, index = build_lp(m, cap=cap)
    sol = simplex.solve(problem)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(f"subset LP ended with status {sol.status}")
    z = np.zeros(2 ** index.K)
    z[index.live] = sol.x[1:1 + index.live.size]
    low = np.flatnonzero(z < CLAMP_TOL)
    if low.size:
        raise SolverFailure(f"z({low[0]:b}) = {float(z[low[0]])} below clamp tolerance")
    # np.where rather than np.maximum keeps a solver's -0.0 as written
    mass = sol.x[index.col]
    out = OptimalSchemeSolution(
        alpha=float(sol.x[0]), q=index.q, z=np.where(z < 0.0, 0.0, z),
        cells=index.cells, mass=np.where(mass < 0.0, 0.0, mass),
    )
    out.verify(m)
    return out


def sample_optimal(s: OptimalSchemeSolution, rng: RandomStream) -> RoundingOutcome:
    """Draw one assignment from a solved scheme.

    One uniform picks the subset (inverse CDF over ascending bitmasks),
    then one uniform per item picks its FC within the subset.
    """
    pos = min(int(np.searchsorted(s.z_cdf, rng.uniform(), side="left")), s.support.size - 1)
    return RoundingOutcome(z=inverse_cdf(s.item_cdfs[pos], rng.uniform(s.q)))


# ---------------------------------------------------------------------------
# Text format: first line alpha, then "mask z" lines for every subset in
# ascending mask order, then "k i mask value" lines sorted by (mask, i, k),
# one per cell of a live subset.
# Indices are 0-based; bit k of a mask marks FC k.
# ---------------------------------------------------------------------------


def write_solution(s: OptimalSchemeSolution, f: TextIO) -> None:
    f.write(f"{s.alpha!r}\n")
    f.writelines(f"{mask} {v!r}\n" for mask, v in enumerate(s.z.tolist()) if mask)
    f.writelines(f"{k} {i} {mask} {v!r}\n"
                 for (mask, i, k), v in zip(s.cells.tolist(), s.mass.tolist()))


def read_solution(f: TextIO) -> OptimalSchemeSolution:
    """Parse `write_solution` text. The "k i mask value" lines may come in
    any order, and masks without a "mask z" line get z = 0. Malformed text
    raises rounding.ParseError with its 1-based line number."""
    numbered = [(n, ln.split()) for n, ln in enumerate(f.read().splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ParseError(1, "empty solution file")
    (n, head), *rest = numbered
    try:
        [alpha] = [float(p) for p in head]
    except ValueError:
        raise ParseError(n, f"expected alpha, got {' '.join(head)!r}") from None
    z, cells, mass, where = {}, [], [], []
    for n, parts in rest:
        try:
            if len(parts) == 4:
                cells.append((int(parts[2]), int(parts[1]), int(parts[0])))
                mass.append(float(parts[3]))
                where.append(n)
                continue
            mask, v = parts
            mask, v = int(mask), float(v)
        except ValueError:  # a non-numeric field, or a line of another width
            raise ParseError(
                n, f"expected 'mask z' or 'k i mask value', got {' '.join(parts)!r}"
            ) from None
        if mask < 1 or mask in z:
            raise ParseError(n, f"subset {mask} is empty or listed twice")
        z[mask] = v
    zs = np.zeros(2 ** max(z, default=0).bit_length())
    zs[list(z)] = list(z.values())
    cells = np.array(cells, dtype=np.int64).reshape(-1, 3)
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    twice = np.flatnonzero(np.all(cells[1:] == cells[:-1], axis=1))
    if twice.size:
        raise ParseError(where[order[twice[0] + 1]], "conditional mass listed twice")
    return OptimalSchemeSolution(alpha=alpha, q=int(cells[:, 1].max(initial=-1)) + 1,
                                 z=zs, cells=cells, mass=np.array(mass, dtype=float)[order])
