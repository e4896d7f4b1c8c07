"""Correlated rounding schemes over fulfillment-center marginals.

An instance is a q x K matrix of probabilities: row i gives the frequencies
with which item i must be shipped from each of K fulfillment centers (FCs),
and rows sum to 1. A rounding scheme draws one FC per item so that the
per-item marginals are met exactly while few distinct FCs get used overall.

Three schemes are implemented:

* ``independent`` — each item draws its FC independently; no usage guarantee
  beyond the trivial factor q.
* ``dilate`` — every FC k draws an exponential opening clock with rate
  y_k = max_i u_ki, and item i observes clock k slowed by the factor
  y_k / u_ki; each item takes the first FC it sees open. Usage of FC k is at
  most (1 + ln q) * y_k.
* ``force_open`` — as above, but FC k is additionally forced open at time
  1/y_k, and a calibrated Bernoulli hides an early natural opening of each
  item's favorite FC so the marginals stay exact. Usage of FC k is at most
  y_k / (min_i max_k' u_k'i), which never exceeds the sparsity d.

Each scheme has one batched kernel, which maps the scheme's tables and a
block of uniforms, one row per draw, to arrays: the assignments and, for
dilate, each item's first-open time. Its tables come in two families,
which `MarginalMatrix.tables` builds on first use and caches per scheme
and family, so a matrix holds only the tables it drew from. The support
family holds each item's support (the FCs it has mass on, at most the
sparsity d of them), so a draw costs O(K + q*d) rather than O(q*K); the
dense family holds all K FCs, which saves the support's gathers where
d = K. The dilate and force_open tables are laid out by position, (P, q)
with P = d or K, and their kernel computes the clocks FC-major, gathers
them as whole rows per position and keeps a running minimum over the
positions. One matrix's tables serve a whole block of draws. Monte Carlo,
set cover and dispatch all draw through `draw_kernel`, the one place a
scheme name turns into draw code: `sample` and `mc_estimate` call it for
their matrix, and dispatch for each plan row on which some item has more
than one FC. The single-call ``*_round`` functions read the dense tables
for one draw and return light records: a `RoundingOutcome` and, for
dilate and force_open, a `RoundingTrace` of the clocks, both named tuples.
No draw multiplies 0 by inf, so the draw path needs no floating-point
error state. `mc_estimate` estimates the marginals, the FC usage, the
share of draws inside the support and, for dilate, the waiting-time tail;
checking those estimates against the guarantees is left to its callers.
Every path consumes uniforms in the exact per-call order, so batched and
one-call-at-a-time sampling produce identical assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, TextIO

import numpy as np

from .streams import RandomStream

ROW_SUM_TOL = 1e-9

SCHEMES = ("independent", "dilate", "force_open")

TAIL_GRID = np.arange(0.0, 10.5, 0.5)

# elements (draws x q x K) per block of uniforms in mc_estimate
CHUNK_ELEMS = 2_000_000


class RoundingError(ValueError):
    """Base class for invalid rounding instances or arguments; ``row`` is
    the 0-based matrix row at fault, where one is."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class NegativeEntry(RoundingError):
    pass


class NonFiniteEntry(RoundingError):
    pass


class RowSumMismatch(RoundingError):
    pass


class EmptyInstance(RoundingError):
    pass


class DomainError(RoundingError):
    pass


@dataclass(frozen=True)
class MarginalMatrix:
    """Validated rounding instance; create through :func:`validate`.

    ``u`` is the q x K probability matrix, row-major by item, read-only.
    Derived quantities, such as each scheme's `tables`, are cached on first
    access; the instance itself is immutable and safe to share across
    threads (two threads that build the same tables build equal ones).
    """

    u: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def q(self) -> int:
        return self.u.shape[0]

    @cached_property
    def K(self) -> int:
        return self.u.shape[1]

    @cached_property
    def y(self) -> np.ndarray:
        """Column maxima y_k = max_i u_ki (the usage lower bounds)."""
        y = self.u.max(axis=0)
        y.flags.writeable = False
        return y

    @cached_property
    def support(self) -> np.ndarray:
        """The support layout: item i's p-th FC with u_ki > 0, in FC order,
        at [p, i], a read-only (d, q) array for d = `sparsity`.

        An item with fewer than d such FCs repeats its last one. A draw
        over the layout scans the positions in order and keeps an earlier
        position on ties, so a repeat never wins; every support table
        repeats its entry with its FC. `np.flatnonzero` lists the entries
        row by row, so the layout needs no sort.
        """
        pos = self.u > 0.0
        count = pos.sum(axis=1)
        start = np.cumsum(count) - count
        cells = np.flatnonzero(pos)[start + np.minimum(np.arange(count.max())[:, None], count - 1)]
        s = cells - np.arange(0, self.u.size, self.K)
        s.flags.writeable = False
        return s

    def _on_support(self) -> np.ndarray:
        """u at the support layout's cells, (d, q)."""
        return self.u.take(self.support + np.arange(0, self.u.size, self.K))

    def _support_cdf(self) -> np.ndarray:
        """`row_cdf` at the support layout's cells, (d, q), computed there.

        The cumulative sum runs over the support's entries only: the zeros
        the dense sum adds in between leave it unchanged bit for bit. Like
        `row_cdf` it is pinned to 1 at an item's last positive entry, the
        layout's positions that hold its last FC (its repeats included).
        """
        cdf = np.cumsum(self._on_support(), axis=0)
        np.minimum(cdf, 1.0, out=cdf)
        cdf[self.support == self.support[-1]] = 1.0
        return cdf

    @cached_property
    def ratios(self) -> np.ndarray:
        """Dilation factors y_k / u_ki, +inf where u_ki = 0, read-only (q, K)."""
        r = np.divide(self.y[None, :], self.u, out=np.full(self.u.shape, np.inf), where=self.u > 0.0)
        r.flags.writeable = False
        return r

    @cached_property
    def row_cdf(self) -> np.ndarray:
        """The per-item cumulative marginals (q, K), column-major, read-only."""
        c = pinned_cdf(self.u)
        c.flags.writeable = False
        return c

    @cached_property
    def favorite(self) -> np.ndarray:
        """Per-item argmax_k u_ki (lowest index on ties)."""
        f = self.u.argmax(axis=1)
        f.flags.writeable = False
        return f

    @cached_property
    def hide_prob(self) -> np.ndarray:
        """Per-item hiding probability evaluated at u_{favorite(i), i}."""
        h = _hiding_probability_vec(self.u[np.arange(self.q), self.favorite])
        h.flags.writeable = False
        return h

    def tables(self, scheme: str, support: bool) -> tuple:
        """The tables of a scheme's support family (``support``) or dense
        family, built on the first call and cached per (scheme, support).

        independent: (cdf, fcs), the `row_cdf` (q, K) in the dense family
        and its entries at the `support` layout's cells in the support one.
        dilate: (divisor, floor, columns, ratios, fcs); force_open:
        (divisor, floor, columns, ratios, fcs, favorites, cap, hide), both
        laid out by position, (P, q). The support family's position p of
        item i is FC fcs[p, i] of the `support` layout (P = d), and the
        dense family's is FC p itself (P = K), so it stores no FC table
        (fcs is None). cap is 1/y_m(i) at each item's favorite FC m(i) and
        hide its `hide_prob`. Opening times are E_k = max(ln(U_k) /
        divisor_k, floor_k), with divisor_k = -y_k, which gives
        -ln(U_k)/y_k bit for bit, and floor_k = -inf; a y_k = 0 column
        divides by -inf instead, so that U_k = 1 makes no 0/0, and its floor
        of +inf keeps it closed. A draw lays its clocks out FC-major as E,
        then for force_open per item i the clock by which it sees its
        favorite, min(E_m(i), 1/y_m(i)) or, if hidden, 1/y_m(i) alone, then
        one +inf. ``columns`` gives each position of item i the clock it
        sees: K + i for a force_open favorite, else its FC where u_ki > 0
        and the +inf elsewhere, so a cell's observed time is its ratio
        times its clock and an unusable cell's is +inf * +inf. The dense
        columns and ratios are transposed views of item-major (q, K)
        arrays, `ratios` itself for the ratios, so that a single call reads
        them as rows without a copy; the support ratios and cdf are
        computed at the layout's cells, without building `ratios` or
        `row_cdf`. A zero entry adds nothing to a cumulative sum, so both
        cdf tables stop a draw at the same FC.

        Every table is read-only but the columns and favorites, which
        `ndarray.take` would copy on every call if they were (the support
        family's columns are a copy of the layout for that reason); no draw
        writes to them.
        """
        got = self._tables.get((scheme, support))
        if got is not None:
            return got
        q, K = self.u.shape
        if scheme == "independent":
            got = (self._support_cdf(), self.support) if support else (self.row_cdf, None)
        else:
            if support:
                fc, ratios = self.support, self.y.take(self.support) / self._on_support()
                cols = np.array(fc)
            else:
                fc, ratios = np.arange(K)[:, None], self.ratios.T
                cols = np.where(self.u > 0.0, np.arange(K), K + q if scheme == "force_open" else K).T
            closed = self.y == 0.0
            got = (np.where(closed, -np.inf, -self.y), np.where(closed, np.inf, -np.inf), cols, ratios,
                   self.support if support else None)
            if scheme == "force_open":
                fav = self.favorite
                np.copyto(cols, K + np.arange(q), where=fc == fav)
                got += (fav.copy(), 1.0 / self.y[fav], self.hide_prob)
        for a in got:
            if a is not None and a.dtype.kind == "f":
                a.flags.writeable = False
        self._tables[scheme, support] = got
        return got

    @cached_property
    def sparsity(self) -> int:
        """d = max_i |{k : u_ki > 0}|, counted without building `support`."""
        return int(np.count_nonzero(self.u > 0.0, axis=1).max())

    @cached_property
    def alpha_force(self) -> float:
        """1 / min_i max_k u_ki; always between 1 and the sparsity d."""
        return float(1.0 / self.u.max(axis=1).min())


class RoundingOutcome(NamedTuple):
    """Assignment vector: z[i] is the 0-based FC index for item i."""

    z: np.ndarray


class RoundingTrace(NamedTuple):
    """Internal clocks of a dilate or force-open draw, for auditing.

    ``e`` holds the FC opening times, ``x`` the per-item observed opening
    times (inf where an item cannot use an FC). ``h`` (hide flags) and
    ``m`` (per-item forced-open target) are populated by force_open only;
    ``m`` is the matrix's cached, read-only `MarginalMatrix.favorite`,
    shared by every trace of that matrix. Only the single calls build one;
    the batched kernels return arrays. Both records are named tuples: their
    fields cannot be reassigned, and ``outcome[0]`` is ``outcome.z``.
    """

    e: np.ndarray
    x: np.ndarray
    h: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None


def pinned_cdf(w: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, exactly 1 from the last positive entry on.

    The stream's uniforms lie in (0, 1], and a row of probabilities can sum
    to a few ulps under 1; unpinned, a draw U = 1.0 would land past the last
    positive entry on an FC the row gives probability 0. A draw U < 1 picks
    the same entry from the pinned and the plain cumulative sums wherever
    the plain one picks a positive entry.
    """
    w = np.asarray(w, dtype=float)
    c = np.minimum(np.cumsum(w, axis=-1), 1.0)
    last = w.shape[-1] - 1 - np.argmax(w[..., ::-1] > 0.0, axis=-1)
    c[np.arange(w.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    # column-major, so that inverse_cdf compares contiguous columns
    return np.asfortranarray(c)


def validate(matrix) -> MarginalMatrix:
    """Check and normalize a raw q x K matrix into a MarginalMatrix.

    Rows whose sum deviates from 1 by less than 1e-9 are silently
    renormalized; larger deviations raise RowSumMismatch. NaN and infinite
    entries raise NonFiniteEntry, negative ones NegativeEntry.
    """
    u = np.array(matrix, dtype=float)
    if u.size == 0:
        raise EmptyInstance("instance has no items or no FCs")
    if u.ndim != 2:
        raise EmptyInstance(f"expected a 2-D matrix, got shape {u.shape}")
    sums = u.sum(axis=1)
    # a NaN or infinite entry makes its row's sum NaN or infinite
    if not np.isfinite(sums).all() and not np.isfinite(u).all():
        i, k = np.argwhere(~np.isfinite(u))[0]
        raise NonFiniteEntry(f"u[{i},{k}] = {u[i, k]} is not finite", int(i))
    if np.any(u < 0.0):
        i, k = np.argwhere(u < 0.0)[0]
        raise NegativeEntry(f"u[{i},{k}] = {u[i, k]} is negative", int(i))
    bad = np.abs(sums - 1.0) >= ROW_SUM_TOL
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise RowSumMismatch(f"row {i} sums to {float(sums[i])!r}, not 1", i)
    u /= sums[:, None]
    u.flags.writeable = False
    return MarginalMatrix(u=u)


def hiding_probability(u_m: float) -> float:
    """Probability of hiding an early natural opening of the favorite FC.

    Defined for u_m in (0, 1] as (1-u_m) / (1-u_m + u_m*e^(1/u_m) - e); the
    value at u_m = 1 is fixed to 1, its continuity limit (the formula is 0/0
    there, and the outcome does not depend on it since every other marginal
    of such an item is 0).
    """
    if not (0.0 < u_m <= 1.0):
        raise DomainError(f"hiding probability needs u_m in (0, 1], got {u_m}")
    return float(_hiding_probability_vec(np.asarray([u_m]))[0])


def _hiding_probability_vec(um: np.ndarray) -> np.ndarray:
    out = np.ones_like(um, dtype=float)
    inner = um < 1.0
    if np.any(inner):
        v = um[inner]
        with np.errstate(over="ignore"):
            denom = (1.0 - v) + v * np.exp(1.0 / v) - math.e
            out[inner] = (1.0 - v) / denom
    return out


def guarantee_dilate(q: int) -> float:
    """Usage guarantee of the dilate scheme on q-item instances: 1 + ln q."""
    if q < 1:
        raise DomainError(f"item count must be >= 1, got {q}")
    return 1.0 + math.log(q)


def guarantee_force_open(m: MarginalMatrix) -> float:
    """Instance guarantee of force_open: 1 / min_i max_k u_ki (<= d)."""
    return m.alpha_force


def guarantee_js(q: int) -> float:
    """Closed-form guarantee B(q) of the partition-based prior scheme.

    Reporting only; that scheme itself is not implemented here.
    B(q) = (q+1)^2 / (4q) for odd q and (q+2)/4 for even q.
    """
    if q < 1:
        raise DomainError(f"item count must be >= 1, got {q}")
    if q % 2 == 1:
        return (q + 1) ** 2 / (4.0 * q)
    return (q + 2) / 4.0


def scheme_guarantee(scheme: str, m: MarginalMatrix) -> float:
    """Theoretical usage bound factor of a runnable scheme on an instance.

    Independent rounding has no nontrivial guarantee; the factor q is the
    worst case it can reach and is used for reporting.
    """
    if scheme == "dilate":
        return guarantee_dilate(m.q)
    if scheme == "force_open":
        return guarantee_force_open(m)
    if scheme == "independent":
        return float(m.q)
    raise DomainError(f"unknown scheme {scheme!r}")


def select_scheme(m: MarginalMatrix) -> tuple[str, float]:
    """Pick the better of the two correlated schemes for an instance.

    Returns (scheme, predicted_ratio). The scheme is dilate when
    1 + ln q <= alpha_force (ties go to dilate), else force_open. The
    predicted ratio is the min over all three known guarantees, B(q)
    included even though the partition scheme is not runnable.
    """
    gd = guarantee_dilate(m.q)
    gf = guarantee_force_open(m)
    ratio = min(gd, gf, guarantee_js(m.q))
    return ("dilate" if gd <= gf else "force_open"), ratio


# ---------------------------------------------------------------------------
# The schemes. Each draw spends a fixed number of uniforms: independent q,
# dilate K, force_open K + q. A scheme's kernel takes either family of its
# tables and the uniforms, (n, per) for n draws, and returns (z, first):
# the (n, q) assignments and, for dilate, each item's first-open time
# (None otherwise). Both families draw the same assignments.
# ---------------------------------------------------------------------------


def independent_round(m: MarginalMatrix, rng: RandomStream) -> RoundingOutcome:
    """Draw each item's FC independently from its marginal row."""
    return RoundingOutcome(inverse_cdf(m.row_cdf, rng.uniform(m.q)))


def dilate_round(m: MarginalMatrix, rng: RandomStream) -> tuple[RoundingOutcome, RoundingTrace]:
    """Exponential-clock rounding with per-item time dilation.

    FC k opens at E_k ~ Exp(rate y_k); item i sees it at (y_k/u_ki) E_k
    (inf when u_ki = 0) and takes the first FC it sees open, lowest index
    on ties.
    """
    divisor, floor, cols, ratios, _ = m.tables("dilate", False)
    c, e = _clocks(divisor, floor, rng.uniform(m.K))
    x = c.take(cols.T)
    x *= ratios.T
    return RoundingOutcome(x.argmin(axis=-1)), RoundingTrace(e, x)


def force_open_round(m: MarginalMatrix, rng: RandomStream) -> tuple[RoundingOutcome, RoundingTrace]:
    """Dilated clocks with forced openings, for sparse instances.

    Each item's favorite FC m(i) = argmax_k u_ki is forced open at time
    1/y_m(i); a Bernoulli hide flag H_i suppresses its natural opening from
    item i's view with the calibrated probability that keeps the marginals
    exact. All items are assigned by time alpha_force with probability 1.
    """
    tables = m.tables("force_open", False)
    c, e, h = _forced_clocks(tables, rng.uniform(m.K + m.q))
    x = c.take(tables[2].T)
    x *= tables[3].T
    return RoundingOutcome(x.argmin(axis=-1)), RoundingTrace(e, x, h, m.favorite)


def sample(m: MarginalMatrix, scheme: str, rng: RandomStream, n: int) -> np.ndarray:
    """n draws of a scheme as an (n, q) array of FC indices.

    Spends the stream exactly like n successive ``<scheme>_round`` calls and
    returns the same assignments. The draws are made in one block, so memory
    grows as n * q * d (n * q * K for dilate and force_open on a dense
    matrix); `mc_estimate` is the chunked, counting form.
    """
    per, kernel, tables = draw_kernel(m, scheme)
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    return kernel(tables, rng.uniform((n, per)))[0]


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-row inverse CDF: z[..., i] = min{k : cdf[i, k] >= u[..., i]}.

    ``u`` is (q,) or (n, q); ``cdf`` is (q, K) with nondecreasing rows,
    shared by every draw. The count of a row's first K - 1 entries below
    its draw is that leftmost position, and a draw above them all picks the
    last entry. The count runs over FC columns, which is fastest where the
    table is column-major (as `pinned_cdf` returns).
    """
    cols = cdf.T if u.ndim == 1 else cdf.T[:, :, None]
    return np.add.reduce(cols[:-1] < u.T, axis=0).T


def draw_kernel(m: MarginalMatrix, scheme: str):
    """(uniforms per draw, kernel, tables) of a scheme on an instance: the
    scheme's one kernel and its support family of tables where d < K, else
    its dense family, which saves the support layout's gathers. One set of
    tables serves a whole block of draws.
    """
    per = uniforms_per_draw(scheme, m.q, m.K)
    return per, _KERNELS[scheme], m.tables(scheme, m.sparsity < m.K)


def uniforms_per_draw(scheme: str, q: int, K: int) -> int:
    """Uniforms one draw of a scheme spends on a q x K instance."""
    if scheme == "independent":
        return q
    if scheme == "dilate":
        return K
    if scheme == "force_open":
        return K + q
    raise DomainError(f"unknown scheme {scheme!r}")


def _fc_at(fcs, pos):
    """The FC at each item's position: fcs[pos[..., i], i]."""
    return fcs.take(pos * fcs.shape[1] + np.arange(fcs.shape[1]))


def _independent(tables, u):
    """Dense tables draw by `inverse_cdf`. On the support, item i stops at
    the count of its cumulative marginals below u_i, one position at a
    time; the last is 1, never below a uniform, so it is not counted."""
    cdf, fcs = tables
    if fcs is None:
        return inverse_cdf(cdf, u), None
    pos = np.zeros(u.shape, dtype=np.intp)
    for p in range(len(cdf) - 1):
        np.add(pos, cdf[p] < u, out=pos)
    return _fc_at(fcs, pos), None


def _dilate(tables, u):
    divisor, floor, cols, ratios, fcs = tables
    x = _observe(_clocks(divisor, floor, u)[0], cols, ratios)
    z = _first_fc(x, fcs)
    return z, x[-1].copy().T


def _force_open(tables, u):
    return _first_fc(_observe(_forced_clocks(tables, u)[0], *tables[2:4]), tables[4]), None


_KERNELS = {"independent": _independent, "dilate": _dilate, "force_open": _force_open}


def _observe(c, cols, ratios):
    """x (P, q, n): position p shows item i clock row cols[p, i] of the
    clocks c (w, n), slowed by ratios[p, i], gathered as whole rows. No
    0 * inf is ever formed: an unusable cell multiplies +inf by +inf, and
    every ratio is at least 1."""
    x = c.take(cols, axis=0)
    x *= ratios[:, :, None]
    return x


def _first_fc(x, fcs):
    """Each item's first FC to open, (n, q), from its observed times x
    (P, q, n), whose running minimum over the positions it writes in
    place: x[-1] is then each item's first-open time.

    The prefix minima only fall, so the count of positions whose prefix
    minimum is still above x[-1] is the first position that reaches it:
    the lowest position on ties, as argmin takes. Position p is FC p where
    ``fcs`` is None, else FC fcs[p, i]. Counts run in the narrowest
    unsigned type that holds P - 1. The result is the transposed view of a
    (q, n) array.
    """
    for p in range(1, len(x)):
        np.minimum(x[p - 1], x[p], out=x[p])
    pos = np.zeros(x.shape[1:], dtype=np.min_scalar_type(len(x) - 1))
    above = np.empty(x.shape[1:], dtype=bool)
    for p in range(len(x) - 1):
        np.greater(x[p], x[-1], out=above)
        np.add(pos, above.view(np.uint8), out=pos)
    z = pos.astype(np.intp)
    if fcs is not None:
        q = fcs.shape[1]
        z *= q
        z += np.arange(q)[:, None]
        z = fcs.take(z)
    return z.T


def _clocks(divisor, floor, u, q=0):
    """(c, e): the clocks of draws u (..., per), FC-major (K + q + 1, ...),
    and the draw-major view e (..., K) of their first K rows, the opening
    times E_k = max(ln(U_k) / divisor_k, floor_k) of the first K uniforms
    of each draw. The last row is +inf; the q rows before it are the
    caller's."""
    K = divisor.size
    c = np.empty((K + q + 1,) + u.shape[:-1])
    c[-1] = np.inf
    e = np.log(u[..., :K], out=c[:K].T)
    e /= divisor
    np.maximum(e, floor, out=e)
    return c, e


def _forced_clocks(tables, u):
    """(c, e, h): the clocks of force_open draws u (..., K + q), with the
    hide flags H (..., q). Row K + i is the earlier of E_m(i) and the cap
    1/y_m(i), or the cap alone where hidden (H_i = U_K+i <= hide_i). Item i
    sees it at its favorite's ratio y/u_m(i) > 0, which is monotone, so its
    time there is the earlier of its dilated natural opening and its forced
    time bit for bit."""
    divisor, floor, _, _, _, fav, cap, hide = tables
    K = divisor.size
    c, e = _clocks(divisor, floor, u, cap.size)
    s = c[K:-1].T
    np.minimum(c.take(fav, axis=0).T, cap, out=s)
    h = u[..., K:] <= hide
    np.copyto(s, cap, where=h)
    return c, e, h


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCReport:
    """Empirical frequencies over n_samples independent scheme runs."""

    scheme: str
    n_samples: int
    marginals: np.ndarray          # (q, K) empirical P[Z_i = k]
    usage: np.ndarray              # (K,)  empirical P[FC k used]
    tail_grid: Optional[np.ndarray] = None  # dilate only
    tail: Optional[np.ndarray] = None       # P[some item unassigned at t]
    in_support: Optional[int] = None        # runs with u[i, z_i] > 0 for every item
    uniforms: Optional[int] = None          # uniforms the runs consumed


def mc_estimate(m: MarginalMatrix, scheme: str, n_samples: int, rng: RandomStream) -> MCReport:
    """Estimate marginals and FC usage over n_samples independent runs.

    Draws in blocks of about CHUNK_ELEMS elements through `sample`'s kernels.
    The report counts the runs that gave every item an FC it has mass on,
    and the uniforms they consumed.
    For the dilate scheme it also carries the empirical tail
    P[some item still unassigned at time t] on the grid t = 0, 0.5, ..., 10,
    computed from the observed opening times.
    """
    per, kernel, tables = draw_kernel(m, scheme)
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    q, K = m.q, m.K
    item_base = K * np.arange(q)
    # a chunk of c runs all stays on the support when its counts add up to
    # c * q on the support's cells or to 0 on the zero cells; of the two, the
    # fewer: the support layout's cells (its repeats of an item's last FC
    # dropped) where the draws use that layout, d < K, else the zero cells
    sparse = m.sparsity < K
    if sparse:
        fcs = m.support
        once = np.ones(fcs.shape, dtype=bool)
        np.not_equal(fcs[1:], fcs[:-1], out=once[1:])
        cells = (fcs + item_base)[once]
    else:
        cells = np.flatnonzero(m.u.ravel() == 0.0)
    marg = np.zeros(q * K, dtype=np.int64)
    used = np.zeros(K, dtype=np.int64)
    in_support = 0
    tail = np.zeros(TAIL_GRID.size, dtype=np.int64) if scheme == "dilate" else None
    chunk = max(1, CHUNK_ELEMS // (q * K))
    start = rng.position
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        z, first = kernel(tables, rng.uniform((c, per)))
        # z is (c, q) in whatever memory order its kernel wrote; every count
        # below reads it in that order
        flat = z + item_base
        counts = np.bincount(flat.ravel("K"), minlength=q * K)
        marg += counts
        hit = np.zeros((K, c), dtype=bool)
        at = z.T * c
        at += np.arange(c)
        hit.ravel()[at] = True
        used += np.count_nonzero(hit, axis=1)
        if counts.take(cells).sum() != (c * q if sparse else 0):
            in_support += int(np.count_nonzero((m.u.take(flat) > 0.0).all(axis=1)))
        else:
            in_support += c
        if tail is not None:
            wait = np.sort(first.max(axis=1))
            tail += c - np.searchsorted(wait, TAIL_GRID, side="left")
    return MCReport(
        scheme=scheme,
        n_samples=n_samples,
        marginals=marg.reshape(q, K) / n_samples,
        usage=used / n_samples,
        tail_grid=TAIL_GRID.copy() if tail is not None else None,
        tail=tail / n_samples if tail is not None else None,
        in_support=in_support,
        uniforms=rng.position - start,
    )


# ---------------------------------------------------------------------------
# Plain-text instance format: first line "q K", then q rows of K probabilities
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Malformed instance text; carries a 1-based line number and, once a
    caller that opened the file sets it, the file's ``path``, which then
    leads the message."""

    def __init__(self, line: int, message: str, path=None):
        super().__init__(line, message)
        self.line, self.message, self.path = line, message, path

    def __str__(self) -> str:
        where = f"line {self.line}: {self.message}"
        return where if self.path is None else f"{self.path}: {where}"


def write_instance(m: MarginalMatrix, f: TextIO) -> None:
    f.write(f"{m.q} {m.K}\n")
    for row in m.u:
        f.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_q_k(f: TextIO, noun: str, parse_line: Callable) -> tuple[int, int, list]:
    """Read the text layout that instance and cover files share.

    Line 1 is the header "q K", two integers >= 1. One body line follows per
    row (noun "rows": q lines) or per set ("sets": K lines), then only blank
    lines. Each body line goes in turn to parse_line(q, K, ln, line), ln its
    1-based number; returns (q, K, [what parse_line returned]). A fault
    raises ParseError on its line.
    """
    lines = f.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header 'q K'")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"expected 'q K', got {lines[0]!r}")
    try:
        q, K = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"non-integer header {lines[0]!r}") from None
    if q < 1 or K < 1:
        raise ParseError(1, f"header needs q >= 1 and K >= 1, got {lines[0]!r}")
    n = {"rows": q, "sets": K}[noun]
    body = []
    for ln in range(2, n + 2):
        if ln > len(lines):
            raise ParseError(ln, "unexpected end of file")
        body.append(parse_line(q, K, ln, lines[ln - 1]))
    for ln, line in enumerate(lines[n + 1:], start=n + 2):
        if line.strip():
            raise ParseError(ln, f"the header gives {n} {noun}, found another: {line!r}")
    return q, K, body


def read_instance(f: TextIO) -> MarginalMatrix:
    def row(q, K, ln, line):
        parts = line.split()
        if len(parts) != K:
            raise ParseError(ln, f"expected {K} values, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ParseError(ln, f"non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(ln, f"non-finite value in {line!r}")
        return values

    try:
        return validate(read_q_k(f, "rows", row)[2])
    except RoundingError as exc:
        # the header's checks leave validate only row errors to raise
        raise ParseError(exc.row + 2, str(exc)) from exc
