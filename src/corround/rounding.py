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

`sample` draws n assignments of a named scheme in one block; Monte Carlo,
set cover and dispatch all draw through it or through its kernels, and it is
the one place a scheme name turns into draw code. `mc_estimate` verifies
marginals, usage bounds, support and the waiting-time tail empirically. Both
consume uniforms in the exact per-call order, so batched and
one-call-at-a-time sampling produce identical assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, TextIO

import numpy as np

from .streams import RandomStream

ROW_SUM_TOL = 1e-9

SCHEMES = ("independent", "dilate", "force_open")

TAIL_GRID = np.arange(0.0, 10.5, 0.5)

# elements (draws x q x K) per block of uniforms in mc_estimate
CHUNK_ELEMS = 2_000_000


class RoundingError(ValueError):
    """Base class for invalid rounding instances or arguments."""


class NegativeEntry(RoundingError):
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
    Derived quantities used on every draw are cached on first access; the
    instance itself is immutable and safe to share across threads.
    """

    u: np.ndarray

    @property
    def q(self) -> int:
        return self.u.shape[0]

    @property
    def K(self) -> int:
        return self.u.shape[1]

    @cached_property
    def y(self) -> np.ndarray:
        """Column maxima y_k = max_i u_ki (the usage lower bounds)."""
        y = self.u.max(axis=0)
        y.flags.writeable = False
        return y

    @cached_property
    def ratios(self) -> np.ndarray:
        """Dilation factors y_k / u_ki, +inf where u_ki = 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(self.u > 0.0, self.y[None, :] / self.u, np.inf)
        r.flags.writeable = False
        return r

    @cached_property
    def clock(self) -> tuple[np.ndarray, np.ndarray]:
        """(divisor, floor) with E_k = max(ln(U_k) / divisor_k, floor_k).

        divisor_k = -y_k, which gives -ln(U_k)/y_k bit for bit, and floor_k
        = -inf; a y_k = 0 column divides by -inf instead, so that U_k = 1
        makes no 0/0, and its floor of +inf keeps it closed.
        """
        closed = self.y == 0.0
        out = np.where(closed, -np.inf, -self.y), np.where(closed, np.inf, -np.inf)
        for a in out:
            a.flags.writeable = False
        return out

    @cached_property
    def row_cdf(self) -> np.ndarray:
        """Per-item cumulative marginals, for inverse-CDF draws."""
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
        um = self.u[np.arange(self.q), self.favorite]
        h = _hiding_probability_vec(um)
        h.flags.writeable = False
        return h

    @cached_property
    def sparsity(self) -> int:
        """d = max_i |{k : u_ki > 0}|."""
        return int((self.u > 0.0).sum(axis=1).max())

    @cached_property
    def alpha_force(self) -> float:
        """1 / min_i max_k u_ki; always between 1 and the sparsity d."""
        return float(1.0 / self.u.max(axis=1).min())


@dataclass(frozen=True)
class UsageBounds:
    """y_k = max_i u_ki for each FC; zero columns carry y_k = 0."""

    y: np.ndarray


@dataclass(frozen=True)
class SparsityStats:
    d: int
    alpha_force: float


@dataclass(frozen=True)
class RoundingOutcome:
    """Assignment vector: z[i] is the 0-based FC index for item i."""

    z: np.ndarray


@dataclass(frozen=True)
class RoundingTrace:
    """Internal clocks of a dilate or force-open draw, for auditing.

    ``e`` holds the FC opening times, ``x`` the per-item observed opening
    times (inf where an item cannot use an FC). ``h`` (hide flags) and
    ``m`` (per-item forced-open target) are populated by force_open only.
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
    renormalized; larger deviations raise RowSumMismatch.
    """
    u = np.array(matrix, dtype=float)
    if u.size == 0:
        raise EmptyInstance("instance has no items or no FCs")
    if u.ndim != 2:
        raise EmptyInstance(f"expected a 2-D matrix, got shape {u.shape}")
    if np.any(u < 0.0):
        i, k = np.argwhere(u < 0.0)[0]
        raise NegativeEntry(f"u[{i},{k}] = {u[i, k]} is negative")
    sums = u.sum(axis=1)
    bad = np.abs(sums - 1.0) >= ROW_SUM_TOL
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise RowSumMismatch(f"row {i} sums to {sums[i]!r}, not 1")
    u /= sums[:, None]
    u.flags.writeable = False
    return MarginalMatrix(u=u)


def usage_lower_bounds(m: MarginalMatrix) -> UsageBounds:
    """Column-wise maxima: the minimum usage probability of each FC."""
    return UsageBounds(y=m.y)


def sparsity_stats(m: MarginalMatrix) -> SparsityStats:
    return SparsityStats(d=m.sparsity, alpha_force=m.alpha_force)


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
# dilate K, force_open K + q. The kernels below take a block of uniforms,
# one row per draw, and `sample` and `mc_estimate` feed them blocks in
# stream order, so outcomes match the single-call functions draw for draw.
# ---------------------------------------------------------------------------


def independent_round(m: MarginalMatrix, rng: RandomStream) -> RoundingOutcome:
    """Draw each item's FC independently from its marginal row."""
    return RoundingOutcome(z=inverse_cdf(m.row_cdf, rng.uniform(m.q)))


def dilate_round(m: MarginalMatrix, rng: RandomStream) -> tuple[RoundingOutcome, RoundingTrace]:
    """Exponential-clock rounding with per-item time dilation.

    FC k opens at E_k ~ Exp(rate y_k); item i sees it at (y_k/u_ki) E_k
    (inf when u_ki = 0) and takes the first FC it sees open, lowest index
    on ties.
    """
    e = _openings(m, rng.uniform(m.K))
    x = _dilated_view(m, e)
    return RoundingOutcome(z=np.argmin(x, axis=-1)), RoundingTrace(e=e, x=x)


def force_open_round(m: MarginalMatrix, rng: RandomStream) -> tuple[RoundingOutcome, RoundingTrace]:
    """Dilated clocks with forced openings, for sparse instances.

    Each item's favorite FC m(i) = argmax_k u_ki is forced open at time
    1/y_m(i); a Bernoulli hide flag H_i suppresses its natural opening from
    item i's view with the calibrated probability that keeps the marginals
    exact. All items are assigned by time alpha_force with probability 1.
    """
    e = _openings(m, rng.uniform(m.K))
    h = rng.uniform(m.q) <= m.hide_prob
    z, x = _force_open_view(m, e, h)
    return RoundingOutcome(z=z), RoundingTrace(e=e, x=x, h=h, m=m.favorite.copy())


def sample(m: MarginalMatrix, scheme: str, rng: RandomStream, n: int) -> np.ndarray:
    """n draws of a scheme as an (n, q) array of FC indices.

    Spends the stream exactly like n successive ``<scheme>_round`` calls and
    returns the same assignments. The draws are made in one block, so memory
    grows as n * q * K; `mc_estimate` is the chunked, counting form.
    """
    per, kernel = _kernel(m, scheme)
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    return kernel(m, rng.uniform((n, per)))[0]


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-row inverse CDF: z[..., i] = min{k : cdf[i, k] >= u[..., i]}.

    ``cdf`` is (q, K) with nondecreasing rows and ``u`` is (q,) or (n, q).
    The count of a row's entries below its draw is that leftmost position;
    a draw above the whole row picks its last entry. The count runs over
    FC columns, which is fastest on a column-major ``cdf`` (as
    `pinned_cdf` returns).
    """
    cols = cdf.T if u.ndim == 1 else cdf.T[:, None, :]
    return np.minimum((cols < u).sum(axis=0), cdf.shape[1] - 1)


def _kernel(m: MarginalMatrix, scheme: str):
    """(uniforms per draw, block kernel) of a scheme; the kernel maps an
    (n, per) block of uniforms to (z, x): the (n, q) assignments and the
    (n, q, K) observed opening times, None for independent draws."""
    if scheme == "independent":
        return m.q, _independent_block
    if scheme == "dilate":
        return m.K, _dilate_block
    if scheme == "force_open":
        return m.K + m.q, _force_open_block
    raise DomainError(f"unknown scheme {scheme!r}")


def _independent_block(m, u):
    return inverse_cdf(m.row_cdf, u), None


def _dilate_block(m, u):
    x = _dilated_view(m, _openings(m, u))
    return np.argmin(x, axis=-1), x


def _force_open_block(m, u):
    return _force_open_view(m, _openings(m, u[:, :m.K]), u[:, m.K:] <= m.hide_prob)


def _openings(m: MarginalMatrix, u) -> np.ndarray:
    """Opening times from uniforms: E_k = -ln(U_k)/y_k (inf for y_k = 0)."""
    divisor, floor = m.clock
    return np.maximum(np.log(u) / divisor, floor)


def _dilated_view(m: MarginalMatrix, e: np.ndarray) -> np.ndarray:
    """Observed opening times (..., q, K) for opening vectors e (..., K)."""
    with np.errstate(invalid="ignore"):
        x = m.ratios * e[..., None, :]
    # 0 * inf from an instantly-open unusable FC must stay unusable
    return np.where(m.u > 0.0, x, np.inf)


def _force_open_view(m, e, h):
    """Apply hide flags h (..., q) and forced openings; returns (z, x)."""
    x = _dilated_view(m, e)
    fav = m.favorite
    idx = np.arange(m.q)
    um = m.u[idx, fav]
    nat = np.where(h, np.inf, e[..., fav])
    capped = np.minimum(nat, 1.0 / m.y[fav])
    x[..., idx, fav] = (m.y[fav] / um) * capped
    return np.argmin(x, axis=-1), x


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


def mc_estimate(m: MarginalMatrix, scheme: str, n_samples: int, rng: RandomStream) -> MCReport:
    """Estimate marginals and FC usage over n_samples independent runs.

    Draws in blocks of about CHUNK_ELEMS elements through `sample`'s kernels.
    The report counts the runs that gave every item an FC it has mass on.
    For the dilate scheme it also carries the empirical tail
    P[some item still unassigned at time t] on the grid t = 0, 0.5, ..., 10,
    computed from the observed opening times.
    """
    per, kernel = _kernel(m, scheme)
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    q, K = m.q, m.K
    item_base = K * np.arange(q)
    marg = np.zeros(q * K, dtype=np.int64)
    used = np.zeros(K, dtype=np.int64)
    in_support = 0
    tail = np.zeros(TAIL_GRID.size, dtype=np.int64) if scheme == "dilate" else None
    chunk = max(1, CHUNK_ELEMS // (q * K))
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        z, x = kernel(m, rng.uniform((c, per)))
        flat = z + item_base
        marg += np.bincount(flat.ravel(), minlength=q * K)
        hit = np.zeros((c, K), dtype=bool)
        hit[np.arange(c)[:, None], z] = True
        used += hit.sum(axis=0)
        in_support += int(np.count_nonzero((m.u.ravel()[flat] > 0.0).all(axis=1)))
        if tail is not None:
            wait = x.min(axis=2).max(axis=1)
            tail += (wait[:, None] >= TAIL_GRID[None, :]).sum(axis=0)
    return MCReport(
        scheme=scheme,
        n_samples=n_samples,
        marginals=marg.reshape(q, K) / n_samples,
        usage=used / n_samples,
        tail_grid=TAIL_GRID.copy() if tail is not None else None,
        tail=tail / n_samples if tail is not None else None,
        in_support=in_support,
    )


# ---------------------------------------------------------------------------
# Plain-text instance format: first line "q K", then q rows of K probabilities
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Malformed instance text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_instance(m: MarginalMatrix, f: TextIO) -> None:
    f.write(f"{m.q} {m.K}\n")
    for row in m.u:
        f.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_instance(f: TextIO) -> MarginalMatrix:
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
    rows = []
    for idx in range(q):
        ln = idx + 2
        if ln - 1 >= len(lines):
            raise ParseError(ln, "unexpected end of file")
        parts = lines[ln - 1].split()
        if len(parts) != K:
            raise ParseError(ln, f"expected {K} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(ln, f"non-numeric value in {lines[ln - 1]!r}") from None
    try:
        return validate(rows)
    except RoundingError as exc:
        raise ParseError(2, str(exc)) from exc
