"""Set Cover rounding through the correlated rounding schemes.

A fractional set cover turns into a rounding instance by water-filling each
element's unit of mass over the sets that cover it (ascending set index,
each set taking at most its fractional weight). Running any rounding scheme
on that instance and opening every set that received an element yields an
integral cover that is feasible in every realization, with each set opened
with probability at most the scheme's guarantee times its weight.

`hard_instance` builds the lower-bound family: one element per d-subset of
the K sets, with uniform weights 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite
from typing import Optional, TextIO

import numpy as np

from . import rounding
from .errors import CapExceeded
from .rounding import MarginalMatrix, ParseError
from .streams import RandomStream

HARD_INSTANCE_CAP = 10 ** 5
FEAS_TOL = 1e-9


class SetCoverError(ValueError):
    pass


class InfeasibleFractional(SetCoverError):
    """The fractional weights cannot cover some element."""


@dataclass(frozen=True)
class SetCoverInstance:
    """q elements covered by K sets; members are 0-based element ids."""

    q: int
    members: tuple[tuple[int, ...], ...]   # members[k] = elements of set k
    costs: Optional[np.ndarray] = None     # optional, for weighted reporting

    def __post_init__(self):
        if self.q < 1:
            raise SetCoverError(f"need at least one element, got q={self.q}")
        for k, elems in enumerate(self.members):
            for e in elems:
                if not isinstance(e, (int, np.integer)):
                    raise SetCoverError(f"set {k} has a non-integer element id {e!r}")
                if not 0 <= e < self.q:
                    raise SetCoverError(f"set {k} covers unknown element {e}")
            # a repeat would count the set's weight twice toward the element
            if len(set(elems)) < len(elems):
                raise SetCoverError(f"set {k} lists an element more than once")
        # L listed ids leave some element of 0..L uncovered when q > L
        missing = set(range(min(self.q, sum(map(len, self.members)) + 1))).difference(*self.members)
        if missing:
            raise SetCoverError(f"element {min(missing)} is covered by no set")
        if self.costs is not None and len(self.costs) != self.K:
            raise SetCoverError("costs length != set count")

    @property
    def K(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FractionalCover:
    """Weights y_k in [0, 1]; feasible iff every element gets mass >= 1."""

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if not np.all((y >= 0.0) & (y <= 1.0)):
            raise SetCoverError("fractional weights must lie in [0, 1]")
        object.__setattr__(self, "y", y)

    def is_feasible(self, sc: SetCoverInstance) -> bool:
        mass = np.zeros(sc.q)
        for k, elems in enumerate(sc.members):
            for e in elems:
                mass[e] += self.y[k]
        return bool(np.all(mass >= 1.0 - FEAS_TOL))


@dataclass(frozen=True)
class CoverOutcome:
    """0/1 vector over sets; every element is covered in every realization."""

    Y: np.ndarray


def marginals_from_fractional_cover(sc: SetCoverInstance, fc: FractionalCover) -> MarginalMatrix:
    """Water-fill each element's unit mass over its covering sets.

    Covering sets are visited in ascending index; each takes
    min(y_k, remaining). Excess fractional mass past 1 stays unused on the
    later sets. A row that cannot reach 1 means the weights were infeasible;
    InfeasibleFractional then names its element from 1, as the cover file
    numbers it.
    """
    if len(fc.y) != sc.K:
        raise SetCoverError("fractional weights length != set count")
    covers = [[] for _ in range(sc.q)]
    for k, elems in enumerate(sc.members):
        for e in elems:
            covers[e].append(k)
    u = np.zeros((sc.q, sc.K))
    for e in range(sc.q):
        remaining = 1.0
        for k in covers[e]:
            if remaining <= 0.0:
                break
            take = min(float(fc.y[k]), remaining)
            u[e, k] = take
            remaining -= take
        if remaining >= rounding.ROW_SUM_TOL:
            raise InfeasibleFractional(
                f"element {e + 1} reaches only {1.0 - remaining:.12f} of covering mass"
            )
    return rounding.validate(u)


def round_cover(
    sc: SetCoverInstance,
    fc: FractionalCover,
    scheme: str,
    rng: RandomStream,
) -> CoverOutcome:
    """Round the fractional cover once; the result covers every element."""
    Y = np.zeros(sc.K, dtype=np.int8)
    Y[rounding.sample(marginals_from_fractional_cover(sc, fc), scheme, rng, 1)[0]] = 1
    return CoverOutcome(Y=Y)


def batch_cover_usage(
    sc: SetCoverInstance,
    fc: FractionalCover,
    scheme: str,
    n_samples: int,
    rng: RandomStream,
) -> tuple[np.ndarray, int]:
    """(empirical E[Y_k], count of feasible realizations) over n_samples.

    A realization is feasible when every element went to a set that covers
    it. Consumes the stream exactly like n_samples round_cover calls.
    """
    rep = rounding.mc_estimate(marginals_from_fractional_cover(sc, fc), scheme, n_samples, rng)
    return rep.usage, rep.in_support


def hard_instance(d: int, K: int) -> tuple[SetCoverInstance, FractionalCover]:
    """Lower-bound family: one element per d-subset of the K sets, y = 1/d.

    Any covering scheme on this instance must open sets at an average rate
    of at least d(1 - d/K) times their fractional weight.
    """
    if not 1 <= d <= K:
        raise SetCoverError(f"need 1 <= d <= K, got d={d}, K={K}")
    q = comb(K, d)
    if q > HARD_INSTANCE_CAP:
        raise CapExceeded(f"C({K},{d}) = {q} elements exceeds cap {HARD_INSTANCE_CAP}")
    members = [[] for _ in range(K)]
    for e, subset in enumerate(combinations(range(K), d)):
        for k in subset:
            members[k].append(e)
    sc = SetCoverInstance(q=q, members=tuple(tuple(ms) for ms in members))
    return sc, FractionalCover(y=np.full(K, 1.0 / d))


# ---------------------------------------------------------------------------
# Text format: line 1 "q K", then one line per set: "c_k n_k e_1 ... e_n_k"
# with 1-based element ids.
# ---------------------------------------------------------------------------


def write_cover_instance(sc: SetCoverInstance, f: TextIO) -> None:
    f.write(f"{sc.q} {sc.K}\n")
    costs = sc.costs if sc.costs is not None else np.ones(sc.K)
    for k in range(sc.K):
        elems = " ".join(str(e + 1) for e in sc.members[k])
        f.write(f"{float(costs[k])!r} {len(sc.members[k])}{' ' if elems else ''}{elems}\n")


def read_cover_instance(f: TextIO) -> SetCoverInstance:
    def cover_set(q, K, ln, line):
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(ln, "expected 'c_k n_k e_1 ...'")
        try:
            cost = float(parts[0])
            nk = int(parts[1])
            elems = [int(p) - 1 for p in parts[2:]]
        except ValueError:
            raise ParseError(ln, f"non-numeric entry in {line!r}") from None
        if not isfinite(cost):
            raise ParseError(ln, f"non-finite cost in {line!r}")
        if len(elems) != nk:
            raise ParseError(ln, f"set lists {len(elems)} elements, header says {nk}")
        bad = [e + 1 for e in elems if not 0 <= e < q]
        if bad:
            raise ParseError(ln, f"unknown element {bad[0]}: elements are 1..{q}")
        if len(set(elems)) < nk:
            raise ParseError(ln, "set lists an element more than once")
        return cost, tuple(elems)

    q, K, sets = rounding.read_q_k(f, "sets", cover_set)
    costs, members = zip(*sets)
    # known once the last set is read, so its line is named; L listed ids
    # leave some element of 1..L + 1 uncovered when q > L, so only those count
    missing = set(range(min(q, sum(map(len, members)) + 1))).difference(*members)
    if missing:
        raise ParseError(K + 1, f"element {min(missing) + 1} of {q} is covered by no set")
    return SetCoverInstance(q=q, members=members, costs=np.asarray(costs))
