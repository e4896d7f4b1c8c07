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
from math import comb
from typing import Optional, TextIO

import numpy as np

from . import rounding
from .errors import CapExceeded
from .rounding import MarginalMatrix
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
        covered = np.zeros(self.q, dtype=bool)
        for k, elems in enumerate(self.members):
            for e in elems:
                if not 0 <= e < self.q:
                    raise SetCoverError(f"set {k} covers unknown element {e}")
                covered[e] = True
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise SetCoverError(f"element {missing} is covered by no set")
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

    def is_feasible(self, sc: SetCoverInstance, tol: float = FEAS_TOL) -> bool:
        mass = np.zeros(sc.q)
        for k, elems in enumerate(sc.members):
            for e in elems:
                mass[e] += self.y[k]
        return bool(np.all(mass >= 1.0 - tol))


@dataclass(frozen=True)
class CoverOutcome:
    """0/1 vector over sets; every element is covered in every realization."""

    Y: np.ndarray


def marginals_from_fractional_cover(sc: SetCoverInstance, fc: FractionalCover) -> MarginalMatrix:
    """Water-fill each element's unit mass over its covering sets.

    Covering sets are visited in ascending index; each takes
    min(y_k, remaining). Excess fractional mass past 1 stays unused on the
    later sets. A row that cannot reach 1 means the weights were infeasible.
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
                f"element {e} reaches only {1.0 - remaining:.12f} of covering mass"
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


def hard_instance(d: int, K: int, cap: int = HARD_INSTANCE_CAP) -> tuple[SetCoverInstance, FractionalCover]:
    """Lower-bound family: one element per d-subset of the K sets, y = 1/d.

    Any covering scheme on this instance must open sets at an average rate
    of at least d(1 - d/K) times their fractional weight.
    """
    if not 1 <= d <= K:
        raise SetCoverError(f"need 1 <= d <= K, got d={d}, K={K}")
    q = comb(K, d)
    if q > cap:
        raise CapExceeded(f"C({K},{d}) = {q} elements exceeds cap {cap}")
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
    lines = f.read().splitlines()
    if not lines:
        raise rounding.ParseError(1, "empty set cover file")
    head = lines[0].split()
    if len(head) != 2:
        raise rounding.ParseError(1, f"expected 'q K', got {lines[0]!r}")
    try:
        q, K = int(head[0]), int(head[1])
    except ValueError:
        raise rounding.ParseError(1, f"non-integer header {lines[0]!r}") from None
    members, costs = [], []
    for k in range(K):
        ln = k + 2
        if ln - 1 >= len(lines):
            raise rounding.ParseError(ln, "unexpected end of file")
        parts = lines[ln - 1].split()
        if len(parts) < 2:
            raise rounding.ParseError(ln, "expected 'c_k n_k e_1 ...'")
        try:
            cost = float(parts[0])
            nk = int(parts[1])
            elems = [int(p) - 1 for p in parts[2:]]
        except ValueError:
            raise rounding.ParseError(ln, f"non-numeric entry in {lines[ln - 1]!r}") from None
        if len(elems) != nk:
            raise rounding.ParseError(ln, f"set lists {len(elems)} elements, header says {nk}")
        members.append(tuple(elems))
        costs.append(cost)
    try:
        return SetCoverInstance(q=q, members=tuple(members), costs=np.asarray(costs))
    except SetCoverError as exc:
        raise rounding.ParseError(2, str(exc)) from exc
