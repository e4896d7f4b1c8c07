"""Experiment instance generation: geography, costs, demand, inventories.

Regions come from a bundled 99-row metro CSV (name, lat, lon, population)
and FCs from a 10-row CSV (name, lat, lon) ordered by size rank; both are
schema-compatible with user-supplied replacements. A generated instance
takes the J most populous regions and the first K FCs, prices shipping with
the affine cost-per-mile formula, synthesizes random order types and demand
rates, decides carrying assortments by coin flips, and places newsvendor
starting inventories against the demand attributed to each FC by
closest-carrier routing.

Every random choice draws from ``RandomStream(cfg.seed)`` in a documented
order (types, then rate splits, then carrying), so a config plus seed
regenerates an instance byte-for-byte.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import operator
import os
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from typing import Optional

import numpy as np

from .fulfillment import FulfillmentInstance
from .streams import RandomStream

EARTH_RADIUS_MILES = 3958.8

UNIT_COST_BASE = 0.423
UNIT_COST_PER_MILE = 0.000541
FIXED_COST = 8.759


class GeneratorError(ValueError):
    pass


class SizeImpossible(GeneratorError):
    """An order size exceeds the item universe."""


class OrphanItemWarning(UserWarning):
    """No FC carries an item; all of its demand will go unfulfilled."""


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in miles; accepts scalars or arrays."""
    p1, l1, p2, l2 = (np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2))
    s = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return EARTH_RADIUS_MILES * 2.0 * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def unit_cost(dist):
    """Per-item shipping cost at a given distance in miles."""
    return UNIT_COST_BASE + UNIT_COST_PER_MILE * np.asarray(dist, dtype=float)


def fixed_cost() -> float:
    """Per-box cost of shipping from any FC to any region."""
    return FIXED_COST


@dataclass(frozen=True)
class Geography:
    """Selected regions and FCs with the K x J distance matrix."""

    region_names: tuple
    population: np.ndarray
    fc_names: tuple
    dist: np.ndarray  # (K, J) miles

    @property
    def J(self) -> int:
        return len(self.region_names)

    @property
    def K(self) -> int:
        return len(self.fc_names)


def _read_csv(path_or_file, bundled, columns):
    """A geography CSV's rows as tuples, each value cast by ``columns``
    (name, type); the bundled data file ``bundled``, parsed once per
    process, when ``path_or_file`` is None. A missing column, a short row,
    a value that is not of its type and a NaN or infinite number raise
    GeneratorError naming the file, the line and the column."""
    if path_or_file is None:
        return list(_bundled_rows(bundled, columns))
    if hasattr(path_or_file, "read"):
        return _parse_csv(path_or_file, getattr(path_or_file, "name", "<stream>"), columns)
    with open(path_or_file, newline="") as f:
        return _parse_csv(f, os.fspath(path_or_file), columns)


@functools.lru_cache(maxsize=None)
def _bundled_rows(bundled, columns) -> tuple:
    with resources.files("corround.data").joinpath(bundled).open(newline="") as f:
        return tuple(_parse_csv(f, bundled, columns))


def _parse_csv(f, name, columns):
    reader = csv.DictReader(f)
    missing = [col for col, _ in columns if col not in (reader.fieldnames or ())]
    if missing:
        raise GeneratorError(f"{name}: line 1: no {missing[0]!r} column")
    out = []
    for row in reader:
        values = []
        for col, cast in columns:
            text = row[col]
            try:
                value = cast(text)
            except (TypeError, ValueError):
                # a short row holds None past its last field
                what = "no value" if text is None else f"{text!r} is not a {cast.__name__}"
                raise GeneratorError(f"{name}: line {reader.line_num}: {col}: {what}") from None
            if cast is float and not math.isfinite(value):
                raise GeneratorError(f"{name}: line {reader.line_num}: {col}: {text!r} is not finite")
            values.append(value)
        out.append(tuple(values))
    return out


def load_regions(path_or_file=None):
    """All regions from a CSV (name, lat, lon, population); bundled default."""
    return _read_csv(path_or_file, "metros.csv", _REGION_COLS)


def load_fcs(path_or_file=None):
    """All FCs from a CSV (name, lat, lon) in size-rank order; bundled default."""
    return _read_csv(path_or_file, "fcs.csv", _FC_COLS)


_REGION_COLS = (("name", str), ("lat", float), ("lon", float), ("population", float))
_FC_COLS = (("name", str), ("lat", float), ("lon", float))


def build_geography(J: int, K: int, regions_path=None, fcs_path=None) -> Geography:
    """Top-J regions by population and first K FCs, with distances."""
    regions = load_regions(regions_path)
    fcs = load_fcs(fcs_path)
    if not 1 <= J <= len(regions):
        raise GeneratorError(f"J = {J} is outside 1..{len(regions)}, the available regions")
    if not 1 <= K <= len(fcs):
        raise GeneratorError(f"K = {K} is outside 1..{len(fcs)}, the available FCs")
    regions = sorted(regions, key=lambda r: (-r[3], r[0]))[:J]
    fcs = fcs[:K]
    r_lat, r_lon = np.array([r[1:3] for r in regions]).T
    f_lat, f_lon = np.array([f[1:3] for f in fcs]).T
    return Geography(
        region_names=tuple(r[0] for r in regions),
        population=np.array([r[3] for r in regions]),
        fc_names=tuple(f[0] for f in fcs),
        dist=haversine(f_lat[:, None], f_lon[:, None], r_lat[None, :], r_lon[None, :]),
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator parameters, checked on construction.

    The counts and the seed are integers (``operator.index``, no bool);
    ``p_carry`` and ``z_safety`` are finite numbers.
    """

    n: int = 20
    n_max: int = 5
    n_per: int = 5
    p_carry: float = 0.75
    z_safety: float = 0.5
    T: int = 10_000
    J: int = 10
    K: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_max", "n_per", "T", "J", "K", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise GeneratorError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        for name in ("p_carry", "z_safety"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise GeneratorError(f"{name} must be a finite number, got {value!r}")
        if not 1 <= self.n_max <= self.n:
            raise SizeImpossible(f"need 1 <= n_max <= n, got n_max={self.n_max}, n={self.n}")
        if self.n_per < 1:
            raise GeneratorError("n_per must be >= 1")
        if not 0.0 < self.p_carry <= 1.0:
            raise GeneratorError("p_carry must lie in (0, 1]")
        if self.z_safety < 0.0:
            raise GeneratorError("z_safety must be nonnegative")
        if min(self.T, self.J, self.K) < 1:
            raise GeneratorError("T, J, K must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        """The config of a JSON object; a non-object or an unknown key is a
        GeneratorError."""
        if not isinstance(doc, dict):
            raise GeneratorError(f"generator config must be a JSON object, got {type(doc).__name__}")
        unknown = [key for key in doc if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise GeneratorError(f"unknown generator config key {unknown[0]!r}")
        return cls(**doc)


@dataclass(frozen=True)
class DemandProfile:
    """Closest-carrier attribution of per-item arrival mass to FCs."""

    dem: np.ndarray       # (K, n) probability mass per step
    closest: np.ndarray   # (n, J) FC index 1..K, or 0 when no FC carries i
    carry: np.ndarray     # (K, n) bool


def gen_order_types(cfg: GeneratorConfig, rng: RandomStream) -> list:
    """The empty no-arrival type, then n_per uniform subsets per size.

    Subsets are drawn uniformly without replacement within a subset
    (partial Fisher-Yates driven by the stream); identical types may recur
    across draws. Type order: sizes ascending, draws in order.
    """
    types = [()]
    for size in range(1, cfg.n_max + 1):
        for _ in range(cfg.n_per):
            pool = list(range(cfg.n))
            for t in range(size):
                u = rng.uniform()
                off = min(int(u * (cfg.n - t)), cfg.n - t - 1)
                pool[t], pool[t + off] = pool[t + off], pool[t]
            types.append(tuple(sorted(pool[:size])))
    return types


def gen_demand_rates(types: list, geography: Geography, rng: RandomStream) -> np.ndarray:
    """Split total arrival mass over types and regions; returns (Q, J).

    Mass is split uniformly at random (normalized exponentials) first over
    the order sizes 0..n_max, then within each size over its types; each
    type's mass is then split across regions proportionally to population.
    Row 0 is the no-arrival type; the whole matrix sums to 1.
    """
    sizes = sorted({len(a) for a in types})
    by_size = {s: [t for t, a in enumerate(types) if len(a) == s] for s in sizes}
    size_share = -np.log(rng.uniform(len(sizes)))
    size_share /= size_share.sum()
    type_mass = np.zeros(len(types))
    for pos, s in enumerate(sizes):
        members = by_size[s]
        if len(members) == 1:
            type_mass[members[0]] = size_share[pos]
            continue
        w = -np.log(rng.uniform(len(members)))
        w /= w.sum()
        for m_pos, t in enumerate(members):
            type_mass[t] = size_share[pos] * w[m_pos]
    region_share = geography.population / geography.population.sum()
    return type_mass[:, None] * region_share[None, :]


def gen_carrying(cfg: GeneratorConfig, rng: RandomStream) -> np.ndarray:
    """(K, n) carrying decisions, each FC/item pair an independent coin."""
    return rng.uniform((cfg.K, cfg.n)) <= cfg.p_carry


def demand_profile(
    types: list,
    rates: np.ndarray,
    geography: Geography,
    carry: np.ndarray,
) -> DemandProfile:
    """Attribute each item's arrival mass to its closest carrying FC.

    closest[i, j] is the 1-based FC index closest to region j among those
    carrying item i (lowest index on distance ties), or 0 when no FC
    carries the item; such items trigger OrphanItemWarning.
    """
    K, n = carry.shape
    J = geography.J
    item_mass = np.zeros((n, J))
    for t, a in enumerate(types):
        for i in a:
            item_mass[i] += rates[t]
    closest = np.zeros((n, J), dtype=np.int64)
    dem = np.zeros((K, n))
    for i in range(n):
        carriers = np.flatnonzero(carry[:, i])
        if carriers.size == 0:
            if item_mass[i].sum() > 0.0:
                warnings.warn(f"no FC carries item {i}", OrphanItemWarning, stacklevel=2)
            continue
        picks = carriers[np.argmin(geography.dist[carriers, :], axis=0)]
        closest[i] = picks + 1
        for j in range(J):
            dem[picks[j], i] += item_mass[i, j]
    return DemandProfile(dem=dem, closest=closest, carry=carry)


def gen_inventory(cfg: GeneratorConfig, profile: DemandProfile) -> np.ndarray:
    """Newsvendor stocks: ceil(T*dem + z*sqrt(T*dem*(1-dem))), 0 if not carried."""
    mean = cfg.T * profile.dem
    sd = np.sqrt(np.clip(cfg.T * profile.dem * (1.0 - profile.dem), 0.0, None))
    b = np.ceil(mean + cfg.z_safety * sd)
    b[~profile.carry] = 0.0
    return b


def build_instance(cfg: GeneratorConfig, geography: Optional[Geography] = None) -> FulfillmentInstance:
    """Compose a full instance; draw order: types, rates, carrying."""
    if geography is None:
        geography = build_geography(cfg.J, cfg.K)
    if geography.J != cfg.J or geography.K != cfg.K:
        raise GeneratorError("geography dimensions disagree with the config")
    rng = RandomStream(cfg.seed)
    types = gen_order_types(cfg, rng)
    rates = gen_demand_rates(types, geography, rng)
    carry = gen_carrying(cfg, rng)
    profile = demand_profile(types, rates, geography, carry)
    b = gen_inventory(cfg, profile)

    K, n, J = cfg.K, cfg.n, cfg.J
    unit = np.empty((K + 1, n, J))
    unit[1:] = unit_cost(geography.dist)[:, None, :]
    # shortage: each unfulfilled item is priced like a dedicated box sent
    # over double the maximum network distance. That sits just above the
    # costliest real fulfillment, so the null FC absorbs stockouts without
    # ever being a bargain or a consolidation point (it ships no real box,
    # hence no fixed cost of its own).
    unit[0] = FIXED_COST + unit_cost(2.0 * geography.dist.max())
    fixed = np.full((K + 1, J), FIXED_COST)
    fixed[0] = 0.0
    inventory = np.empty((K + 1, n))
    inventory[0] = np.inf
    inventory[1:] = b

    return FulfillmentInstance(
        n=n,
        K=K,
        J=J,
        T=cfg.T,
        types=tuple(a for a in types if a),
        rates=rates[1:],
        unit_cost=unit,
        fixed_cost=fixed,
        inventory=inventory,
        meta={
            "seed": cfg.seed,
            "config": {
                "n": cfg.n, "n_max": cfg.n_max, "n_per": cfg.n_per,
                "p_carry": cfg.p_carry, "z_safety": cfg.z_safety,
                "T": cfg.T, "J": cfg.J, "K": cfg.K,
            },
            "regions": list(geography.region_names),
            "fcs": list(geography.fc_names),
        },
    )
