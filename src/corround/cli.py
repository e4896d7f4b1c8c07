"""Batch experiment driver.

Subcommands:

* ``round``        Monte Carlo check of a rounding scheme on an instance file.
* ``lp-optimal``   instance-optimal subset LP: alpha* and the solved scheme.
* ``cover``        randomized set covering from a fractional solution.
* ``gen-instance`` reproducible fulfillment instance from a generator config.
* ``simulate``     full campaign: DLP once per instance, shared arrival
                   sequences across policies, per-replication and aggregate CSV.
* ``bench``        rounding-call timing sweep against the linear qK model.

All randomness is seeded; ``--seed`` wins over the CORROUND_SEED environment
variable. Outputs are CSV or the documented text formats. Exit codes:
0 success, 2 usage/parse, 3 cap exceeded, 4 solver failure, 5 check failed.

Commands raise; ``main`` alone maps an error to its exit code through
``EXIT_CODES`` and prints one ``<command>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import fulfillment, instances, optimal, rounding, setcover, simplex
from .errors import CapExceeded
from .streams import RandomStream, derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_SOLVER = 4
EXIT_CHECK = 5

# seed derivation offsets; every output row carries enough seeds to replay it
INSTANCE_STRIDE = 0xA5A50000
REPLICATION_STRIDE = 0x5EED0000

ROW_HEADER = (
    "instance_id,replication,policy,scheme,total_cost,fixed,unit,"
    "shortage,dlp,loss_pct,fcs_per_order,wall_ms,seed"
)


class UsageError(ValueError):
    """A flag, environment variable or campaign value the commands cannot use."""


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CORROUND_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"CORROUND_SEED={env!r} is not an integer") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def _load(path, reader):
    """``reader``'s result on the file at ``path``; a ParseError names the file."""
    with open(path) as f:
        try:
            return reader(f)
        except rounding.ParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when there is no path."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _usage_csv(y, usage, bound, scheme: str) -> str:
    """The per-FC usage table that ``round`` and ``cover`` write."""
    lines = ["fc,y,usage_empirical,bound,scheme"]
    lines += [f"{k},{_fmt(y[k])},{_fmt(usage[k])},{_fmt(bound[k])},{scheme}" for k in range(len(y))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# round
# ---------------------------------------------------------------------------


def cmd_round(args) -> int:
    m = _load(args.instance, rounding.read_instance)
    seed = _seed_from(args)
    rep = rounding.mc_estimate(m, args.scheme, args.samples, RandomStream(seed))
    g = rounding.scheme_guarantee(args.scheme, m)
    n = args.samples

    marg_slack = 4.0 * np.sqrt(m.u * (1.0 - m.u) / n)
    marg_err = np.abs(rep.marginals - m.u)
    marg_ok = bool(np.all(marg_err <= marg_slack + 1e-12))
    usage_slack = 4.0 * math.sqrt(0.25 / n)
    usage_bound = np.minimum(g * m.y, 1.0)
    usage_ok = bool(np.all(rep.usage <= usage_bound + usage_slack))

    marginals = ["item,fc,u,empirical,abs_err"]
    marginals += [f"{i},{k},{_fmt(m.u[i, k])},{_fmt(rep.marginals[i, k])},{_fmt(marg_err[i, k])}"
                  for i in range(m.q) for k in range(m.K)]
    _write(f"{args.out}.marginals.csv", "\n".join(marginals) + "\n")
    _write(f"{args.out}.usage.csv", _usage_csv(m.y, rep.usage, usage_bound, args.scheme))

    print(f"marginals: {'PASS' if marg_ok else 'FAIL'} "
          f"(max |err| {marg_err.max():.2e}, 4-sigma slack {marg_slack.max():.2e})")
    print(f"usage:     {'PASS' if usage_ok else 'FAIL'} "
          f"(guarantee {g:.4f}, slack {usage_slack:.2e})")
    return EXIT_OK if marg_ok and usage_ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# lp-optimal
# ---------------------------------------------------------------------------


def cmd_lp_optimal(args) -> int:
    m = _load(args.instance, rounding.read_instance)
    sol = optimal.solve_optimal_alpha(m, cap=args.cap)
    gd = rounding.guarantee_dilate(m.q)
    gf = rounding.guarantee_force_open(m)
    print(f"alpha* = {sol.alpha!r}")
    print(f"dilate guarantee     = {gd!r} (gap {gd - sol.alpha:+.6f})")
    print(f"force-open guarantee = {gf!r} (gap {gf - sol.alpha:+.6f})")
    if args.out:
        with open(args.out, "w") as f:
            optimal.write_solution(sol, f)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def _read_weights(f) -> setcover.FractionalCover:
    """Whitespace-separated weights; a non-number is a ParseError on its line."""
    y = []
    for ln, line in enumerate(f, start=1):
        try:
            y += [float(v) for v in line.split()]
        except ValueError:
            raise rounding.ParseError(ln, f"non-numeric weight in {line.strip()!r}") from None
    return setcover.FractionalCover(y=np.array(y))


def cmd_cover(args) -> int:
    sc = _load(args.instance, setcover.read_cover_instance)
    fc = _load(args.weights, _read_weights)
    m = setcover.marginals_from_fractional_cover(sc, fc)
    seed = _seed_from(args)
    usage, feasible = setcover.batch_cover_usage(
        sc, fc, args.scheme, args.samples, RandomStream(seed)
    )
    g = rounding.scheme_guarantee(args.scheme, m)
    slack = 4.0 * math.sqrt(0.25 / args.samples)
    bound = np.minimum(g * fc.y, 1.0)
    ok = feasible == args.samples and bool(np.all(usage <= bound + slack))
    if args.out:
        _write(args.out, _usage_csv(fc.y, usage, bound, args.scheme))
    print(f"feasible: {feasible}/{args.samples}")
    print(f"usage bound ({g:.4f} x y): {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# gen-instance
# ---------------------------------------------------------------------------


def cmd_gen_instance(args) -> int:
    cfg = instances.GeneratorConfig.from_dict(_load(args.config, json.load))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    geo = instances.build_geography(cfg.J, cfg.K, args.regions, args.fcs)
    inst = instances.build_instance(cfg, geo)
    _write(args.out, fulfillment.instance_to_json(inst) + "\n")
    print(
        f"instance: n={inst.n} K={inst.K} J={inst.J} T={inst.T} "
        f"types={len(inst.types)} seed={cfg.seed}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Campaign:
    """A checked ``simulate`` config; the README lists each key's rule.
    ``generator`` has seed 0: instance i derives its seed from ``base_seed``."""

    generator: instances.GeneratorConfig = instances.GeneratorConfig()
    instances: int = 1
    replications: int = 1
    policies: tuple = fulfillment.POLICIES
    scale: float = 1.0
    base_seed: int = 0
    regions_csv: Optional[str] = None
    fcs_csv: Optional[str] = None

    def __post_init__(self):
        for key in ("instances", "replications", "base_seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{key} must be an integer, got {json.dumps(value)}")
        if min(self.instances, self.replications) < 1:
            raise UsageError("instance and replication counts must be >= 1")
        if not isinstance(self.policies, (list, tuple)):
            raise UsageError("policies must be a list")
        for p in self.policies:
            if p not in fulfillment.POLICIES:
                raise UsageError(f"unknown policy {p!r}")
        if len(set(self.policies)) < len(self.policies):
            raise UsageError(f"policies repeat a name: {', '.join(self.policies)}")
        scale = self.scale
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not 0 < scale < math.inf:
            raise UsageError(f"scale must be positive and finite, got {json.dumps(scale)}")
        for key in ("regions_csv", "fcs_csv"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise UsageError(f"{key} must be a path, got {json.dumps(getattr(self, key))}")
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "scale", float(scale))

    @classmethod
    def from_dict(cls, doc, seed: int = 0, **flags) -> "Campaign":
        """The campaign of a JSON config. ``seed`` is the base seed when the
        config names none; each flag that is not None wins over its key."""
        if not isinstance(doc, dict):
            raise UsageError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = [key for key in doc if key not in {f.name for f in dataclasses.fields(cls)}]
        if unknown:
            raise UsageError(f"unknown campaign key {unknown[0]!r}")
        doc = {"base_seed": seed, **doc, **{k: v for k, v in flags.items() if v is not None}}
        gen = doc.get("generator", {})
        doc["generator"] = instances.GeneratorConfig.from_dict(
            {**gen, "seed": 0} if isinstance(gen, dict) else gen
        )
        return cls(**doc)


# the (instance, plan) a campaign worker simulates; set once per worker, so
# the plan's dispatch table is built once per worker, not once per job
_campaign = None


def _campaign_init(inst, plan):
    global _campaign
    _campaign = (inst, plan)


def _campaign_job(job):
    policy, rep_seed = job
    return fulfillment.simulate(*_campaign, policy, RandomStream(rep_seed))


def cmd_simulate(args) -> int:
    campaign = Campaign.from_dict(
        _load(args.config, json.load), _seed_from(args), base_seed=args.seed, scale=args.scale,
        policies=args.policies.split(",") if args.policies else None,
    )
    policies, n_reps = campaign.policies, campaign.replications
    gen = campaign.generator
    geo = instances.build_geography(gen.J, gen.K, campaign.regions_csv, campaign.fcs_csv)

    rows = [ROW_HEADER]
    # loss_pct, fcs_per_order and wall_ms of each (policy, instance,
    # replication); with replications on the contiguous last axis, each mean
    # over them is numpy's pairwise sum of one row, bit for bit the 1-D mean
    stats = np.empty((3, len(policies), campaign.instances, n_reps))
    for idx in range(campaign.instances):
        inst_seed = derive_seed(campaign.base_seed, INSTANCE_STRIDE + idx)
        inst = instances.build_instance(dataclasses.replace(gen, seed=inst_seed), geo)
        inst = fulfillment.scale(inst, campaign.scale)
        plan = fulfillment.solve_dlp(inst)
        jobs = [(policy, derive_seed(inst_seed, REPLICATION_STRIDE + rep))
                for rep in range(n_reps) for policy in policies]
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers, initializer=_campaign_init,
                                     initargs=(inst, plan)) as pool:
                reports = list(pool.map(_campaign_job, jobs))
        else:
            reports = [fulfillment.simulate(inst, plan, p, RandomStream(s)) for p, s in jobs]
        # instance_id carries the base and instance seeds; together with the
        # seed column every row names the full (base, instance, replication)
        # triple needed to replay it
        inst_id = f"b{campaign.base_seed}-i{idx:02d}-s{inst_seed}"
        for r, rpt in enumerate(reports):
            rep, p_pos = divmod(r, len(policies))
            wall_ms = 0.0 if args.stable_timing else rpt.wall_ms
            stats[:, p_pos, idx, rep] = rpt.loss_pct, rpt.fcs_per_order, wall_ms
            rows.append(
                f"{inst_id},{rep},{rpt.policy},{rpt.scheme},"
                f"{_fmt(rpt.total_cost)},{_fmt(rpt.fixed_cost)},"
                f"{_fmt(rpt.unit_cost)},{_fmt(rpt.shortage_cost)},"
                f"{_fmt(rpt.dlp_value)},{_fmt(rpt.loss_pct)},"
                f"{_fmt(rpt.fcs_per_order)},{_fmt(wall_ms)},{rpt.seed}"
            )
    _write(args.out, "\n".join(rows) + "\n")

    # aggregate table in the orientation of the experiment write-ups: one
    # column per policy, means and standard errors taken across instances of
    # each instance's mean over its replications
    loss, fcs, wall = stats.mean(axis=3)
    n = campaign.instances
    table = {
        "mean_loss_pct": loss.mean(axis=1),
        "se_loss_pct": loss.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(policies)),
        "mean_fcs_per_order": fcs.mean(axis=1),
        "mean_wall_ms": wall.mean(axis=1),
        "instances": np.full(len(policies), n),
        "replications": np.full(len(policies), n_reps),
    }
    agg = ["metric," + ",".join(policies)]
    agg += [metric + "," + ",".join(map(_fmt, values)) for metric, values in table.items()]
    _write(args.agg_out, "\n".join(agg) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _time_calls(m, fn, rng, repeats):
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(m, rng)
        best.append(time.perf_counter() - t0)
    return float(np.median(best)) * 1e6  # microseconds


def cmd_bench(args) -> int:
    seed = _seed_from(args)
    gen = np.random.default_rng(seed)
    K = 16
    qs = [10 * 2 ** p for p in range(8)]  # 10 .. 1280
    schemes = (("dilate", rounding.dilate_round), ("force_open", rounding.force_open_round))
    lines = ["scheme,q,K,us_per_call"]
    results = {scheme: [] for scheme, _ in schemes}
    for q in qs:
        m = rounding.validate(gen.dirichlet(np.ones(K), size=q))
        rng = RandomStream(derive_seed(seed, q))
        repeats = max(9, min(200, 20000 // q))
        for scheme, fn in schemes:
            us = _time_calls(m, fn, rng, repeats)
            results[scheme].append(us)
            lines.append(f"{scheme},{q},{K},{us:.3f}")
    x = K * np.array(qs)
    A = np.vstack([np.ones_like(x, dtype=float), x]).T
    worst = 0.0
    for scheme, t in results.items():
        t = np.array(t)
        coef, *_ = np.linalg.lstsq(A, t, rcond=None)
        fit = A @ coef
        ratio = float(np.max(np.maximum(t / fit, fit / t)))
        worst = max(worst, ratio)
        print(f"{scheme}: fit {coef[0]:.1f} + {coef[1]:.5f}*qK us, max ratio {ratio:.2f}")
    m_big = rounding.validate(gen.dirichlet(np.ones(100), size=1000))
    rng = RandomStream(seed)
    one_ms = _time_calls(m_big, rounding.dilate_round, rng, 15) / 1e3
    fo_ms = _time_calls(m_big, rounding.force_open_round, rng, 15) / 1e3
    print(f"q=1000, K=100: dilate {one_ms:.3f} ms, force_open {fo_ms:.3f} ms")
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
    if args.check and (worst > 2.0 or one_ms > 10.0 or fo_ms > 10.0):
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corround",
        description="correlated rounding schemes and the LP-driven fulfillment simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("round", help="Monte Carlo scheme check on an instance file")
    p.add_argument("instance")
    p.add_argument("--scheme", choices=rounding.SCHEMES, default="dilate")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output stem for the two CSVs")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("lp-optimal", help="instance-optimal alpha via the subset LP")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=optimal.DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lp_optimal)

    p = sub.add_parser("cover", help="randomized set covering from a fractional solution")
    p.add_argument("instance", help="set cover instance file")
    p.add_argument("weights", help="file of K fractional weights")
    p.add_argument("--scheme", choices=rounding.SCHEMES, default="dilate")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("gen-instance", help="generate a fulfillment instance")
    p.add_argument("--config", required=True)
    p.add_argument("--regions", default=None)
    p.add_argument("--fcs", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("simulate", help="run a simulation campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--agg-out", default=None)
    p.add_argument("--policies", default=None, help="comma-separated override")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--stable-timing", action="store_true",
                   help="write wall_ms as 0 for diffable output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="rounding runtime sweep vs the linear qK model")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_bench)
    return ap


# (error kinds, exit code); the first row that matches wins. Any other
# exception is a bug and keeps its traceback, which is why no bare
# TypeError or ValueError is listed.
EXIT_CODES = (
    (CapExceeded, EXIT_CAP),
    ((optimal.SolverFailure, simplex.SolverNumericalError, fulfillment.DLPSolveError), EXIT_SOLVER),
    ((OSError, json.JSONDecodeError, UsageError, rounding.ParseError, rounding.RoundingError,
      setcover.SetCoverError, instances.GeneratorError, fulfillment.FulfillmentError), EXIT_USAGE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for kinds, code in EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        print(f"{args.command}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
