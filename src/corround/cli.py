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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

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


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CORROUND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"CORROUND_SEED={env!r} is not an integer")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# round
# ---------------------------------------------------------------------------


def cmd_round(args) -> int:
    try:
        with open(args.instance) as f:
            m = rounding.read_instance(f)
    except (OSError, rounding.ParseError) as exc:
        print(f"round: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_USAGE
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

    stem = args.out
    with open(f"{stem}.marginals.csv", "w") as f:
        f.write("item,fc,u,empirical,abs_err\n")
        for i in range(m.q):
            for k in range(m.K):
                f.write(f"{i},{k},{_fmt(m.u[i, k])},{_fmt(rep.marginals[i, k])},"
                        f"{_fmt(marg_err[i, k])}\n")
    with open(f"{stem}.usage.csv", "w") as f:
        f.write("fc,y,usage_empirical,bound,scheme\n")
        for k in range(m.K):
            f.write(f"{k},{_fmt(m.y[k])},{_fmt(rep.usage[k])},"
                    f"{_fmt(usage_bound[k])},{args.scheme}\n")

    print(f"marginals: {'PASS' if marg_ok else 'FAIL'} "
          f"(max |err| {marg_err.max():.2e}, 4-sigma slack {marg_slack.max():.2e})")
    print(f"usage:     {'PASS' if usage_ok else 'FAIL'} "
          f"(guarantee {g:.4f}, slack {usage_slack:.2e})")
    return EXIT_OK if marg_ok and usage_ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# lp-optimal
# ---------------------------------------------------------------------------


def cmd_lp_optimal(args) -> int:
    try:
        with open(args.instance) as f:
            m = rounding.read_instance(f)
    except (OSError, rounding.ParseError) as exc:
        print(f"lp-optimal: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sol = optimal.solve_optimal_alpha(m, cap=args.cap)
    except CapExceeded as exc:
        print(f"lp-optimal: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (optimal.SolverFailure, simplex.SolverNumericalError) as exc:
        print(f"lp-optimal: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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


def cmd_cover(args) -> int:
    try:
        with open(args.instance) as f:
            sc = setcover.read_cover_instance(f)
        with open(args.weights) as f:
            y = np.array([float(v) for v in f.read().split()])
        fc = setcover.FractionalCover(y=y)
        m = setcover.marginals_from_fractional_cover(sc, fc)
    except (OSError, ValueError) as exc:
        print(f"cover: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = _seed_from(args)
    usage, feasible = setcover.batch_cover_usage(
        sc, fc, args.scheme, args.samples, RandomStream(seed)
    )
    g = rounding.scheme_guarantee(args.scheme, m)
    slack = 4.0 * math.sqrt(0.25 / args.samples)
    bound = np.minimum(g * fc.y, 1.0)
    ok = feasible == args.samples and bool(np.all(usage <= bound + slack))
    if args.out:
        with open(args.out, "w") as f:
            f.write("fc,y,usage_empirical,bound,scheme\n")
            for k in range(sc.K):
                f.write(f"{k},{_fmt(fc.y[k])},{_fmt(usage[k])},"
                        f"{_fmt(bound[k])},{args.scheme}\n")
    print(f"feasible: {feasible}/{args.samples}")
    print(f"usage bound ({g:.4f} x y): {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# gen-instance
# ---------------------------------------------------------------------------


def cmd_gen_instance(args) -> int:
    try:
        with open(args.config) as f:
            doc = json.load(f)
        if args.seed is not None:
            doc["seed"] = args.seed
        cfg = instances.GeneratorConfig.from_dict(doc)
        geo = instances.build_geography(cfg.J, cfg.K, args.regions, args.fcs)
        inst = instances.build_instance(cfg, geo)
    except (OSError, json.JSONDecodeError, TypeError, instances.GeneratorError) as exc:
        print(f"gen-instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as f:
            fulfillment.write_instance_json(inst, f)
    else:
        fulfillment.write_instance_json(inst, sys.stdout)
    print(
        f"instance: n={inst.n} K={inst.K} J={inst.J} T={inst.T} "
        f"types={len(inst.types)} seed={cfg.seed}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# the (instance, plan) a campaign worker simulates; set once per worker, so
# the plan's dispatch table is built once per worker, not once per job
_campaign = None


def _campaign_init(inst, plan):
    global _campaign
    _campaign = (inst, plan)


def _campaign_job(job):
    policy, rep_seed = job
    return fulfillment.simulate(*_campaign, policy, RandomStream(rep_seed))


def _campaign_int(doc: dict, key: str, default: int = 1) -> int:
    """A campaign integer: a JSON integer, ``default`` when absent; no float
    or boolean."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(doc, dict):
        print(f"simulate: config must be a JSON object, got {type(doc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    try:
        base_seed = args.seed if args.seed is not None else _campaign_int(
            doc, "base_seed", _seed_from(args)
        )
        n_instances = _campaign_int(doc, "instances")
        n_reps = _campaign_int(doc, "replications")
        theta = args.scale if args.scale is not None else float(doc.get("scale", 1.0))
    except (TypeError, ValueError) as exc:
        print(f"simulate: bad campaign value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    policies = args.policies.split(",") if args.policies else doc.get(
        "policies", list(fulfillment.POLICIES)
    )
    if not isinstance(policies, list):
        print("simulate: policies must be a list", file=sys.stderr)
        return EXIT_USAGE
    for p in policies:
        if p not in fulfillment.POLICIES:
            print(f"simulate: unknown policy {p!r}", file=sys.stderr)
            return EXIT_USAGE
    if n_instances < 1 or n_reps < 1:
        print("simulate: instance and replication counts must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not (theta > 0.0 and math.isfinite(theta)):
        print(f"simulate: scale must be positive and finite, got {theta}", file=sys.stderr)
        return EXIT_USAGE
    try:
        gen_doc = dict(doc.get("generator", {}))
        gen_doc.pop("seed", None)
        geo = instances.build_geography(
            gen_doc.get("J", 10), gen_doc.get("K", 5),
            doc.get("regions_csv"), doc.get("fcs_csv"),
        )
    except instances.GeneratorError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    aggregates = {p: [] for p in policies}
    for idx in range(n_instances):
        inst_seed = derive_seed(base_seed, INSTANCE_STRIDE + idx)
        try:
            cfg = instances.GeneratorConfig.from_dict({**gen_doc, "seed": inst_seed})
            inst = instances.build_instance(cfg, geo)
        except (TypeError, instances.GeneratorError) as exc:
            print(f"simulate: generator config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if theta != 1.0:
            try:
                inst = fulfillment.scale(inst, theta)
            except fulfillment.FulfillmentError as exc:
                print(f"simulate: {exc}", file=sys.stderr)
                return EXIT_USAGE
        try:
            plan = fulfillment.solve_dlp(inst)
        except (fulfillment.DLPSolveError, simplex.SolverNumericalError) as exc:
            print(f"simulate: instance {idx}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        jobs = []
        for rep in range(n_reps):
            rep_seed = derive_seed(inst_seed, REPLICATION_STRIDE + rep)
            for policy in policies:
                jobs.append((policy, rep_seed))
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers, initializer=_campaign_init,
                                     initargs=(inst, plan)) as pool:
                reports = list(pool.map(_campaign_job, jobs))
        else:
            reports = [fulfillment.simulate(inst, plan, p, RandomStream(s)) for p, s in jobs]
        per_policy = {p: [] for p in policies}
        for (policy, _), rpt in zip(jobs, reports):
            per_policy[policy].append(rpt)
        # instance_id carries the base and instance seeds; together with the
        # seed column every row names the full (base, instance, replication)
        # triple needed to replay it
        inst_id = f"b{base_seed}-i{idx:02d}-s{inst_seed}"
        for rep in range(n_reps):
            for p_pos, policy in enumerate(policies):
                rpt = reports[rep * len(policies) + p_pos]
                wall = 0.0 if args.stable_timing else rpt.wall_ms
                rows.append(
                    f"{inst_id},{rep},{rpt.policy},{rpt.scheme},"
                    f"{_fmt(rpt.total_cost)},{_fmt(rpt.fixed_cost)},"
                    f"{_fmt(rpt.unit_cost)},{_fmt(rpt.shortage_cost)},"
                    f"{_fmt(rpt.dlp_value)},{_fmt(rpt.loss_pct)},"
                    f"{_fmt(rpt.fcs_per_order)},{_fmt(wall)},{rpt.seed}"
                )
        for policy in policies:
            reps = per_policy[policy]
            aggregates[policy].append((
                float(np.mean([r.loss_pct for r in reps])),
                float(np.mean([r.fcs_per_order for r in reps])),
                float(np.mean([r.wall_ms for r in reps])),
            ))

    out = "\n".join([ROW_HEADER, *rows]) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)

    # aggregate table in the orientation of the experiment write-ups:
    # one column per policy, means and standard errors taken across instances
    cols = {}
    for policy in policies:
        loss = np.array([a[0] for a in aggregates[policy]])
        fcs = np.array([a[1] for a in aggregates[policy]])
        wall = np.array([a[2] for a in aggregates[policy]])
        se = float(loss.std(ddof=1) / math.sqrt(len(loss))) if len(loss) > 1 else 0.0
        cols[policy] = {
            "mean_loss_pct": float(loss.mean()),
            "se_loss_pct": se,
            "mean_fcs_per_order": float(fcs.mean()),
            "mean_wall_ms": 0.0 if args.stable_timing else float(wall.mean()),
            "instances": float(n_instances),
            "replications": float(n_reps),
        }
    metrics = ("mean_loss_pct", "se_loss_pct", "mean_fcs_per_order",
               "mean_wall_ms", "instances", "replications")
    agg_lines = ["metric," + ",".join(policies)]
    for metric in metrics:
        agg_lines.append(metric + "," + ",".join(_fmt(cols[p][metric]) for p in policies))
    agg = "\n".join(agg_lines) + "\n"
    if args.agg_out:
        with open(args.agg_out, "w") as f:
            f.write(agg)
    else:
        sys.stdout.write(agg)
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
    lines = ["scheme,q,K,us_per_call"]
    results = {"dilate": [], "force_open": []}
    for q in qs:
        m = rounding.validate(gen.dirichlet(np.ones(K), size=q))
        rng = RandomStream(derive_seed(seed, q))
        repeats = max(9, min(200, 20000 // q))
        for scheme, fn in (
            ("dilate", lambda mm, rr: rounding.dilate_round(mm, rr)),
            ("force_open", lambda mm, rr: rounding.force_open_round(mm, rr)),
        ):
            us = _time_calls(m, fn, rng, repeats)
            results[scheme].append((q * K, us))
            lines.append(f"{scheme},{q},{K},{us:.3f}")
    worst = 0.0
    for scheme, pts in results.items():
        x = np.array([p[0] for p in pts])
        t = np.array([p[1] for p in pts])
        A = np.vstack([np.ones_like(x, dtype=float), x]).T
        coef, *_ = np.linalg.lstsq(A, t, rcond=None)
        fit = A @ coef
        ratio = float(np.max(np.maximum(t / fit, fit / t)))
        worst = max(worst, ratio)
        print(f"{scheme}: fit {coef[0]:.1f} + {coef[1]:.5f}*qK us, max ratio {ratio:.2f}")
    m_big = rounding.validate(gen.dirichlet(np.ones(100), size=1000))
    rng = RandomStream(seed)
    one_ms = _time_calls(m_big, lambda mm, rr: rounding.dilate_round(mm, rr), rng, 15) / 1e3
    fo_ms = _time_calls(m_big, lambda mm, rr: rounding.force_open_round(mm, rr), rng, 15) / 1e3
    print(f"q=1000, K=100: dilate {one_ms:.3f} ms, force_open {fo_ms:.3f} ms")
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
