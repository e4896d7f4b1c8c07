"""Run one workload of the corround benchmark and print its metrics.

    python3 perfbench/run.py --workload lp_solve --seed 20250808 --seconds 50 --trace 0

Run it from the repository root: it imports the package from ``src/`` next
to this directory and nowhere else. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, and the traced run writes its spans to
``perfbench/traces/<workload>-<seed>.npz``. The line before it records the
machine and library versions. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import warnings
from pathlib import Path

# one calling thread: BLAS pools must not start before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
EXIT_USAGE = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    if not (SRC / "corround" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import corround
    from corround.instances import OrphanItemWarning

    # random carrying leaves an item unstocked now and then; the instance
    # is still valid and the warning would only clutter the output
    warnings.simplefilter("ignore", OrphanItemWarning)
    if Path(corround.__file__).resolve().parent != SRC / "corround":
        print(f"perfbench: imported corround from {corround.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_USAGE

    tracer = spans.Tracer(args.workload) if args.trace else spans.NullTracer()
    span_ns = 0.0
    if args.trace:
        span_ns = tracer.span_cost_ns()
        tracer.install()
    try:
        with tracer.span("bench.run", workload=args.workload, seed=args.seed):
            rec, _ = workloads.run(args.workload, args.seed, args.seconds, tracer)
    finally:
        if args.trace:
            tracer.uninstall()

    if args.trace:
        metrics = workloads.per_layer(rec, tracer, span_ns)
        tracer.write(TRACE_DIR / f"{args.workload}-{args.seed}.npz")
    else:
        metrics = workloads.end_to_end(rec)
    missing = sorted(k for k, (v, _) in metrics.items() if v is None)
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}))
    print(json.dumps({
        "correct": rec.failed == 0 and not missing,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
