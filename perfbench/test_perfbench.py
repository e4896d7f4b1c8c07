"""Self-tests of the benchmark: exact counts repeat, checks bite, spans add up.

    python3 -m pytest perfbench -q

The repeat tests run every workload twice in traced mode (about a minute
on two cores).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gauge  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from corround import fulfillment, rounding, simplex  # noqa: E402
from corround.streams import RandomStream  # noqa: E402

EXACT = (
    "simplex.dlp.iterations", "simplex.dlp.rows", "simplex.dlp.cols", "simplex.dlp.nnz",
    "simplex.subset.iterations", "simplex.subset.rows", "simplex.subset.cols", "simplex.subset.nnz",
    "fulfillment.simulate.orders",
    "streams.uniforms_per_decision.independent", "streams.uniforms_per_decision.dilate",
    "streams.uniforms_per_decision.force_open", "streams.mc.uniforms",
    "rounding.mc.elems", "rounding.mc.bytes_computed",
)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_pair(request):
    args = ("--workload", request.param, "--seed", "7", "--seconds", "1", "--trace", "1")
    return result(bench(*args)), result(bench(*args))


def test_exact_counts_repeat(traced_pair):
    first, second = traced_pair
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name


def test_self_times_account_for_wall(traced_pair):
    metrics = traced_pair[0]["metrics"]
    layers = [f"trace.self_s.{layer}" for layer in ("bench", *spans.LAYERS)]
    total = sum(metrics[name]["value"] for name in layers)
    assert math.isclose(total, metrics["trace.wall_s"]["value"], rel_tol=1e-6)
    assert all(metrics[name]["value"] > 0 for name in layers)


def test_untraced_run_prints_every_end_to_end_metric():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    out = result(bench("--workload", "dispatch_mc", "--seed", "3", "--seconds", "1"))
    assert out["correct"]
    assert sorted(out["metrics"]) == sorted(names)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced_pair):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(traced_pair[0]["metrics"]) == sorted(names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = bench("--workload", "lp_solve", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_times_follow_the_gauge():
    ref = gauge.REF_S
    at_ref, twice = (1.0, ref), (1.0, 2.0 * ref)
    assert workloads._at_ref([at_ref, twice], "lp") == pytest.approx([1.0, 0.5])
    assert workloads._at_ref([twice], "mc") == pytest.approx([0.5])
    block = (30.0, 60.0, 1.5 * ref)
    assert workloads._block([block], 1) == pytest.approx(40.0)
    g = gauge.Gauge()
    assert np.all(g.read() > 0)


def test_highs_reference_matches_a_known_optimum():
    # min -x - y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  x = 1.6, y = 1.2
    problem = simplex.LPProblem(
        c=[-1.0, -1.0],
        constraints=[({0: 1.0, 1: 2.0}, "<=", 4.0), ({0: 3.0, 1: 1.0}, "<=", 6.0)],
    )
    assert math.isclose(checks.highs_objective(problem), -2.8, rel_tol=1e-9)
    checks.same_optimum(simplex.solve(problem).objective, -2.8, "toy LP")
    with pytest.raises(checks.CheckFailed):
        checks.same_optimum(-2.79, -2.8, "toy LP")


def _report(m, scheme, marginals, usage, n):
    return rounding.MCReport(scheme=scheme, n_samples=n, marginals=marginals, usage=usage)


def test_marginal_check_passes_exact_and_catches_bias():
    m = rounding.validate([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    rep = rounding.mc_estimate(m, "dilate", 20000, RandomStream(1))
    checks.marginals_match(m, rep)
    checks.usage_bounded(m, rep)
    biased = rep.marginals.copy()
    biased[0] = [0.55, 0.45, 0.0]
    with pytest.raises(checks.CheckFailed):
        checks.marginals_match(m, _report(m, "dilate", biased, rep.usage, 20000))
    with pytest.raises(checks.CheckFailed):
        checks.usage_bounded(m, _report(m, "dilate", rep.marginals, np.array([1.0, 1.0, 1.0]), 20000))


def test_tracer_restores_every_function():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in spans.TRACED}
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert fulfillment.solve_dlp is not before[(fulfillment, "solve_dlp")]
        with tracer.span("bench.run"):
            m = rounding.validate([[1.0, 0.0], [0.5, 0.5]])
            rounding.dilate_round(m, RandomStream(3))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    names = {tracer.names[i] for i in tracer.name}
    assert {"bench.run", "rounding.validate", "rounding.dilate_round", "streams.uniform"} <= names
    self_s = tracer.self_times()
    _, root = tracer.durations("bench.run")
    assert math.isclose(sum(self_s.values()), float(root.sum()), rel_tol=1e-9)
