import hashlib
import json
import math

import numpy as np
import pytest

from corround import cli, fulfillment, rounding, simplex
from corround.errors import SolverFailure

DET_INSTANCE = "2 2\n1.0 0.0\n0.0 1.0\n"
MIXED_INSTANCE = "2 3\n0.2 0.5 0.3\n0.6 0.1 0.3\n"


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


def test_round_deterministic_instance(tmp_path):
    inst = tmp_path / "det.txt"
    inst.write_text(DET_INSTANCE)
    stem = tmp_path / "mc"
    code = run(["round", str(inst), "--scheme", "dilate", "--samples", "2000",
                "--seed", "3", "--out", str(stem)])
    assert code == cli.EXIT_OK
    lines = (tmp_path / "mc.marginals.csv").read_text().splitlines()
    assert lines[0] == "item,fc,u,empirical,abs_err"
    for ln in lines[1:]:
        assert ln.rsplit(",", 1)[1] == "0.0"
    usage = (tmp_path / "mc.usage.csv").read_text().splitlines()
    assert usage[0] == "fc,y,usage_empirical,bound,scheme"
    assert len(usage) == 3


def test_round_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0.5 0.5\n")
    code = run(["round", str(bad), "--out", str(tmp_path / "x"), "--samples", "10"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("text,line", [
    ("2 2\n0.5 0.5\n0.6 0.3\n", 3),
    ("1 2\n0.5 0.5\n0.1 0.9\n", 3),
    ("-1 2\n", 1),
])
def test_round_bad_rows_and_header_name_their_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = run(["round", str(bad), "--out", str(tmp_path / "x"), "--samples", "10"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"round: {bad}: line {line}: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_round_non_finite_entry_is_a_parse_error(tmp_path, capsys, value):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"2 2\n0.5 0.5\n{value} 1.0\n")
    code = run(["round", str(bad), "--out", str(tmp_path / "x"), "--samples", "10"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"round: {bad}: line 3: non-finite value")
    assert not (tmp_path / "x.marginals.csv").exists()


def test_load_sets_the_parse_error_path(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0.5 0.5\nx 1.0\n")
    with pytest.raises(rounding.ParseError) as err:
        cli._load(str(bad), rounding.read_instance)
    assert (err.value.path, err.value.line) == (str(bad), 3)
    assert str(err.value) == f"{bad}: line 3: non-numeric value in 'x 1.0'"
    # the printed line is the message, path first
    assert run(["round", str(bad), "--out", str(tmp_path / "x"), "--samples", "10"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"round: {err.value}\n"


def test_round_unknown_scheme_usage_error(tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text(DET_INSTANCE)
    code = run(["round", str(inst), "--scheme", "quantum", "--out", str(tmp_path / "x")])
    assert code == 2


def test_lp_optimal_prints_alpha(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("1 2\n0.3 0.7\n")
    out = tmp_path / "sol.txt"
    code = run(["lp-optimal", str(inst), "--out", str(out)])
    assert code == cli.EXIT_OK
    stdout = capsys.readouterr().out
    printed = float(stdout.splitlines()[0].split("=")[1])
    assert printed == pytest.approx(1.0, abs=1e-7)
    assert float(out.read_text().splitlines()[0]) == pytest.approx(1.0, abs=1e-7)


def test_lp_optimal_cap_exceeded(tmp_path):
    row = " ".join(["0.07692307692307693"] * 13)
    inst = tmp_path / "wide.txt"
    inst.write_text(f"1 13\n{row}\n")
    code = run(["lp-optimal", str(inst)])
    assert code == cli.EXIT_CAP


def test_lp_optimal_solver_failure_exit_code(tmp_path, monkeypatch):
    def broken(problem, max_pivots=10 ** 6):
        raise SolverFailure("dual certificate failed")

    monkeypatch.setattr(simplex, "solve", broken)
    inst = tmp_path / "i.txt"
    inst.write_text(MIXED_INSTANCE)
    assert run(["lp-optimal", str(inst)]) == cli.EXIT_SOLVER


def test_simulate_dlp_failure_exit_code(tmp_path, monkeypatch, capsys):
    def broken(inst, max_pivots=10 ** 6):
        raise SolverFailure("DLP status: infeasible")

    monkeypatch.setattr(fulfillment, "solve_dlp", broken)
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2}}))
    assert run(["simulate", "--config", str(cfg)]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == "simulate: DLP status: infeasible\n"


def test_unlisted_error_keeps_its_traceback(tmp_path, monkeypatch):
    # a bare ValueError is a bug, not a usage error: main does not map it
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(rounding, "mc_estimate", broken)
    inst = tmp_path / "i.txt"
    inst.write_text(MIXED_INSTANCE)
    with pytest.raises(ValueError, match="not an input error"):
        cli.main(["round", str(inst), "--samples", "10", "--out", str(tmp_path / "x")])


def test_cover_command(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("3 3\n1.0 2 1 2\n1.0 2 1 3\n1.0 2 2 3\n")
    y = tmp_path / "y.txt"
    y.write_text("0.5 0.5 0.5\n")
    out = tmp_path / "cover.csv"
    code = run(["cover", str(sc), str(y), "--scheme", "dilate",
                "--samples", "5000", "--seed", "2", "--out", str(out)])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "feasible: 5000/5000" in text
    assert out.read_text().splitlines()[0] == "fc,y,usage_empirical,bound,scheme"


# SHA-256 of the `cover` usage CSV per scheme (the instance above, 5000
# samples, seed 2); the CSV is a file format, so a change in its draws or
# rows must show here
COVER_CSV_SHA256 = {
    "independent": "7255bf27027fbf9988fdcfbd9d2ee729dadc2fe905a9987df63fb8758e1b1cff",
    "dilate": "0dd76d93795c982063c14a90eecad228de1991e3e09c58e9161fd9cc060fa535",
    "force_open": "ca92e88dd6011f06bfe16fa075a606c777c34dd52d95aeba1cd5cfe8cfa9510c",
}


@pytest.mark.parametrize("scheme", sorted(COVER_CSV_SHA256))
def test_cover_output_is_pinned(tmp_path, scheme):
    sc = tmp_path / "sc.txt"
    sc.write_text("3 3\n1.0 2 1 2\n1.0 2 1 3\n1.0 2 2 3\n")
    y = tmp_path / "y.txt"
    y.write_text("0.5 0.5 0.5\n")
    out = tmp_path / "cover.csv"
    assert run(["cover", str(sc), str(y), "--scheme", scheme,
                "--samples", "5000", "--seed", "2", "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COVER_CSV_SHA256[scheme]


# SHA-256 of the `round` marginals and usage CSVs (20000 samples, seed 7)
# on the sparse (d = 2 < K = 4, an all-zero column) and dense (d = K = 3)
# instances of the CI console-script step, per scheme
ROUND_INSTANCES = {
    "sparse": "3 4\n0.5 0 0.5 0\n0.2 0 0.3 0.5\n1 0 0 0\n",
    "dense": "3 3\n0.2 0.3 0.5\n0.6 0.1 0.3\n0.25 0.25 0.5\n",
}
ROUND_CSV_SHA256 = {
    ("sparse", "independent"): ("badc24e8da93474b489c7fb78fdd59ee8f3c6e0cc97a2d5f3d2684649eccd698",
                                "0fb413eb8fbd62fa427ee25abbaf60f87f1e9ad34334100ffec8cdfc00868eee"),
    ("sparse", "dilate"): ("1744a4f79a539f959b1a6e03b87976c9fc0797d837167e1bda172c7a27796aec",
                           "3e10caebc3b775a6d1a57eba3d5eb94591deb78952b41a007cb933d59c4c0e3c"),
    ("sparse", "force_open"): ("0e95fe50bde08c5daf28db4dec9d1c00ad77baf864b0d9e9448325facd2774cc",
                               "0dbefd8b1fede1b4fdb1944bb5984d3ea2fc6d67fc2360ec6ce74422fab5ec60"),
    ("dense", "independent"): ("a4342b7781783575cda8d5aa6cab7457259007eb7c2077519a7b5bfb123c38d0",
                               "9cc4fd245edcc05bfcda9bb9ea22366ca007d4aea41586040f7203275964806e"),
    ("dense", "dilate"): ("2d4729a99b1a6458a9439c162562b74ebc6c251ec7470f6a4acb49041fb8617e",
                          "80cc509dda087e629600df2b7dc7de3f28af7d9ad62968c0f8f96a9a57cfe0ba"),
    ("dense", "force_open"): ("3ebac22d5f6932b4b6057d9020bda55b5617f7bf45df48be736e0d830194d525",
                              "d6e8d4342195a5b071426788851d5e9ffa6727d1f5a0645ccdca64c20a6820c9"),
}


@pytest.mark.parametrize("instance,scheme", sorted(ROUND_CSV_SHA256))
def test_round_output_is_pinned(tmp_path, instance, scheme):
    inst = tmp_path / "inst.txt"
    inst.write_text(ROUND_INSTANCES[instance])
    stem = tmp_path / "mc"
    assert run(["round", str(inst), "--scheme", scheme, "--samples", "20000",
                "--seed", "7", "--out", str(stem)]) == cli.EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f"mc.{kind}.csv").read_bytes()).hexdigest()
                for kind in ("marginals", "usage"))
    assert got == ROUND_CSV_SHA256[instance, scheme]


def test_cover_bad_instance_is_a_usage_error(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("3 1\n1.0 3 1 2 3\n1.0 1 1\n")
    y = tmp_path / "y.txt"
    y.write_text("1.0\n")
    assert run(["cover", str(sc), str(y), "--samples", "10"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"cover: {sc}: line 3: the header gives 1 sets, found another: '1.0 1 1'\n")


@pytest.mark.parametrize("weights,message", [
    ("0.5 0.5\n0.5 x\n", "{}: line 2: non-numeric weight in '0.5 x'"),
    ("nan 0.5 0.5\n", "fractional weights must lie in [0, 1]"),
])
def test_cover_bad_weights_are_usage_errors(tmp_path, capsys, weights, message):
    sc = tmp_path / "sc.txt"
    sc.write_text("3 3\n1.0 2 1 2\n1.0 2 1 3\n1.0 2 2 3\n")
    y = tmp_path / "y.txt"
    y.write_text(weights)
    assert run(["cover", str(sc), str(y), "--samples", "10"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"cover: {message.format(y)}\n"


def test_cover_names_an_under_covered_element_from_one(tmp_path, capsys):
    # only set 2, of weight 0.5, covers the file's element 2
    sc = tmp_path / "sc.txt"
    sc.write_text("2 2\n1.0 1 1\n1.0 1 2\n")
    y = tmp_path / "y.txt"
    y.write_text("1.0 0.5\n")
    assert run(["cover", str(sc), str(y), "--samples", "10"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "cover: element 2 reaches only 0.500000000000 of covering mass\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_a_usage_error(tmp_path, capsys, samples):
    inst = tmp_path / "i.txt"
    inst.write_text(DET_INSTANCE)
    sc = tmp_path / "sc.txt"
    sc.write_text("3 3\n1.0 2 1 2\n1.0 2 1 3\n1.0 2 2 3\n")
    y = tmp_path / "y.txt"
    y.write_text("0.5 0.5 0.5\n")
    assert run(["round", str(inst), "--samples", samples, "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE
    assert run(["cover", str(sc), str(y), "--samples", samples]) == cli.EXIT_USAGE
    assert "--samples: must be >= 1" in capsys.readouterr().err


def test_gen_instance_deterministic(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "n": 8, "n_max": 2, "n_per": 2, "p_carry": 0.75, "z_safety": 0.5,
        "T": 400, "J": 4, "K": 3, "seed": 11,
    }))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen-instance", "--config", str(cfg), "--out", str(a)]) == cli.EXIT_OK
    assert run(["gen-instance", "--config", str(cfg), "--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # stdout gets the same text as --out
    capsys.readouterr()
    assert run(["gen-instance", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().out == a.read_text()
    doc = json.loads(a.read_text())
    assert doc["n"] == 8 and doc["K"] == 3 and len(doc["inventory"]) == 3


def test_gen_instance_bad_config(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 2, "n_max": 5, "J": 2, "K": 2, "T": 10}))
    assert run(["gen-instance", "--config", str(cfg)]) == cli.EXIT_USAGE


@pytest.mark.parametrize("override", [
    {"T": 2.5},
    {"z_safety": math.nan},
    {"z_safety": math.inf},
    {"seed": 1.5},
    {"J": 2.0},
    {"bogus": 1},
])
def test_gen_instance_bad_config_values(tmp_path, capsys, override):
    cfg = tmp_path / "gen.json"
    # json.dumps writes nan and inf as NaN and Infinity, which json.load reads
    cfg.write_text(json.dumps({"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2, **override}))
    out = tmp_path / "inst.json"
    assert run(["gen-instance", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("gen-instance: ") and err.count("\n") == 1
    assert repr(next(iter(override)))[1:-1] in err
    assert not out.exists()


def test_simulate_campaign_round_trip(tmp_path):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 1,
        "replications": 2,
        "policies": ["myopic", "dilate"],
        "generator": {"n": 8, "n_max": 2, "n_per": 2, "p_carry": 0.75,
                      "z_safety": 0.5, "T": 400, "J": 4, "K": 3},
        "base_seed": 99,
    }))
    rows1, agg1 = tmp_path / "r1.csv", tmp_path / "a1.csv"
    rows2, agg2 = tmp_path / "r2.csv", tmp_path / "a2.csv"
    for rows, agg in ((rows1, agg1), (rows2, agg2)):
        code = run(["simulate", "--config", str(cfg), "--out", str(rows),
                    "--agg-out", str(agg), "--stable-timing"])
        assert code == cli.EXIT_OK
    assert rows1.read_bytes() == rows2.read_bytes()
    assert agg1.read_bytes() == agg2.read_bytes()

    lines = rows1.read_text().splitlines()
    assert lines[0] == cli.ROW_HEADER
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[2] == "myopic" and first[3] == "none"
    # rows name the full seed triple: base + instance in the id, replication
    # seed in the last column
    assert first[0].startswith("b99-i00-s")
    assert first[-1].isdigit()
    agg_lines = agg1.read_text().splitlines()
    assert agg_lines[0] == "metric,myopic,dilate"
    assert agg_lines[1].startswith("mean_loss_pct,")
    assert len(agg_lines) == 7


def test_simulate_workers_and_scale_match_sequential(tmp_path):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 1,
        "replications": 2,
        "policies": ["dilate", "independent"],
        "generator": {"n": 6, "n_max": 2, "n_per": 2, "p_carry": 0.75,
                      "z_safety": 0.5, "T": 300, "J": 3, "K": 2},
        "base_seed": 41,
    }))
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(seq),
                "--scale", "2.0", "--stable-timing"]) == cli.EXIT_OK
    assert run(["simulate", "--config", str(cfg), "--out", str(par),
                "--scale", "2.0", "--stable-timing", "--workers", "2"]) == cli.EXIT_OK
    assert seq.read_bytes() == par.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"generator": {"n": 4, "n_max": 2, "n_per": 2, "T": 50, "J": 2, "K": 2}}))
    out = tmp_path / "out.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out), "--workers", workers]) == cli.EXIT_USAGE
    assert "--workers: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_var_feeds_commands(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text(MIXED_INSTANCE)
    monkeypatch.setenv("CORROUND_SEED", "424242")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["round", str(inst), "--samples", "5000", "--out", str(a)]) == cli.EXIT_OK
    assert run(["round", str(inst), "--samples", "5000", "--out", str(b)]) == cli.EXIT_OK
    assert (tmp_path / "a.marginals.csv").read_bytes() == (tmp_path / "b.marginals.csv").read_bytes()
    # explicit flag wins over the environment
    c = tmp_path / "c"
    assert run(["round", str(inst), "--samples", "5000", "--seed", "1",
                "--out", str(c)]) == cli.EXIT_OK
    assert (tmp_path / "c.marginals.csv").read_bytes() != (tmp_path / "a.marginals.csv").read_bytes()


def test_seed_env_var_not_an_integer(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text(MIXED_INSTANCE)
    monkeypatch.setenv("CORROUND_SEED", "x")
    assert run(["round", str(inst), "--samples", "10", "--out", str(tmp_path / "a")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "round: CORROUND_SEED='x' is not an integer\n"


def test_simulate_unknown_policy(tmp_path):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 1, "replications": 1, "policies": ["telepathy"],
        "generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2},
        "base_seed": 1,
    }))
    assert run(["simulate", "--config", str(cfg)]) == cli.EXIT_USAGE


def test_simulate_without_policies(tmp_path, capsys):
    # rejected before any DLP is solved, and no header-only CSV is written
    cfg, out, agg = tmp_path / "camp.json", tmp_path / "sim.csv", tmp_path / "agg.csv"
    cfg.write_text(json.dumps({
        "instances": 1, "replications": 1, "policies": [],
        "generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2},
        "base_seed": 1,
    }))
    args = ["simulate", "--config", str(cfg), "--out", str(out), "--agg-out", str(agg)]
    assert run(args) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "simulate: policies must name at least one policy\n"
    assert not out.exists() and not agg.exists()


@pytest.mark.parametrize("override,flags", [
    ({}, ["--scale", "0"]),
    ({}, ["--scale", "-2"]),
    ({}, ["--scale", "nan"]),
    ({}, ["--scale", "1e308"]),
    ({"scale": 0}, []),
    ({"scale": "x"}, []),
    ({"instances": "x"}, []),
    ({"replications": "x"}, []),
    ({"replications": None}, []),
    ({"policies": "myopic"}, []),
    ({"instances": 1.9, "replications": 1.5}, []),
    ({"instances": 1.0}, []),
    ({"replications": 2.5}, []),
    ({"instances": True}, []),
    ({"replications": False}, []),
    ({"replications": "1"}, []),
    ({"generator": 3}, []),
    ({"regions_csv": "no-such-dir/regions.csv"}, []),
    ({"regions_csv": 3}, []),
    ({"generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 2.5, "J": 2, "K": 2}}, []),
    ({"bogus": 1}, []),
    ({}, ["--policies", "myopic,myopic"]),
    ({}, ["--policies", "myopic,telepathy"]),
])
def test_simulate_bad_campaign_values(tmp_path, capsys, override, flags):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 1, "replications": 1, "policies": ["myopic"],
        "generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2},
        "base_seed": 1, **override,
    }))
    assert run(["simulate", "--config", str(cfg), *flags]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and err.count("\n") == 1
    if "policies" in override:
        assert "policies must be a list" in err
    if any(isinstance(v, (bool, float)) for v in override.values()):
        assert "must be an integer" in err


@pytest.mark.parametrize("seed", [2.5, "x", True])
def test_simulate_base_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfg = tmp_path / "camp.json"
    out = tmp_path / "sim.csv"
    cfg.write_text(json.dumps({
        "instances": 1, "replications": 1, "policies": ["myopic"],
        "generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2},
        "base_seed": seed,
    }))
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and err.count("\n") == 1
    assert f"base_seed must be an integer, got {json.dumps(seed)}" in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1, 2], "camp", 3, None])
def test_simulate_config_must_be_an_object(tmp_path, capsys, doc):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and err.count("\n") == 1


# SHA-256 of the two CSVs of one --stable-timing campaign (2 instances x 2
# replications, three policies, --scale 1.5); the CLI output is a file
# format, so any change in its rows, their order or the aggregate
# arithmetic must show here. The first pair was recorded on the DLP with
# every cell (conftest's `solve_full_dlp`), the second when the zero-stock
# cells left the DLP and HiGHS reached another optimal vertex.
SIM_ROWS_SHA256 = "8debd318b12720da67c1b1a65710afb61cc257026edc626227a4a6f2dcb733a4"
SIM_AGG_SHA256 = "d8f3c74c397c2ced8971a58d93164035058bb01ffe8ba8e9c0e0f5c90fd8f1e6"
REDUCED_SIM_ROWS_SHA256 = "d19269bf28ba7b1a46f9369b97f147d422608b102377ff9ca0f96dd7eddbbc24"
REDUCED_SIM_AGG_SHA256 = "926f33231c2942b0f681633e0f5c4fb42fde1e2926309cf9ab0f3fd790e0e548"


def _pinned_campaign(tmp_path, monkeypatch, solve):
    """The digests of the pinned campaign's two CSVs with ``solve`` as
    ``fulfillment.solve_dlp``, and the (instance, plan) of each solve."""
    solved = []

    def recorded(inst):
        solved.append((inst, solve(inst)))
        return solved[-1][1]

    monkeypatch.setattr(fulfillment, "solve_dlp", recorded)
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 2, "replications": 2, "base_seed": 7,
        "generator": {"n": 10, "n_max": 3, "n_per": 3, "J": 2, "K": 3, "T": 500, "z_safety": 0},
    }))
    rows, agg = tmp_path / "rows.csv", tmp_path / "agg.csv"
    assert run(["simulate", "--config", str(cfg), "--policies", "myopic,auto,dilate",
                "--scale", "1.5", "--stable-timing", "--out", str(rows),
                "--agg-out", str(agg)]) == cli.EXIT_OK
    return [hashlib.sha256(f.read_bytes()).hexdigest() for f in (rows, agg)], solved


def test_simulate_output_is_pinned(tmp_path, monkeypatch):
    from conftest import solve_full_dlp

    solve_dlp = fulfillment.solve_dlp
    digests, full = _pinned_campaign(tmp_path, monkeypatch, solve_full_dlp)
    assert digests == [SIM_ROWS_SHA256, SIM_AGG_SHA256]
    digests, reduced = _pinned_campaign(tmp_path, monkeypatch, solve_dlp)
    assert digests == [REDUCED_SIM_ROWS_SHA256, REDUCED_SIM_AGG_SHA256]
    # both plans of each instance are optimal on it
    assert len(full) == len(reduced) == 2
    for (inst, ref), (same, plan) in zip(full, reduced):
        assert fulfillment.instance_to_json(same) == fulfillment.instance_to_json(inst)
        ref.check(inst)
        plan.check(inst)
        assert plan.objective == pytest.approx(ref.objective, rel=1e-9)


def test_simulate_aggregates_match_the_rows(tmp_path):
    """The aggregate table equals means recomputed from the rows CSV one
    policy and one instance at a time, to the last bit; 9 replications take
    numpy's pairwise summation past its 8-term block."""
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 3, "replications": 9, "policies": ["myopic", "dilate"], "base_seed": 5,
        "generator": {"n": 4, "n_max": 2, "n_per": 1, "T": 60, "J": 2, "K": 2},
    }))
    rows, agg = tmp_path / "rows.csv", tmp_path / "agg.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(rows),
                "--agg-out", str(agg)]) == cli.EXIT_OK
    table = [ln.split(",") for ln in rows.read_text().splitlines()[1:]]
    expected = {}
    for policy in ("myopic", "dilate"):
        per_instance = [
            [float(np.mean([float(r[col]) for r in table if r[0] == inst and r[2] == policy]))
             for inst in dict.fromkeys(r[0] for r in table)]
            for col in (9, 10, 11)
        ]
        loss, fcs, wall = (np.array(v) for v in per_instance)
        expected[policy] = [loss.mean(), loss.std(ddof=1) / math.sqrt(3), fcs.mean(),
                            wall.mean(), 3.0, 9.0]
    lines = agg.read_text().splitlines()
    assert lines[0] == "metric,myopic,dilate"
    for pos, line in enumerate(lines[1:]):
        assert line.split(",")[1:] == [repr(float(expected[p][pos])) for p in ("myopic", "dilate")]


def test_bench_writes_one_row_per_scheme_and_size(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,q,K,us_per_call"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 16
    assert sorted({r[0] for r in rows}) == ["dilate", "force_open"]
    assert sorted({int(r[1]) for r in rows}) == [10 * 2 ** p for p in range(8)]
    assert all(r[2] == "16" and float(r[3]) > 0.0 for r in rows)
    assert "q=1000, K=100" in capsys.readouterr().out
