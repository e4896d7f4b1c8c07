import json

import pytest

from corround import cli, simplex

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
        raise simplex.SolverNumericalError("dual certificate failed")

    monkeypatch.setattr(simplex, "solve", broken)
    inst = tmp_path / "i.txt"
    inst.write_text(MIXED_INSTANCE)
    assert run(["lp-optimal", str(inst)]) == cli.EXIT_SOLVER


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


def test_gen_instance_deterministic(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "n": 8, "n_max": 2, "n_per": 2, "p_carry": 0.75, "z_safety": 0.5,
        "T": 400, "J": 4, "K": 3, "seed": 11,
    }))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen-instance", "--config", str(cfg), "--out", str(a)]) == cli.EXIT_OK
    assert run(["gen-instance", "--config", str(cfg), "--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["n"] == 8 and doc["K"] == 3 and len(doc["inventory"]) == 3


def test_gen_instance_bad_config(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 2, "n_max": 5, "J": 2, "K": 2, "T": 10}))
    assert run(["gen-instance", "--config", str(cfg)]) == cli.EXIT_USAGE


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


def test_simulate_unknown_policy(tmp_path):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "instances": 1, "replications": 1, "policies": ["telepathy"],
        "generator": {"n": 4, "n_max": 1, "n_per": 1, "T": 50, "J": 2, "K": 2},
        "base_seed": 1,
    }))
    assert run(["simulate", "--config", str(cfg)]) == cli.EXIT_USAGE


@pytest.mark.parametrize("override,flags", [
    ({}, ["--scale", "0"]),
    ({}, ["--scale", "-2"]),
    ({}, ["--scale", "nan"]),
    ({"scale": 0}, []),
    ({"scale": "x"}, []),
    ({"instances": "x"}, []),
    ({"replications": "x"}, []),
    ({"replications": None}, []),
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
