import hashlib
import json
import math
from pathlib import Path

import pytest

from bmsched import cli, numerics
from bmsched.cli import parse_real, render_csv, run


def run_cli(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_parse_real_fractions():
    assert parse_real("71/18") == pytest.approx(71.0 / 18.0, rel=1e-16)
    assert parse_real("1.5e-3") == 1.5e-3
    with pytest.raises(Exception):
        parse_real("abc")


def test_optimize2_worked_example(capsys):
    status, out = run_cli(
        capsys,
        "optimize2", "--sigma2", "1", "--T", "71/18",
        "--v0", "1", "--v1", "1", "--v2", "1",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["regime"] == "3"
    assert doc["t1_opt"] == pytest.approx(1.0401, abs=1e-3)
    assert doc["t2_opt"] == pytest.approx(2.4092, abs=1e-3)
    assert doc["T2_crit"] == pytest.approx(0.3, abs=1e-10)
    assert doc["T1_crit"] == pytest.approx(7.0 / 6.0, abs=1e-10)
    assert "trace" not in doc


def test_optimize2_trace(capsys):
    status, out = run_cli(
        capsys,
        "optimize2", "--sigma2", "1", "--T", "2", "--v0", "1", "--v1", "1",
        "--v2", "1", "--trace",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["trace"]["converged"] is True
    assert abs(doc["trace"]["final_gap"]) < 1e-6
    assert len(doc["trace"]["iterations"]) >= 2


def test_optimize1_boundary(capsys):
    status, out = run_cli(
        capsys,
        "optimize1", "--sigma2", "1", "--T", "1",
        "--v0", "1.4142135623730951", "--v1", "1",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["t1_opt"] == 0.0
    assert doc["regime"] == "1"
    assert doc["on_boundary"] is True
    assert doc["T_crit"] == pytest.approx(1.0, rel=1e-12)


def test_numbers_have_12_significant_digits(capsys):
    _, out = run_cli(
        capsys,
        "optimize2", "--sigma2", "1", "--T", "71/18",
        "--v0", "1", "--v1", "1", "--v2", "1",
    )
    line = next(l for l in out.splitlines() if '"t1_opt"' in l)
    digits = line.split(":")[1].strip().rstrip(",")
    assert digits == "1.04016162076"


def test_byte_identical_reruns(capsys):
    argv = ["oracle-check", "--kind", "one", "--trials", "3", "--seed", "7",
            "--step", "1e-4"]
    status1, out1 = run_cli(capsys, *argv)
    status2, out2 = run_cli(capsys, *argv)
    assert (status1, out1) == (status2, out2)


def test_profile_document(capsys):
    status, out = run_cli(
        capsys,
        "profile", "--sigma2", "1", "--T", "1", "--v0", "0.5",
        "--sensors", "1,1,1", "--instants", "0.127483,0.369409,0.611335",
    )
    assert status == 0
    doc = json.loads(out)
    assert len(doc["segments"]) == 4
    assert len(doc["post_measure_variances"]) == 3
    assert doc["cost"]["total"] == pytest.approx(
        doc["cost"]["triangular"] + doc["cost"]["rectangular"], rel=1e-12
    )


def test_bounds_document(capsys):
    status, out = run_cli(
        capsys, "bounds", "--sigma2", "1", "--T", "1", "--v0", "1", "--v1", "1"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert doc["upper_bound"] == 1.5
    assert doc["lower_bound"] < doc["cost_at_opt"] <= doc["upper_bound"]


def test_windows_document(capsys):
    status, out = run_cli(
        capsys,
        "windows", "--sigma2", "1", "--T", "7/6", "--v1", "1", "--v0", "0.5",
        "--max-windows", "10",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["settled_at"] == 3
    assert doc["v0_sequence"][1] == pytest.approx(7.0 / 6.0, abs=1e-9)
    assert doc["v0_stationary"] == pytest.approx(1.8109, abs=1e-4)


def test_exit_code_usage_errors(capsys):
    assert run(["optimize1", "--sigma2", "1"]) == 2  # missing required flags
    capsys.readouterr()
    assert run(["optimize1", "--sigma2", "1", "--T", "x", "--v0", "1", "--v1", "1"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_code_domain_error(capsys):
    status = run(
        ["optimize1", "--sigma2", "-1", "--T", "1", "--v0", "1", "--v1", "1"]
    )
    assert status == 3
    err = capsys.readouterr().err
    assert "sigma2" in err


def test_profile_length_mismatch_is_domain_error(capsys):
    status = run(
        ["profile", "--sigma2", "1", "--T", "1", "--v0", "0.5",
         "--sensors", "1,1", "--instants", "0.5"]
    )
    assert status == 3
    assert "sensors" in capsys.readouterr().err


def test_exit_code_solver_failure(capsys):
    status = run(
        ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1", "--v1", "1",
         "--v2", "1", "--max-iters", "1"]
    )
    assert status == 5
    assert "did not converge" in capsys.readouterr().err


def test_solver_budget_exhaustion_is_solver_failure(capsys, monkeypatch):
    # the regime-3 root of optimize_two, out of evaluations, raises a
    # RuntimeError subclass, which the CLI reports like any solver failure
    monkeypatch.setattr(numerics, "BRENT_MAX_EVALUATIONS", 1)
    status = run(
        ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1", "--v1", "1",
         "--v2", "1"]
    )
    assert status == 5
    assert "brent_root did not reach" in capsys.readouterr().err


OPTIMIZE2 = ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1", "--v1", "1",
             "--v2", "1"]
CONSECUTIVE_CALLS = [
    # a flag given once must not stick to the parser
    (OPTIMIZE2 + ["--trace"], OPTIMIZE2),
    (OPTIMIZE2 + ["--tol", "1e-9"], OPTIMIZE2),
    (["optimize2", "--sigma2", "1"], OPTIMIZE2),  # usage error, then a valid call
]


def _outcome(capsys, argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("first, second", CONSECUTIVE_CALLS)
def test_consecutive_runs_match_fresh_runs(capsys, monkeypatch, first, second):
    fresh = []
    for argv in (first, second):
        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        fresh.append(_outcome(capsys, argv))
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    reused = [_outcome(capsys, argv) for argv in (first, second)]
    assert reused == fresh
    assert reused[1][0] == 0 and "trace" not in json.loads(reused[1][1])


def test_parser_is_built_once(capsys, monkeypatch):
    builds = 0
    build = cli._build_parser

    def counting():
        nonlocal builds
        builds += 1
        return build()

    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    monkeypatch.setattr(cli, "_build_parser", counting)
    for pair in CONSECUTIVE_CALLS:
        for argv in pair:
            _outcome(capsys, argv)
    assert builds == 1


def test_oracle_check_pass_and_fail(capsys):
    status, out = run_cli(
        capsys,
        "oracle-check", "--kind", "one", "--trials", "5", "--seed", "3",
        "--step", "1e-4",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_discrepancy"] < 1e-3

    status, out = run_cli(
        capsys,
        "oracle-check", "--kind", "one", "--trials", "5", "--seed", "3",
        "--step", "1e-4", "--tol", "1e-15",
    )
    assert status == 4
    assert json.loads(out)["ok"] is False


def test_oracle_check_two(capsys):
    status, out = run_cli(
        capsys,
        "oracle-check", "--kind", "two", "--step", "0.002", "--trials", "20",
        "--seed", "7",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["max_discrepancy"] < 4e-3


def test_nonpositive_tolerance_is_usage_error(capsys):
    status = run(
        ["optimize2", "--sigma2", "1", "--T", "2", "--v0", "1", "--v1", "1",
         "--v2", "1", "--tol", "0"]
    )
    assert status == 2
    capsys.readouterr()


def test_sweep_json_and_csv(tmp_path, capsys):
    spec = {
        "kind": "gain1",
        "fixed": {"sigma2": 1.0, "T": 1.0},
        "swept": {"v0": [0.0, 5.0, 3], "v1": [0.0, 5.0, 3]},
        "seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    status, out = run_cli(capsys, "sweep", "--spec", str(spec_path))
    assert status == 0
    doc = json.loads(out)
    assert doc["columns"] == ["v0", "v1", "cost_regular", "cost_optimal", "gain"]
    assert len(doc["rows"]) == 9

    out_path = tmp_path / "rows.csv"
    status, _ = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--format", "csv",
        "--output", str(out_path),
    )
    assert status == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "v0,v1,cost_regular,cost_optimal,gain"
    assert len(lines) == 10
    assert all("." in cell or cell for cell in lines[1].split(","))


def test_sweep_bad_spec(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"fixed": {}}))
    assert run(["sweep", "--spec", str(p)]) == 3
    capsys.readouterr()
    assert run(["sweep", "--spec", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_render_csv_deterministic():
    text = render_csv(("a", "b"), [(1.0, 0.5), (2.0, 1.0 / 3.0)])
    assert text == "a,b\n1.0,0.5\n2.0,0.333333333333\n"


README_EXAMPLES = {
    "optimize2": ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1",
                  "--v1", "1", "--v2", "1"],
    "optimize1": ["optimize1", "--sigma2", "1", "--T", "1", "--v0",
                  "1.4142135623730951", "--v1", "1"],
    "profile": ["profile", "--sigma2", "1", "--T", "1", "--v0", "0.5",
                "--sensors", "1,1,1", "--instants", "0.128,0.369,0.611"],
    "bounds": ["bounds", "--sigma2", "1", "--T", "1", "--v0", "1", "--v1", "1"],
    "windows": ["windows", "--sigma2", "1", "--T", "7/6", "--v1", "1", "--v0",
                "0.5", "--max-windows", "60"],
    "oracle_two": ["oracle-check", "--kind", "two", "--step", "0.002",
                   "--trials", "20", "--seed", "7"],
}
README_SWEEP_SPEC = {
    "kind": "gain1",
    "fixed": {"sigma2": 1.0, "T": 1.0},
    "swept": {"v0": [0.0, 5.0, 101], "v1": [0.0, 5.0, 101]},
    "seed": 0,
}
README_SWEEP_CSV_SHA256 = "02394d69b4a4111025f18ebb1edaa350b5aa83da209ef9642268d625ed85889a"


def test_readme_examples_are_byte_identical(tmp_path, capsys):
    """The README's CLI examples print exactly the documents recorded in
    tests/readme_examples/ (the sweep's CSV is compared by its sha256)."""
    expected_dir = Path(__file__).parent / "readme_examples"
    for name, argv in README_EXAMPLES.items():
        status, out = run_cli(capsys, *argv)
        assert status == 0, name
        assert out == (expected_dir / f"{name}.json").read_text(), name

    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(README_SWEEP_SPEC))
    csv_path = tmp_path / "rows.csv"
    status, out = run_cli(capsys, "sweep", "--spec", str(spec_path),
                          "--format", "csv", "--output", str(csv_path))
    assert (status, out) == (0, "")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == README_SWEEP_CSV_SHA256
