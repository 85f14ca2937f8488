import hashlib
import json
import math
from pathlib import Path

import pytest

from bmsched import cli, experiments, numerics
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


def test_profile_overflowing_cost_is_domain_error(capsys):
    # the total would print as Infinity, which is not JSON
    status = run(
        ["profile", "--sigma2", "1e308", "--T", "3", "--v0", "1",
         "--sensors", "1", "--instants", "1"]
    )
    assert status == 3
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # (v1 - sigma2*T) ** 2 in window_v0_crit
    ["windows", "--sigma2", "1", "--T", "1", "--v1", "1e200", "--v0", "1"],
    # T**3 in lower_bound
    ["bounds", "--sigma2", "1", "--T", "1e103", "--v0", "1", "--v1", "1"],
], ids=["windows", "bounds"])
def test_overflowing_result_is_domain_error(capsys, argv):
    """A float power whose result leaves the range raises OverflowError, which
    exits 3 with one error line, not 1 with a traceback."""
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the result overflows the float range\n"


def test_exit_code_solver_failure(capsys):
    status = run(
        ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1", "--v1", "1",
         "--v2", "1", "--max-iters", "1"]
    )
    assert status == 5
    assert "did not converge" in capsys.readouterr().err


def test_huge_sigma2_solves_by_the_root_and_by_the_descent(capsys):
    # in units of sigma2*T the variances are about 1e-308: the regime-3 root
    # gives t/T = (1/3, 2/3), and so does the descent, which runs in the same
    # units (in time units it stopped at (0, 0), and its cross-check exited 5)
    argv = ["optimize2", "--sigma2", "1e308", "--T", "1", "--v0", "1", "--v1", "1",
            "--v2", "1"]
    for extra in ([], ["--trace"]):
        status, out = run_cli(capsys, *argv, *extra)
        assert status == 0
        doc = json.loads(out)
        assert doc["regime"] == "3"
        assert doc["t1_opt"] == pytest.approx(1.0 / 3.0, rel=1e-8)
        assert doc["t2_opt"] == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert doc["trace"]["converged"] is True


def test_underflowing_time_and_variance_scale_solves(capsys):
    # sigma2*T = 1e-400 underflows to 0; the regime-3 root used to divide by
    # it and exit 1 with a ZeroDivisionError traceback
    status, out = run_cli(capsys, "optimize2", "--sigma2", "1e-200", "--T", "1e-200",
                          "--v0", "0", "--v1", "0", "--v2", "0")
    assert status == 0
    doc = json.loads(out)
    assert doc["regime"] == "3"
    assert doc["t1_opt"] == pytest.approx(1e-200 / 3.0, rel=1e-9)
    assert doc["t2_opt"] == pytest.approx(2e-200 / 3.0, rel=1e-9)


def test_solver_budget_exhaustion_is_solver_failure(capsys, monkeypatch):
    # the regime-3 root of optimize_two, out of evaluations, raises a
    # RuntimeError subclass, which the CLI reports like any solver failure
    monkeypatch.setattr(numerics, "ROOT_MAX_EVALUATIONS", 1)
    status = run(
        ["optimize2", "--sigma2", "1", "--T", "71/18", "--v0", "1", "--v1", "1",
         "--v2", "1"]
    )
    assert status == 5
    assert "bracketed_root did not reach" in capsys.readouterr().err


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


def test_oracle_check_rejects_an_overflowing_lattice(capsys, monkeypatch):
    """A trial whose lattice cost overflows is a domain error (exit 3), not a
    NaN discrepancy.  oracle-check draws sigma2 in [0.5, 2], so the draws are
    replaced: sigma2 = 1e308 and every other parameter at the top of its range."""

    class Draws:
        def __init__(self, seed):
            self.first = True

        def uniform(self, lo, hi):
            value = 1e308 if self.first else hi
            self.first = False
            return value

    monkeypatch.setattr(cli.np.random, "default_rng", Draws)
    for kind in ("one", "two"):
        assert run(["oracle-check", "--kind", kind, "--trials", "1"]) == 3, kind
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lattice cost overflows" in captured.err


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


# rows of each committed sweep spec, at the sizes it records: the two gain
# maps are 101 x 101 grids (the two-measure one in three v0 panels)
SPEC_ROWS = {
    "gain1": 101 * 101,
    "gain2": 3 * 101 * 101,
    "instants_vs_T": 200,
    "bounds1": 200,
    "descent_stats": 100,
    "windows": 20,
}


def test_committed_sweep_specs_run(tmp_path, capsys):
    """Every spec under specs/ runs as its README command does, one CSV row
    per cell or run, and there is one spec per sweep kind."""
    specs = sorted((Path(__file__).parents[1] / "specs").glob("*.json"))
    assert sorted(path.stem for path in specs) == sorted(SPEC_ROWS)
    assert sorted(SPEC_ROWS) == sorted(experiments.SWEEP_KINDS)
    for path in specs:
        out_path = tmp_path / f"{path.stem}.csv"
        status, out = run_cli(capsys, "sweep", "--spec", str(path), "--format", "csv",
                              "--output", str(out_path))
        assert (status, out) == (0, ""), path.name
        assert json.loads(path.read_text())["kind"] == path.stem
        assert len(out_path.read_text().splitlines()) == 1 + SPEC_ROWS[path.stem], path.name


def test_sweep_bad_spec(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"fixed": {}}))
    assert run(["sweep", "--spec", str(p)]) == 3
    capsys.readouterr()
    assert run(["sweep", "--spec", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("spec, key", [
    ({"kind": "gain2", "fixed": {"T": None}}, "fixed.T"),
    ({"kind": "gain2", "swept": [1, 2]}, "swept"),
    ({"kind": "gain2", "swept": {"v1": [0, 5, None]}}, "swept.v1"),
    ({"kind": "gain2", "swept": {"v1": [0, 5]}}, "swept.v1"),
    ({"kind": "gain2", "seed": "one"}, "seed"),
], ids=["fixed-null", "swept-list", "count-null", "swept-pair", "seed-text"])
def test_sweep_malformed_spec_is_domain_error(tmp_path, capsys, spec, key):
    """A spec entry of the wrong type or shape exits 3 with one error line
    naming the spec and the entry."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    assert run(["sweep", "--spec", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: sweep spec {p}: bad {key!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["optimize1", "--sigma2", "1", "--T", "1", "--v0", "1", "--v1", "1"],
    ["optimize2", "--sigma2", "1", "--T", "1", "--v0", "1", "--v1", "1", "--v2", "1"],
    ["profile", "--sigma2", "1", "--T", "1", "--v0", "1", "--sensors", "1",
     "--instants", "0.5"],
    ["bounds", "--sigma2", "1", "--T", "1", "--v0", "1", "--v1", "1"],
    ["windows", "--sigma2", "1", "--T", "1", "--v1", "1", "--v0", "1"],
    ["oracle-check", "--kind", "one", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_format_is_a_sweep_option_only(tmp_path, capsys, argv):
    """Only sweep writes CSV, so only sweep takes --format; every command
    still takes --output."""
    assert run(argv + ["--format", "json"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    path = tmp_path / "doc.json"
    assert run(argv + ["--output", str(path)]) == 0
    assert isinstance(json.loads(path.read_text()), dict)


def test_render_csv_deterministic():
    text = render_csv(("a", "b"), [(1.0, 0.5), (2.0, 1.0 / 3.0)])
    assert text == "a,b\n1.0,0.5\n2.0,0.333333333333\n"


@pytest.mark.parametrize(
    "x, text",
    [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1e15 - 1.0, "999999999999999.0"),
        (1e15, "1e+15"),
        (-1e15, "-1e+15"),
        (2.0**53, "9.00719925474e+15"),
        (1e-300, "1e-300"),
        (math.nan, "NaN"),
        (math.inf, "Infinity"),
        (-math.inf, "-Infinity"),
        (123456789012345.0, "123456789012345.0"),
        (1.0 / 3.0, "0.333333333333"),
    ],
)
def test_number_format(x, text):
    # integral values below 1e15 keep one decimal, everything else has 12
    # significant digits, and NaN and the infinities are spelled out
    assert cli._fmt(x) == text
    assert render_csv(("x",), [(x,)]) == f"x\n{text}\n"


def _count_floats(doc) -> int:
    if isinstance(doc, dict):
        return sum(_count_floats(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(_count_floats(v) for v in doc)
    return isinstance(doc, float)


def test_render_json_formats_each_number_once(capsys, monkeypatch):
    """Lists too long for one line are laid out over several without
    rendering their children a second time, at any depth."""
    calls = []
    fmt = cli._fmt

    def counting(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", counting)
    doc = {"rows": [[k + 0.125] * 12 for k in range(4)], "pair": [0.5, 2.0]}
    text = cli.render_json(doc)
    assert json.loads(text) == json.loads(json.dumps(doc))
    assert len(calls) == 50

    calls.clear()
    status, out = run_cli(capsys, "optimize2", "--sigma2", "1", "--T", "2", "--v0", "1",
                          "--v1", "1", "--v2", "1", "--trace")
    assert status == 0
    assert len(calls) == _count_floats(json.loads(out))


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
README_SWEEP_CSV_SHA256 = "14725e6a87076cdbc36d258a38b3c94f4f3313a8048b142f162a4cde41d249f1"


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


def test_readme_library_example_prints_its_comments(capsys):
    """The README's library example prints what its comments say: each
    printed value matches the comment's value to the digits shown (the text
    before a colon in the comment)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].split(":")[0].split()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for out, expected in zip(printed, comments):
        values = out.split()
        assert len(values) == len(expected), (out, expected)
        for value, shown in zip(values, expected):
            if shown.replace(".", "", 1).isdigit():
                digits = len(shown.split(".")[1]) if "." in shown else 0
                assert round(float(value), digits) == float(shown), (out, expected)
            else:
                assert value == shown, (out, expected)
