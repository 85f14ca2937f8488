"""Smoke test of the benchmark with one-second runs (about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from functools import cache

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@cache
def result_of(workload, trace, repeat=0):
    """The result line of a run; ``repeat`` tells apart runs that must not be
    cached as one."""
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def workdir():
    path = pathlib.Path(tempfile.mkdtemp(prefix=".bench-test-", dir=ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result_of(workload, 1), result_of(workload, 1, repeat=1)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]


def test_known_hang_is_one_counted_failure(workdir):
    """optimize_two(1, 1e6, 1e5, 1e5, 1e5) never returns at this commit; the
    deadline turns it into one failed operation instead of a blocked run."""
    doc = {"ops": [["two", 1.0, 1e6, 1e5, 1e5, 1e5]], "deadline": 0.05, "seconds": None,
           "pass_len": 1, "trace": False, "bench_dir": str(BENCH)}
    (workdir / "inputs.json").write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "child.py"), "run", "single-solves",
                    str(workdir)], env=run.child_env(), timeout=60, check=True)
    assert time.perf_counter() - t0 < 30
    records = run.read_result(workdir)["records"]
    assert len(records) == 1
    status, latency = records[0][:2]
    assert status == "deadline" and 0.05 <= latency < 1.0
    attempted, failed = run.summarize([([status], latency)], 0.05)[:2]
    assert (attempted, failed) == (1, 1)


def test_fails_without_the_program(workdir):
    """In a directory with only BENCHMARK.json and bench/, the run exits
    nonzero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=workdir, script=workdir / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
