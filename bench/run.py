#!/usr/bin/env python3
"""bmsched benchmark: one command, three workloads, end-to-end or traced.

    python3 bench/run.py --workload single-solves --seed 1 --seconds 30 --trace 0

Builds nothing: the children import bmsched from ``src/`` of the checkout this
file sits in, and the run fails (exit 2, no result) when that is missing.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; the lines
before it report the details (environment, sizes, failures, tail percentile,
tracing overhead).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

STARTED = time.perf_counter()
BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("paper-sweeps", "single-solves", "oracle-verify")
SETUP_LAUNCHES = 21  # half before the timed phase, half after
IMPORTTIME_LAUNCHES = 3
IMPORT_MODULES = ("numpy", "bmsched", "bmsched.cli", "bmsched.experiments",
                  "bmsched.two_measure", "bmsched.one_measure", "bmsched.numerics",
                  "bmsched.kalman")
TIME_LIMIT_S = 170.0  # a run ends, with or without a result, within this
# per-operation deadlines, a safety net far above the slowest completing
# operation (single solves: about 20 ms, traced or not; oracle trials: about
# 0.3 s), so that a hang is one counted failure instead of a blocked run
DEADLINES = {"paper-sweeps": 60.0, "single-solves": 1.0, "oracle-verify": 30.0}
# the traced single-solves run's scale probe: one pass at 10^U(-8, 8).  Its
# hangs never return; its slowest call that returns, with an answer or an
# error, takes about 0.09 s.
PROBE_DEADLINE_S = 0.5
PROBE_METRICS = ("scale_probe.hangs", "scale_probe.errors", "scale_probe.wrong")
# operations of the traced run: a fixed prefix of the seeded stream, so that
# its counts do not depend on the machine
TRACE_OPS = {"paper-sweeps": 8, "single-solves": 3 * inputs.POOL_SIZE,
             "oracle-verify": 2 * inputs.ORACLE_PER_PASS}
# layers every workload enters, with a span each: calls, total_s and self_s
TIMED_LAYERS = (
    "two_measure.optimize_two", "two_measure.optimize_two.r3", "two_measure.cost_pair",
    "two_measure.classify_regime", "two_measure.critical_spacing", "two_measure.optimal_gap",
    "two_measure.equilibrium_gap", "numerics.golden_section_min", "numerics.bisect_root",
    "one_measure.optimal_instant_1", "one_measure.cost_single",
)
# layers only some workloads enter: calls only in the metrics (a time that is
# 0 on every run would be no measurement); their times go to the report
COUNTED_LAYERS = (
    "two_measure.optimize_two.r1", "two_measure.optimize_two.r2",
    "numerics.grid_oracle_1", "numerics.grid_oracle_2", "kalman.cost",
    "kalman.variance_profile", "experiments.run_sweep", "cli.run", "cli.render_csv",
    "cli.render_json",
)
PER_R3_SOLVE = ("two_measure.cost_pair", "numerics.golden_section_min", "numerics.bisect_root")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               # glibc's malloc thresholds fixed at the values its adaptive
               # rule reaches after the first large free; left adaptive, they
               # made the peak RSS depend on the order of the trials
               MALLOC_MMAP_THRESHOLD_="33554432", MALLOC_TRIM_THRESHOLD_="67108864")
    return env


def launch(args: list[str], timeout: float, flags: tuple[str, ...] = ()):
    """Run the child to completion; returns (start time, completed process)."""
    t0 = time.perf_counter()
    timeout = min(timeout, TIME_LIMIT_S - (t0 - STARTED))
    if timeout <= 0:
        raise BenchError(f"out of time before child {args[:2]}")
    try:
        proc = subprocess.run([sys.executable, *flags, str(CHILD), *args], env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return t0, proc


def load_reference() -> dict:
    if not (ROOT / "src" / "bmsched" / "__init__.py").is_file():
        raise BenchError(f"no bmsched sources under {ROOT / 'src'}")
    with gzip.open(BENCH / "reference.json.gz", "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["pools_sha256"] != inputs.pools_fingerprint():
        raise BenchError("input pools differ from the ones the reference was recorded for")
    return ref


# ---------------------------------------------------------------- inputs


def single_ops(seed: int, ref: dict, passes: int, decades: float = inputs.SCALE_DECADES):
    pools = inputs.single_pools()
    meta = inputs.single_stream(seed, ref["two_regimes"], passes, decades)
    ops = [[kind] + inputs.single_args(kind, pools[kind][idx], 10.0 ** la, 10.0 ** lb)
           for kind, idx, la, lb in meta]
    return ops, meta


def build_ops(workload: str, seed: int, ref: dict, workdir: pathlib.Path):
    """(ops handed to the child, per-op metadata for the checks, pass length)."""
    if workload == "single-solves":
        ops, meta = single_ops(seed, ref, passes=40)
        return ops, meta, 3 * inputs.POOL_SIZE
    if workload == "oracle-verify":
        pools = inputs.oracle_pools()
        meta = inputs.oracle_stream(seed, pools, passes=64)
        ops = [[kind] + pools[kind][idx] + [inputs.ORACLE_STEP[kind]] for kind, idx in meta]
        return ops, meta, 2 * inputs.ORACLE_PER_PASS
    (workdir / "specs").mkdir()
    (workdir / "out").mkdir()
    for stem, spec in inputs.sweep_specs().items():
        (workdir / "specs" / f"{stem}.json").write_text(json.dumps(spec), encoding="utf-8")
    meta = inputs.sweep_stream(seed, suites=400)
    return [list(suite) for suite in meta], meta, 2


def run_child(workload, workdir, ops, deadline, seconds, pass_len, trace):
    doc = {"ops": ops, "deadline": deadline, "seconds": seconds, "pass_len": pass_len,
           "trace": trace, "bench_dir": str(BENCH)}
    (workdir / "inputs.json").write_text(json.dumps(doc), encoding="utf-8")
    launch(["run", workload, str(workdir)], timeout=TIME_LIMIT_S)
    return read_result(workdir)


def read_result(workdir) -> dict:
    """The child's result, with the outcome of every operation in
    ``records``; removes the files it read."""
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    result["records"] = []
    with open(workdir / "records.jsonl", encoding="utf-8") as fh:
        for line in fh:
            result["records"] += json.loads(line)
    (workdir / "result.json").unlink()
    (workdir / "records.jsonl").unlink()
    return result


# ---------------------------------------------------------------- checks


def verify(workload, ops, meta, result, ref, workdir):
    """(failure labels, latency) per executed operation: one label per
    call or trial, one per expected row for a sweep suite; None passed."""
    out = []
    for k, rec in enumerate(result["records"]):
        j = k % len(ops)
        if workload == "single-solves":
            out.append(([checks.check_single(meta[j], ops[j][1:], rec, ref["single"])], rec[1]))
        elif workload == "oracle-verify":
            out.append(([checks.check_oracle(meta[j], ops[j], rec, ref["oracle"])], rec[1]))
        else:
            codes = rec[2:] if rec[0] == "ok" else [None] * len(ops[j])
            labels = []
            for stem, code in zip(ops[j], codes):
                if code is None:
                    labels += [rec[0]] * inputs.sweep_cells(stem)
                    continue
                fmt = "json" if stem.startswith("descent") else "csv"
                labels += checks.check_sweep(stem, str(workdir / "out" / f"{k}_{stem}.{fmt}"),
                                             code, ref)
            out.append((labels, rec[1]))
    return out


def summarize(verdicts, deadline):
    """Counts, failure kinds and the latency of every operation; a failed
    operation's latency is at least the deadline.  A run is correct only
    when no operation failed."""
    attempted = failed = 0
    kinds: dict[str, int] = {}
    latencies, passed = [], []
    for labels, lat in verdicts:
        bad = [lab for lab in labels if lab is not None]
        attempted += len(labels)
        failed += len(bad)
        for lab in bad:
            kinds[lab] = kinds.get(lab, 0) + 1
        latencies.append(max(lat, deadline) if bad else lat)
        passed.append(len(labels) - len(bad))
    return attempted, failed, kinds, latencies, passed


def pass_rates(marks, pass_len, passed):
    """Passed operations per second of each pass: a noise diagnostic."""
    return [sum(passed[i * pass_len:(i + 1) * pass_len]) / (marks[i + 1] - marks[i])
            for i in range(len(marks) - 1)]


def tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, n, samples beyond): the highest percentile with at
    least ten samples, and at least 1% of them, beyond it, or the maximum
    when there are fewer than eleven.  The 1% floor keeps the tail of a run
    of 10^5 single solves at p99: at p99.99 it followed the host's stalls
    more than the program."""
    xs = sorted(latencies)
    n = len(xs)
    r = max(0, n - 1 - max(10, n // 100))
    return xs[r], 100.0 * (r + 1) / n, n, n - 1 - r


# ---------------------------------------------------------------- environment


def environment(result: dict, ref: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": result["python"], "numpy": result["numpy"], "nproc": os.cpu_count(),
            "cpu": cpu, "reference_commit": ref["meta"]["commit"]}


def emit(correct, attempted, failed, metrics: dict, report: dict) -> None:
    print("# " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ---------------------------------------------------------------- modes


def measure(workload, seed, seconds, ref, workdir):
    ops, meta, pass_len = build_ops(workload, seed, ref, workdir)
    deadline = DEADLINES[workload]
    launch(["ready", workload], timeout=120)  # compiles bytecode; not timed
    setup = setup_times(workload, SETUP_LAUNCHES // 2)
    result = run_child(workload, workdir, ops, deadline, seconds, pass_len, trace=False)
    setup += setup_times(workload, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    verdicts = verify(workload, ops, meta, result, ref, workdir)
    attempted, failed, kinds, lats, passed = summarize(verdicts, deadline)
    rate = sum(passed) / result["wall_s"]
    lat_tail, pct, n, beyond = tail(lats)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "lat_p50_ms": {"value": 1e3 * statistics.median(lats), "unit": "ms"},
        "lat_tail_ms": {"value": 1e3 * lat_tail, "unit": "ms"},
        "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
        "env": environment(result, ref),
        "deadline_s": deadline, "operations": len(verdicts), "wall_s": result["wall_s"],
        "input_sizes": input_sizes(workload), "fail_share": failed / attempted,
        "failures": kinds,
        "pass_rates_per_s": [round(r, 2) for r in
                             pass_rates(result["pass_marks"], pass_len, passed)],
        "lat_tail": {"percentile": pct, "samples": n, "beyond": beyond},
        "setup_samples_s": setup,
    }
    emit(failed == 0, attempted, failed, metrics, report)


def setup_times(workload: str, launches: int) -> list[float]:
    """Seconds from process start until the workload's first operation could
    be issued, one per fresh launch."""
    out = []
    for _ in range(launches):
        t0, proc = launch(["ready", workload], timeout=120)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def input_sizes(workload: str) -> dict:
    if workload == "single-solves":
        return {"pool_per_kind": inputs.POOL_SIZE, "pass_ops": 3 * inputs.POOL_SIZE,
                "scale_decades": [-inputs.SCALE_DECADES, inputs.SCALE_DECADES],
                "probe_decades": [-inputs.PROBE_DECADES, inputs.PROBE_DECADES],
                "max_measurements": inputs.MAX_MEASUREMENTS}
    if workload == "oracle-verify":
        return {"pool_per_kind": inputs.POOL_SIZE, "pass_trials": 2 * inputs.ORACLE_PER_PASS,
                "steps": inputs.ORACLE_STEP, "tolerances": inputs.ORACLE_TOL}
    return {"suite": ["gain2 3x7x7", "gain1 10x10", "instants_vs_T 10", "descent_stats 5"],
            "cells_per_suite": sum(inputs.sweep_cells(s) for s in
                                   ("gain2", "gain1", "instants", "descent"))}


def import_times(workload: str, launches: int) -> dict[str, float]:
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(launches):
        _, proc = launch(["ready", workload], timeout=120, flags=("-X", "importtime"))
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line.split("|")
            name = fields[-1].strip()
            if name in samples:
                # numpy and the bmsched package: cumulative; submodules: self,
                # since a submodule's cumulative depends on import order
                column = 1 if name in ("numpy", "bmsched") else 0
                try:
                    samples[name].append(int(fields[column].split(":")[-1]) * 1e-6)
                except ValueError:
                    continue
    missing = [m for m, xs in samples.items() if not xs]
    if missing:
        raise BenchError(f"no import time for {missing}")
    return {m: statistics.median(xs) for m, xs in samples.items()}


def traced(workload, seed, ref, workdir):
    ops, meta, _ = build_ops(workload, seed, ref, workdir)
    ops, meta = ops[:TRACE_OPS[workload]], meta[:TRACE_OPS[workload]]
    deadline = DEADLINES[workload]
    imports = import_times(workload, IMPORTTIME_LAUNCHES)
    launch(["ready", workload], timeout=120)
    result = run_child(workload, workdir, ops, deadline, None, 1, trace=True)
    span_meta, arrays = tracing.load(workdir)
    stats, in_r3 = tracing.aggregate(span_meta, arrays)
    verdicts = verify(workload, ops, meta, result, ref, workdir)
    attempted, failed, kinds = summarize(verdicts, deadline)[:3]
    plain = run_child(workload, workdir, ops, deadline, None, 1, trace=False)
    probe = scale_probe(seed, ref, workdir) if workload == "single-solves" else None

    metrics = {}
    for layer in TIMED_LAYERS + COUNTED_LAYERS:
        calls, total, own = stats.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        if layer in TIMED_LAYERS:
            metrics[f"{layer}.total_s"] = {"value": total, "unit": "s"}
            metrics[f"{layer}.self_s"] = {"value": own, "unit": "s"}
    for key, value in span_meta["counters"].items():
        metrics[key] = {"value": value, "unit": "count"}
    r3 = stats.get("two_measure.optimize_two.r3", (0,))[0]
    for layer in PER_R3_SOLVE:
        metrics[f"{layer}.calls_per_r3_solve"] = {
            "value": in_r3.get(layer, 0) / r3 if r3 else 0.0, "unit": "count"}
    for module, seconds in imports.items():
        metrics[f"import.{module}_s"] = {"value": seconds, "unit": "s"}
    for name in PROBE_METRICS:
        metrics[name] = {"value": probe[name] if probe else 0, "unit": "count"}
    metrics["trace.overhead_s"] = {"value": result["wall_s"] - plain["wall_s"], "unit": "s"}

    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
    report = {
        "workload": workload, "seed": seed, "trace": 1, "operations": len(ops),
        "env": environment(result, ref),
        "deadline_s": deadline, "traced_wall_s": result["wall_s"],
        "untraced_wall_s": plain["wall_s"], "spans": span_meta["spans"],
        "ops_cut_by_deadline": len(span_meta["cut_roots"]),
        "counts_left_out_of_cut_ops": span_meta["cut_counters"],
        "failures": kinds,
        "other_layers": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                         for name, s in sorted(stats.items())
                         if name not in TIMED_LAYERS},
        "counts_repeat": compare_counts(workload, seed, counts),
        "scale_probe": probe or "not run: single-solves only",
    }
    emit(failed == 0, attempted, failed, metrics, report)


def scale_probe(seed, ref, workdir) -> dict:
    """One untraced pass of single-solves calls at 10^U(-8, 8), each checked
    like a timed call.  Its failures are the hangs, errors and scale errors
    of ROADMAP item 4; they are counted here and are not operations of the
    run, whose inputs stay in the range on which every call succeeds."""
    ops, meta = single_ops(seed, ref, passes=1, decades=inputs.PROBE_DECADES)
    result = run_child("single-solves", workdir, ops, PROBE_DEADLINE_S, None, 1, trace=False)
    verdicts = verify("single-solves", ops, meta, result, ref, workdir)
    counts = {name: 0 for name in PROBE_METRICS}
    by_kind: dict[str, int] = {}
    for (labels, _), m in zip(verdicts, meta):
        lab = labels[0]
        if lab is None:
            continue
        name = {"deadline": "scale_probe.hangs", "wrong": "scale_probe.wrong"}.get(
            lab, "scale_probe.errors")
        counts[name] += 1
        key = f"{m[0]}:{lab}"
        by_kind[key] = by_kind.get(key, 0) + 1
    counts.update(calls=len(ops), deadline_s=PROBE_DEADLINE_S, failures=by_kind,
                  slowest_returned_ms=1e3 * max(
                      (lat for labels, lat in verdicts if labels[0] != "deadline"), default=0.0))
    return counts


def compare_counts(workload, seed, counts) -> str:
    """Compare with the counts of the previous traced run of this workload
    and seed in this checkout, kept under .bench-state/."""
    state = ROOT / ".bench-state"
    state.mkdir(exist_ok=True)
    path = state / f"counts-{workload}-{seed}.json"
    verdict = "first traced run of this seed"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        differ = sorted(k for k in counts if before.get(k) != counts[k])
        verdict = "identical" if not differ else "DIFFER: " + ", ".join(differ)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        ref = load_reference()
        workdir = pathlib.Path(tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT))
        try:
            if args.trace:
                traced(args.workload, args.seed, ref, workdir)
            else:
                measure(args.workload, args.seed, args.seconds, ref, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
