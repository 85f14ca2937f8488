"""Benchmark child process: one caller, one thread, closed loop.

    python3 bench/child.py ready <workload>
    python3 bench/child.py run <workload> <workdir>

``ready`` imports the bmsched modules the workload calls, prints the
``time.perf_counter()`` reading at which the first operation could be issued,
and exits; the parent times process start-up with it.  ``run`` reads
``<workdir>/inputs.json`` (written by the parent), runs the operations, each
under a deadline enforced with ``signal.setitimer``, and writes the raw
outcomes to ``<workdir>/records.jsonl`` and ``<workdir>/result.json`` for the
parent to check.  Nothing here checks answers or draws inputs.
"""

import sys
import time

# outcomes held in memory before they are written out, between passes and
# off the clock, so that the peak RSS does not grow with the run's length
FLUSH_AT = 4096
MODULES = {
    "paper-sweeps": ("bmsched.cli",),
    "single-solves": ("bmsched.two_measure", "bmsched.one_measure", "bmsched.kalman"),
    "oracle-verify": ("bmsched.numerics", "bmsched.one_measure", "bmsched.two_measure",
                      "bmsched.kalman"),
}


class DeadlineExceeded(BaseException):
    """Raised by the timer signal.  A BaseException, so that an
    ``except Exception`` inside the program cannot swallow it."""


def _on_timer(signum, frame):
    raise DeadlineExceeded()


def _caller(workload, mods, workdir):
    """The function that issues one operation: f(op, k) -> output list."""
    if workload == "single-solves":
        two_measure, one_measure, kalman = mods

        def call(op, k):
            kind, args = op[0], op[1:]
            if kind == "two":
                sol = two_measure.optimize_two(*args)
                return [sol.t1_opt, sol.t2_opt, sol.cost_at_opt, sol.regime.value]
            if kind == "one":
                sol = one_measure.optimal_instant_1(*args)
                return [sol.t_opt, sol.cost_at_opt]
            sigma2, T, v0, sensors, instants = args
            return [kalman.cost(kalman.ModelParams(sigma2, T, v0), kalman.SensorSet(sensors),
                                kalman.Schedule(instants)).total]

        return call

    if workload == "oracle-verify":
        numerics, one_measure, two_measure, kalman = mods

        def call(op, k):
            kind, sigma2, T, v0 = op[:4]
            params = kalman.ModelParams(sigma2, T, v0)
            if kind == "one":
                v1, step = op[4:]
                orc = numerics.grid_oracle_1(params, v1, step)
                sol = one_measure.optimal_instant_1(sigma2, T, v0, v1)
                return [orc.argmin[0], sol.t_opt, sol.cost_at_opt]
            v1, v2, step = op[4:]
            orc = numerics.grid_oracle_2(params, (v1, v2), step)
            sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
            return [orc.argmin[0], orc.argmin[1], sol.t1_opt, sol.t2_opt, sol.cost_at_opt]

        return call

    (cli,) = mods

    def call(op, k):
        codes = []
        for stem in op:
            fmt = "json" if stem.startswith("descent") else "csv"
            codes.append(cli.run(["sweep", "--spec", f"{workdir}/specs/{stem}.json",
                                  "--format", fmt, "--output", f"{workdir}/out/{k}_{stem}.{fmt}"]))
        return codes

    return call


def _run(workload, mods, workdir):
    import json
    import resource
    import signal

    with open(f"{workdir}/inputs.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ops, deadline = spec["ops"], spec["deadline"]
    seconds, pass_len = spec["seconds"], spec["pass_len"]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench_dir"])
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    call = _caller(workload, mods, workdir)
    signal.signal(signal.SIGALRM, _on_timer)
    perf, setitimer, REAL = time.perf_counter, signal.setitimer, signal.ITIMER_REAL

    records = []
    out_file = open(f"{workdir}/records.jsonl", "w", encoding="utf-8")
    paused = 0.0  # time spent writing outcomes, left out of every reading

    def flush():
        nonlocal paused
        t = perf()
        out_file.write(json.dumps(records) + "\n")
        records.clear()
        paused += perf() - t

    started = perf()
    marks = [started]  # start of each pass, then the end of the last one
    k = 0
    while True:
        op = ops[k % len(ops)]
        root = tracer.begin_op() if tracer else None
        out, status = None, "ok"
        try:
            setitimer(REAL, deadline)
            t0 = perf()
            try:
                out = call(op, k)
            finally:
                t1 = perf()
                setitimer(REAL, 0)
        except DeadlineExceeded:
            status, t1 = "deadline", perf()
        except Exception as exc:  # the operation's own failure: counted, not fatal
            status = type(exc).__name__
        if tracer:
            tracer.end_op(root, cut=status == "deadline")
        records.append([status, t1 - t0] + (out or []))
        k += 1
        if seconds is None:
            if k == len(ops):
                break
        elif k % pass_len == 0:
            if len(records) >= FLUSH_AT:
                flush()
            marks.append(perf() - paused)
            if marks[-1] - started >= seconds:
                break
    wall = perf() - paused - started
    flush()
    out_file.close()

    numpy = sys.modules.get("numpy")
    result = {
        "wall_s": wall,
        "pass_marks": [t - started for t in marks],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy else None,
    }
    if tracer:
        result["trace"] = tracer.dump(workdir)
    with open(f"{workdir}/result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, workload = argv[0], argv[1]
    mods = []
    for name in MODULES[workload]:
        __import__(name)  # the import statement's path, which -X importtime reports
        mods.append(sys.modules[name])
    if mode == "ready":
        print(repr(time.perf_counter()))
        return 0
    _run(workload, mods, argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
