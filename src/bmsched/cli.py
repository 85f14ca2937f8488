"""Command-line interface.

Subcommands: ``optimize1``, ``optimize2``, ``profile``, ``bounds``,
``windows``, ``sweep`` and ``oracle-check``.  Output is JSON (or CSV, with
``sweep --format csv``) with numbers rendered to 12 significant digits, so
identical invocations produce byte-identical documents.

Exit codes: 0 success, 2 argument error, 3 domain error (also a result that
overflows the float range), 4 oracle discrepancy beyond tolerance, 5 solver
failure (the coordinate descent that ``optimize2`` runs with ``--trace``,
``--tol`` or ``--max-iters`` did not converge, or it and the reduced regime-3
root it is checked against disagree, or that root, the default path, used up
its evaluation budget).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any

import numpy as np

from . import experiments, numerics, one_measure, two_measure
from .kalman import ModelParams, Schedule, SensorSet, cost, variance_profile
from .one_measure import Regime
from .two_measure import DescentOptions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_ORACLE = 4
EXIT_SOLVER = 5


def parse_real(text: str) -> float:
    """Parse a decimal or a fraction such as ``71/18``."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from exc


def parse_positive(text: str) -> float:
    value = parse_real(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def parse_real_list(text: str) -> tuple[float, ...]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return tuple(parse_real(part.strip()) for part in items)


def _fmt(x: float) -> str:
    if x.is_integer():
        return f"{x:.1f}" if abs(x) < 1e15 else f"{x:.12g}"
    if math.isfinite(x):
        return f"{x:.12g}"
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with floats at 12 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # each child is rendered once, for the inline and the multi-line layout
        parts = [render_json(v, indent + 1) for v in obj]
        inner = ", ".join(parts)
        if len(inner) <= 72:
            return "[" + inner + "]"
        return "[\n" + ",\n".join(f"{pad}  {p}" for p in parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


def render_csv(columns: tuple[str, ...], rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmsched",
        description=(
            "Optimal measurement schedules for a scalar Brownian motion "
            "tracked by a Kalman filter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write the document to a file")

    p1 = sub.add_parser("optimize1", help="optimal instant of one measurement")
    p1.add_argument("--sigma2", type=parse_real, required=True)
    p1.add_argument("--T", type=parse_real, required=True)
    p1.add_argument("--v0", type=parse_real, required=True)
    p1.add_argument("--v1", type=parse_real, required=True)
    add_common(p1)

    p2 = sub.add_parser("optimize2", help="optimal instants of two measurements")
    p2.add_argument("--sigma2", type=parse_real, required=True)
    p2.add_argument("--T", type=parse_real, required=True)
    p2.add_argument("--v0", type=parse_real, required=True)
    p2.add_argument("--v1", type=parse_real, required=True)
    p2.add_argument("--v2", type=parse_real, required=True)
    p2.add_argument(
        "--trace", action="store_true",
        help="solve regime 3 by the paper's coordinate descent and include its trace",
    )
    p2.add_argument(
        "--tol", type=parse_positive, default=None,
        help="solve regime 3 by coordinate descent with this step tolerance, "
             "a fraction of T (default 1e-9)",
    )
    p2.add_argument(
        "--max-iters", type=int, default=None,
        help="solve regime 3 by coordinate descent with this iteration limit (default 200)",
    )
    add_common(p2)

    pp = sub.add_parser("profile", help="variance profile of a given schedule")
    pp.add_argument("--sigma2", type=parse_real, required=True)
    pp.add_argument("--T", type=parse_real, required=True)
    pp.add_argument("--v0", type=parse_real, required=True)
    pp.add_argument("--sensors", type=parse_real_list, required=True,
                    help="comma-separated sensor variances")
    pp.add_argument("--instants", type=parse_real_list, required=True,
                    help="comma-separated measurement instants")
    add_common(pp)

    pb = sub.add_parser("bounds", help="cost bounds for one measurement")
    pb.add_argument("--sigma2", type=parse_real, required=True)
    pb.add_argument("--T", type=parse_real, required=True)
    pb.add_argument("--v0", type=parse_real, required=True)
    pb.add_argument("--v1", type=parse_real, required=True)
    add_common(pb)

    pw = sub.add_parser("windows", help="one optimal measurement per window")
    pw.add_argument("--sigma2", type=parse_real, required=True)
    pw.add_argument("--T", type=parse_real, required=True)
    pw.add_argument("--v1", type=parse_real, required=True)
    pw.add_argument("--v0", type=parse_real, required=True)
    pw.add_argument("--max-windows", type=int, default=60)
    add_common(pw)

    ps = sub.add_parser("sweep", help="run an experiment sweep from a spec file")
    ps.add_argument("--spec", required=True, help="path to a JSON sweep spec")
    ps.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format")
    add_common(ps)

    po = sub.add_parser("oracle-check", help="closed forms against the grid oracle")
    po.add_argument("--kind", choices=("one", "two"), required=True)
    po.add_argument("--step", type=parse_positive, default=None,
                    help="oracle grid step (default 1e-5 for one, 2e-3 for two)")
    po.add_argument("--trials", type=int, default=20)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--tol", type=parse_positive, default=None,
                    help="max allowed discrepancy (default 1e-4 for one, 4e-3 for two)")
    add_common(po)

    return parser


def _one_measure_doc(args) -> dict:
    sol = one_measure.optimal_instant_1(args.sigma2, args.T, args.v0, args.v1)
    regime = "1" if sol.regime is not Regime.REGIME2 else "2"
    return {
        "t1_opt": sol.t_opt,
        "regime": regime,
        "on_boundary": sol.regime is Regime.BOUNDARY,
        "cost": sol.cost_at_opt,
        "T_crit": sol.critical_duration,
    }


def _two_measure_doc(args) -> dict:
    given = {
        name: value
        for name, value in (("step_tol", args.tol), ("max_iterations", args.max_iters))
        if value is not None
    }
    if args.trace or given:
        sol = two_measure.descend_two(
            args.sigma2, args.T, args.v0, args.v1, args.v2, DescentOptions(**given)
        )
    else:
        sol = two_measure.optimize_two(args.sigma2, args.T, args.v0, args.v1, args.v2)
    doc = {
        "t1_opt": sol.t1_opt,
        "t2_opt": sol.t2_opt,
        "regime": sol.regime.value,
        "on_boundary": args.T in (sol.T2_crit, sol.T1_crit),
        "cost": sol.cost_at_opt,
        "T2_crit": sol.T2_crit,
        "T1_crit": sol.T1_crit,
    }
    if args.trace and sol.trace is not None:
        doc["trace"] = {
            "converged": sol.trace.converged,
            "final_gap": sol.trace.final_gap,
            "iterations": [list(step) for step in sol.trace.iterations],
        }
    return doc


def _profile_doc(args) -> dict:
    params = ModelParams(args.sigma2, args.T, args.v0)
    sensors = SensorSet(args.sensors)
    sched = Schedule(args.instants)
    prof = variance_profile(params, sensors, sched)
    breakdown = cost(params, sensors, sched)
    return {
        "segments": [list(seg) for seg in prof.segments],
        "post_measure_variances": list(prof.post_measure_variances),
        "cost": {
            "total": breakdown.total,
            "triangular": breakdown.triangular,
            "rectangular": breakdown.rectangular,
        },
    }


def _bounds_doc(args) -> dict:
    sol = one_measure.optimal_instant_1(args.sigma2, args.T, args.v0, args.v1)
    return {
        "lower_bound": one_measure.lower_bound(args.sigma2, args.T, args.v0, args.v1),
        "upper_bound": one_measure.upper_bound(args.sigma2, args.T, args.v0),
        "t1_opt": sol.t_opt,
        "cost_at_opt": sol.cost_at_opt,
    }


def _windows_doc(args) -> dict:
    it = one_measure.iterate_windows(
        args.sigma2, args.T, args.v1, args.v0, args.max_windows
    )
    return {
        "window_length": it.window_length,
        "sensor_variance": it.sensor_variance,
        "v0_sequence": list(it.v0_sequence),
        "relative_instants": list(it.relative_instants),
        "settled_at": it.settled_at,
        "v0_crit": one_measure.window_v0_crit(args.sigma2, args.T, args.v1),
        "v0_stationary": one_measure.window_v0_stationary(args.sigma2, args.T, args.v1),
    }


def _load_sweep_spec(path: str) -> experiments.SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValueError(f"sweep spec {path} must be a JSON object with a 'kind' key")
    # one pass; ``section`` and ``name`` locate the entry being converted
    section, name, swept, fixed = "swept", None, {}, {}
    try:
        for name, entry in raw.get("swept", {}).items():
            lo, hi, count = entry
            swept[name] = (float(lo), float(hi), int(count))
        section, name = "fixed", None
        for name, value in raw.get("fixed", {}).items():
            fixed[name] = float(value)
        section, name = "seed", None
        seed = int(raw.get("seed", 0))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        key = section if name is None else f"{section}.{name}"
        raise ValueError(f"sweep spec {path}: bad {key!r}: {exc}") from None
    return experiments.SweepSpec(kind=raw["kind"], fixed=fixed, swept=swept, seed=seed)


def _sweep_docs(args) -> str:
    spec = _load_sweep_spec(args.spec)
    result = experiments.run_sweep(spec)
    if args.format == "csv":
        return render_csv(result.columns, result.rows)
    doc = {
        "kind": result.kind,
        "seed": spec.seed,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "summary": result.summary,
    }
    return render_json(doc) + "\n"


def _oracle_check_doc(args) -> tuple[dict, int]:
    kind = args.kind
    step = args.step if args.step is not None else (1e-5 if kind == "one" else 2e-3)
    tol = args.tol if args.tol is not None else (1e-4 if kind == "one" else 4e-3)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        sigma2 = float(rng.uniform(0.5, 2.0))
        v0 = float(rng.uniform(0.0, 3.0))
        if kind == "one":
            v1 = float(rng.uniform(0.05, 3.0))
            T = float(rng.uniform(0.2, 3.0))
            params = ModelParams(sigma2, T, v0)
            oracle = numerics.grid_oracle_1(params, v1, step)
            sol = one_measure.optimal_instant_1(sigma2, T, v0, v1)
            worst = max(worst, abs(sol.t_opt - oracle.argmin[0]))
        else:
            v1 = float(rng.uniform(0.05, 3.0))
            v2 = float(rng.uniform(0.05, 3.0))
            T = float(rng.uniform(0.1, 4.0))
            params = ModelParams(sigma2, T, v0)
            oracle = numerics.grid_oracle_2(params, (v1, v2), step)
            sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
            worst = max(
                worst,
                abs(sol.t1_opt - oracle.argmin[0]),
                abs(sol.t2_opt - oracle.argmin[1]),
            )
    doc = {
        "kind": kind,
        "trials": args.trials,
        "seed": args.seed,
        "grid_step": step,
        "tolerance": tol,
        "max_discrepancy": worst,
        "ok": worst <= tol,
    }
    return doc, (EXIT_OK if worst <= tol else EXIT_ORACLE)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# built on the first run() and reused: parsing leaves the parser unchanged, and
# building it takes longer than most commands take to run
_PARSER: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    """Parse argv, execute the subcommand and emit its document."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    status = EXIT_OK
    try:
        if args.command == "optimize1":
            text = render_json(_one_measure_doc(args)) + "\n"
        elif args.command == "optimize2":
            text = render_json(_two_measure_doc(args)) + "\n"
        elif args.command == "profile":
            text = render_json(_profile_doc(args)) + "\n"
        elif args.command == "bounds":
            text = render_json(_bounds_doc(args)) + "\n"
        elif args.command == "windows":
            text = render_json(_windows_doc(args)) + "\n"
        elif args.command == "sweep":
            text = _sweep_docs(args)
        elif args.command == "oracle-check":
            doc, status = _oracle_check_doc(args)
            text = render_json(doc) + "\n"
        else:  # pragma: no cover
            return EXIT_USAGE
    except OverflowError:
        # raised by a float power such as x ** 2 whose result leaves the range
        sys.stderr.write("error: the result overflows the float range\n")
        return EXIT_DOMAIN
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER if isinstance(exc, RuntimeError) else EXIT_DOMAIN
    _emit(text, args.output)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
