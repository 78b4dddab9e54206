"""Command-line interface: ``sample``, ``curve``, ``qsi-curve``, ``check``.

All numeric output uses %.12g formatting, UTF-8, and LF line endings, and is
a deterministic function of the problem definition, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import checks as check_suites
from .problem import PAPER_PRESET, ProblemSpec, ProblemSpecError, load_problem, paper_problem
from .solver import lower_envelope, minimize_rate_curve, sample_sweep

_MAX_SVG_POINTS = 5000

#: Most points a ``--grid start:stop:step`` range may expand to.
_MAX_GRID_POINTS = 10_000

_QSI_METADATA = (
    "# assumes: unlimited shared common randomness between encoder and decoder",
    "# assumes: negligible disturbance of the reference and side-information systems",
)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _load(args) -> ProblemSpec:
    if args.spec and args.preset:
        raise ProblemSpecError("give either --preset or --spec, not both")
    if args.spec:
        return load_problem(args.spec)
    preset = args.preset or PAPER_PRESET
    if preset != PAPER_PRESET:
        raise ProblemSpecError(f"unknown preset {preset!r}")
    return paper_problem()


def _parse_grid(text: str) -> np.ndarray:
    is_range = ":" in text
    try:
        values = [float(t) for t in (text.split(":") if is_range else text.split(",")) if t.strip()]
    except ValueError as exc:
        raise ProblemSpecError(f"bad grid value: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ProblemSpecError("grid values must be finite")
    if is_range:
        if len(values) != 3:
            raise ProblemSpecError("grid ranges are start:stop:step")
        start, stop, step = values
        if step <= 0 or stop < start:
            raise ProblemSpecError("grid range must have positive step and stop >= start")
        steps = (stop - start) / step
        if not steps < _MAX_GRID_POINTS:
            raise ProblemSpecError(f"grid range spans {steps:.3g} steps, over {_MAX_GRID_POINTS} points")
        return start + step * np.arange(round(steps) + 1)
    if not values or np.any(np.diff(values) < 0):
        raise ProblemSpecError("grid must be a nonempty sorted list")
    return np.array(values)


def _default_grid(problem: ProblemSpec, d_max: float) -> np.ndarray:
    if problem.preset == PAPER_PRESET:
        return 0.01 * np.arange(26)
    return np.linspace(0.0, d_max, 26)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_sample(args) -> int:
    problem = _load(args)
    psi, delta, outcomes = problem.build()
    dist, rate = sample_sweep(psi, delta, outcomes, args.n, args.seed)
    lines = ["distortion,rate_bits,seed_index"]
    lines.extend(f"{_fmt(d)},{_fmt(r)},{i}" for i, (d, r) in enumerate(zip(dist.tolist(), rate.tolist())))
    _write_lines(args.out_csv, lines)
    return 0


def _curve_rows(grid, env_rates, descent_points):
    rows = []
    for d, r in zip(grid, env_rates):
        if math.isfinite(r):
            rows.append(f"{_fmt(d)},{_fmt(r)},sampling")
        else:
            rows.append(f"{_fmt(d)},,infeasible")
    for d, point in zip(grid, descent_points):
        if point is None:
            rows.append(f"{_fmt(d)},,infeasible")
        else:
            rows.append(f"{_fmt(d)},{_fmt(point.rate)},descent")
    return rows


def cmd_curve(args) -> int:
    problem = _load(args)
    psi, delta, outcomes = problem.build()
    grid = _parse_grid(args.grid) if args.grid else _default_grid(problem, delta.d_max)
    if grid.min() < -1e-12 or grid.max() > delta.d_max + 1e-9:
        raise ProblemSpecError(f"grid must lie within [0, d_max={delta.d_max!r}]")

    dist, rate = sample_sweep(psi, delta, outcomes, args.n, args.seed)
    curve = lower_envelope(dist, rate, grid)
    descent = minimize_rate_curve(psi, delta, grid, outcomes, problem.solver)

    lines = ["D,R_bits,method"]
    lines.extend(_curve_rows(grid, curve.rates, descent))
    _write_lines(args.out_csv, lines)

    if args.out_svg:
        from .svgfig import write_rd_svg

        stride = max(1, dist.size // _MAX_SVG_POINTS)
        cloud = list(zip(dist[::stride].tolist(), rate[::stride].tolist()))
        envelope = [(d, r) for d, r in zip(grid, curve.rates) if math.isfinite(r)]
        write_rd_svg(args.out_svg, cloud, envelope)
    return 0


def cmd_qsi_curve(args) -> int:
    problem = _load(args)
    if not problem.has_side_info:
        raise ProblemSpecError("qsi-curve needs a problem definition with side_info")
    psi, delta, outcomes = problem.build_qsi()
    grid = _parse_grid(args.grid) if args.grid else _default_grid(problem, delta.d_max)
    if grid.min() < -1e-12 or grid.max() > delta.d_max + 1e-9:
        raise ProblemSpecError(f"grid must lie within [0, d_max={delta.d_max!r}]")

    descent = minimize_rate_curve(psi, delta, grid, outcomes, problem.solver)
    lines = list(_QSI_METADATA)
    lines.append("D,R_bits,method")
    for d, point in zip(grid, descent):
        if point is None:
            lines.append(f"{_fmt(d)},,infeasible")
        else:
            lines.append(f"{_fmt(d)},{_fmt(point.rate)},descent")
    _write_lines(args.out_csv, lines)
    return 0


def cmd_check(args) -> int:
    suite = check_suites.SUITES[args.suite]
    report = suite(seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out_json:
        _write_lines(args.out_json, [text])
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcrd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--preset", help=f"built-in problem (currently: {PAPER_PRESET})")
        p.add_argument("--spec", help="path to a JSON problem definition")

    p_sample = sub.add_parser("sample", help="Monte-Carlo POVM sweep to CSV")
    add_problem_flags(p_sample)
    p_sample.add_argument("--seed", type=int, default=0, help="seed of the sample streams")
    p_sample.add_argument("--n", type=int, default=250_000, help="number of sampled POVMs")
    p_sample.add_argument("--out-csv", default="samples.csv")
    p_sample.set_defaults(func=cmd_sample)

    p_curve = sub.add_parser("curve", help="rate-distortion curve to CSV and SVG")
    add_problem_flags(p_curve)
    p_curve.add_argument("--seed", type=int, default=0, help="seed of the sample streams")
    p_curve.add_argument("--n", type=int, default=250_000, help="samples behind the envelope")
    p_curve.add_argument("--grid", help="distortion grid: start:stop:step or comma list")
    p_curve.add_argument("--out-csv", default="curve.csv")
    p_curve.add_argument("--out-svg", default="curve.svg")
    p_curve.set_defaults(func=cmd_curve)

    p_qsi = sub.add_parser("qsi-curve", help="curve with quantum side information")
    add_problem_flags(p_qsi)
    p_qsi.add_argument("--grid", help="distortion grid: start:stop:step or comma list")
    p_qsi.add_argument("--out-csv", default="qsi_curve.csv")
    p_qsi.set_defaults(func=cmd_qsi_curve)

    p_check = sub.add_parser("check", help="run a named self-check suite")
    p_check.add_argument("--suite", required=True, choices=sorted(check_suites.SUITES))
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out-json", help="write the report here instead of stdout")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # covers ProblemSpecError plus dimension/positivity/distribution errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
