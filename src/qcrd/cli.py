"""Command-line interface: ``sample``, ``curve``, ``qsi-curve``, ``check``.

With ``side_info`` a problem's rate is I(X;R|B) and its CSV opens with
``# assumes:`` lines.  ``curve --n 0`` skips the sampling half (sweep,
envelope rows, SVG); ``qsi-curve`` is its deprecated alias for side_info specs.

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

#: Rows of ``sample`` output formatted per write.
_CSV_CHUNK = 8192

#: Most points a ``--grid start:stop:step`` range may expand to.
_MAX_GRID_POINTS = 10_000

_QSI_METADATA = (
    "# assumes: unlimited shared common randomness between encoder and decoder",
    "# assumes: negligible disturbance of the reference and side-information systems",
)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _sample_rows(dist: list, rate: list, start: int) -> str:
    """``distortion,rate_bits,seed_index`` rows of samples ``start, start+1, ...``
    as one ``%`` format, the same text as :func:`_fmt` of every value."""
    fields = [0] * (3 * len(dist))
    fields[0::3], fields[1::3], fields[2::3] = dist, rate, range(start, start + len(dist))
    return ("%.12g,%.12g,%d\n" * len(dist)) % tuple(fields)


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
        # floor: the last point passes stop by round-off at most, and the
        # floor(steps) + 1 points stay within the cap exactly when steps < cap
        steps = (stop - start) / step + 1e-9
        if not steps < _MAX_GRID_POINTS:
            raise ProblemSpecError(f"grid range has more than {_MAX_GRID_POINTS} points")
        return start + step * np.arange(math.floor(steps) + 1)
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


def _header(problem: ProblemSpec, columns: str) -> list[str]:
    return [*(_QSI_METADATA if problem.has_side_info else ()), columns]


def _curve_rows(grid, rates, method: str, missing: str) -> list[str]:
    """One row per grid point; a point without a finite rate is labelled ``missing``."""
    return [f"{_fmt(d)},{_fmt(r)},{method}" if math.isfinite(r) else f"{_fmt(d)},,{missing}"
            for d, r in zip(grid, rates)]


def cmd_sample(args) -> int:
    problem = _load(args)
    psi, delta, outcomes = problem.build()
    dist, rate = sample_sweep(psi, delta, outcomes, args.n, args.seed)
    # rows are formatted and written a chunk at a time, so the text of the
    # whole file never sits in memory
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(_header(problem, "distortion,rate_bits,seed_index")) + "\n")
        for start in range(0, dist.size, _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            fh.write(_sample_rows(dist[start:stop].tolist(), rate[start:stop].tolist(), start))
    return 0


def cmd_curve(args) -> int:
    """``curve``, and ``qsi-curve`` as ``curve --n 0`` on a side_info spec."""
    problem = _load(args)
    if args.command == "qsi-curve" and not problem.has_side_info:
        raise ProblemSpecError("qsi-curve needs a problem definition with side_info")
    psi, delta, outcomes = problem.build()
    grid = _parse_grid(args.grid) if args.grid else _default_grid(problem, delta.d_max)
    if grid.min() < -1e-12 or grid.max() > delta.d_max + 1e-9:
        raise ProblemSpecError(f"grid must lie within [0, d_max={delta.d_max!r}]")

    lines = _header(problem, "D,R_bits,method")
    if args.n:
        dist, rate = sample_sweep(psi, delta, outcomes, args.n, args.seed)
        curve = lower_envelope(dist, rate, grid)
        # a grid point below every sample is a miss of the cloud, not proof that no POVM reaches it
        lines.extend(_curve_rows(grid, curve.rates, "sampling", "unsampled"))
    descent = minimize_rate_curve(psi, delta, grid, outcomes, problem.solver)
    rates = [math.inf if p is None else p.rate for p in descent]
    lines.extend(_curve_rows(grid, rates, "descent", "infeasible"))
    _write_lines(args.out_csv, lines)

    if args.n and args.out_svg:
        from .svgfig import write_rd_svg

        stride = max(1, dist.size // _MAX_SVG_POINTS)
        cloud = list(zip(dist[::stride].tolist(), rate[::stride].tolist()))
        envelope = [(d, r) for d, r in zip(grid, curve.rates) if math.isfinite(r)]
        write_rd_svg(args.out_svg, cloud, envelope)
    return 0


def cmd_check(args) -> int:
    suite = check_suites.SUITES[args.suite]
    report = suite(seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out_json:
        _write_lines(args.out_json, [text])
    else:
        print(text)
    return 0 if report["passed"] else 1


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
    p_curve.add_argument("--n", type=int, default=250_000, help="samples behind the envelope; 0 skips them")
    p_curve.add_argument("--grid", help="distortion grid: start:stop:step or comma list")
    p_curve.add_argument("--out-csv", default="curve.csv")
    p_curve.add_argument("--out-svg", default="curve.svg")
    p_curve.set_defaults(func=cmd_curve)

    p_qsi = sub.add_parser("qsi-curve", help="deprecated alias of curve --n 0 on a side_info spec")
    add_problem_flags(p_qsi)
    p_qsi.add_argument("--grid", help="distortion grid: start:stop:step or comma list")
    p_qsi.add_argument("--out-csv", default="qsi_curve.csv")
    p_qsi.set_defaults(func=cmd_curve, n=0, out_svg=None)

    p_check = sub.add_parser("check", help="run a named self-check suite; exit status 1 if it fails")
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
