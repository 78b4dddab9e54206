"""Command-line interface: ``sample``, ``curve``, ``qsi-curve``, ``check``.

With ``side_info`` a problem's rate is I(X;R|B) and its CSV opens with
``# assumes:`` lines.  ``curve --n 0`` skips the sampling half (sweep,
envelope rows, SVG); ``qsi-curve`` is its deprecated alias for side_info specs.
Without ``--grid`` a curve runs on :func:`~qcrd.solver.default_grid`, 26 points
from 0 to the problem's zero-rate distortion, for presets and specs alike.

All numeric output uses %.12g formatting, UTF-8, and LF line endings, and is
a deterministic function of the problem definition, flags, and seed.  The
rows of ``sample`` are rendered by numpy from exact digit arithmetic, byte for
byte the text of ``%.12g``; a value that arithmetic cannot settle goes through
Python's ``%.12g`` itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import checks as check_suites
from .problem import PAPER_PRESET, ProblemSpec, ProblemSpecError, load_problem, paper_problem
from .solver import default_grid, lower_envelope, minimize_rate_curve, sample_sweep

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


def _digit_words() -> np.ndarray:
    """Each 3-digit group 0-999 as a 4-byte word, NUL where a character is left
    out, in eight variants of 1000 words: after a NUL (0, 1) or a ``0`` (2, 3),
    with all digits (0, 2) or without the zeros that end a value (1, 3); without
    those zeros before ``,`` (4); without leading zeros (5); and before a
    newline with all digits (6) or without leading zeros but the last (7)."""
    digits = np.arange(1000, dtype=np.uint16)[:, None] // np.array([100, 10, 1], np.uint16) % 10
    text = (digits + 48).astype(np.uint8)
    nonzero = digits != 0
    to_last = text * np.logical_or.accumulate(nonzero[:, ::-1], 1)[:, ::-1]
    from_first = np.logical_or.accumulate(nonzero, 1)
    pad = np.zeros((1000, 1), np.uint8)
    variants = [(pad, text), (pad, to_last), (pad + 48, text), (pad + 48, to_last), (to_last, pad + 44),
                (pad, text * from_first), (text, pad + 10),
                (text * (from_first | [False, False, True]), pad + 10)]
    return np.concatenate([np.hstack(v) for v in variants]).view(np.uint32).ravel()


def _sample_csv(dist: np.ndarray, rate: np.ndarray, start: int = 0):
    """Yield the ``distortion,rate_bits,seed_index`` rows of samples ``start``,
    ``start + 1``, ... as UTF-8, ``_CSV_CHUNK`` rows at a time, each byte for
    byte ``"%.12g,%.12g,%d\\n"``.

    A value v in [1e-4, 1) is ``0.``, then -e-1 zeros, then the 12 digits of
    n = rint(m), m = v 10^(11-e), e = floor(log10 v), without trailing zeros.
    10^(11-e) is exact, so m carries one rounding of at most 2^-14, and n is
    the correctly rounded digit string wherever m lies 1e-3 or more from a
    tie.  Every other value (near-ties, n = 10^12, values outside [1e-4, 1),
    -0.0, nan, inf) is written by Python's ``%.12g``.  A row is a fixed run of
    4-byte words padded with NUL bytes, which are dropped from each chunk.
    """
    words = _digit_words()
    prefix = np.frombuffer(b"0.000.000.0\0" b"0.\0\0", np.uint32)  # by e + 4
    scale = 10.0 ** np.arange(15, 11, -1)  # 10^(11-e) by e + 4
    size = min(len(dist), _CSV_CHUNK)
    groups = -(-len(str(start + len(dist) - 1)) // 3)  # a shorter index leads with NUL groups
    rows = np.empty((10 + groups, size), np.uint32)  # one column per row
    value_words = rows[:10].reshape(2, 5, size)  # per value: prefix, then n's four groups
    x, m, n = np.empty((3, 2, size))
    e4 = np.empty((2, size), np.intp)
    index, offsets = np.empty(size), np.arange(size, dtype=float)
    # q[..., j, :] = floor(n / 1000^(4-j)) for j >= 1 after q[..., 0, :] = 0; group j is q_j - 1000 q_(j-1)
    q, k = np.zeros((2, 2, 5, size))
    iq, ik = np.zeros((2, groups + 1, size))
    divisors = 1000.0 ** np.arange(3, -1, -1)[:, None]
    index_divisors = 1000.0 ** np.arange(groups - 1, -1, -1)[:, None]
    index_lead = np.array([5.0] * (groups - 1) + [1.0])[:, None]
    for lo in range(0, len(dist), _CSV_CHUNK):
        w = min(size, len(dist) - lo)
        x[0, :w], x[1, :w] = dist[lo:lo + w], rate[lo:lo + w]
        fast = np.isfinite(x)
        np.copyto(x, 0.5, where=~fast)  # no comparison below meets a nan, log10 no value <= 0,
        fast &= (x > 0) & (x < 1)  # and no product overflows; n's range decides the rest
        np.copyto(x, 0.5, where=~fast)
        np.log10(x, out=m)
        np.floor(m, out=m)
        m += 4
        e4[...] = np.clip(m, 0, 3, out=m)  # off by one beside a power of 10, where n then falls outside
        np.take(scale, e4, out=m)
        m *= x
        np.rint(m, out=n)
        fast &= (m >= 1e11) & (n < 1e12) & (np.abs(m - n, out=m) <= 0.499)
        np.floor(np.divide(n[:, None], divisors, out=q[:, 1:]), out=q[:, 1:])
        np.equal(np.multiply(q[:, 1:], divisors, out=k[:, 1:]), n[:, None], out=k[:, 1:])  # no digit after j
        k[:, 4] += 3
        np.add(k[:, 1], 2, out=k[:, 1], where=e4 == 0)
        k *= 1000
        k += q
        k[:, 1:] -= 1000 * q[:, :-1]
        np.take(prefix, e4, out=value_words[:, 0])
        np.take(words, k[:, 1:].astype(np.intp), out=value_words[:, 1:])
        for col, row in zip(*np.nonzero(~fast[:, :w])):
            text = _fmt(float((dist, rate)[col][lo + row])) + ","
            value_words[col, :, row] = np.frombuffer(text.encode().ljust(20, b"\0"), np.uint32)
        np.add(offsets, start + lo, out=index)
        np.floor(np.divide(index, index_divisors, out=iq[1:]), out=iq[1:])
        np.equal(iq[:-1], 0, out=ik[1:])  # no digit before group j
        ik[1:] *= index_lead
        ik[-1] += 6
        ik *= 1000
        ik += iq
        ik[1:] -= 1000 * iq[:-1]
        np.take(words, ik[1:].astype(np.intp), out=rows[10:])
        yield rows[:, :w].T.tobytes().translate(None, b"\0")


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
    # numpy renders the rows a chunk at a time, so the text of the whole file
    # never sits in memory; the bytes are those of "%.12g,%.12g,%d\n" per row
    with open(args.out_csv, "wb") as fh:
        fh.write(("\n".join(_header(problem, "distortion,rate_bits,seed_index")) + "\n").encode("utf-8"))
        fh.writelines(_sample_csv(dist, rate))
    return 0


def cmd_curve(args) -> int:
    """``curve``, and ``qsi-curve`` as ``curve --n 0`` on a side_info spec."""
    problem = _load(args)
    if args.command == "qsi-curve" and not problem.has_side_info:
        raise ProblemSpecError("qsi-curve needs a problem definition with side_info")
    psi, delta, outcomes = problem.build()
    grid = _parse_grid(args.grid) if args.grid else default_grid(psi, delta, outcomes)
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
