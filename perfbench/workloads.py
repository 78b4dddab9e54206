"""The four benchmark workloads.

Each workload has a set-up (outside the timed region), one operation that
the run repeats in a closed loop (the timed region), and a check of every
operation's output (outside the timed region again).  Operations reach
qcrd only through ``qcrd.cli.main`` and the public solver functions, looked
up at call time so a traced run can wrap them.

Why these four, and which layer each isolates:

* ``sweep`` -- ``qcrd sample`` at the figure size (criterion 3).  Per-sample
  RNG streams, the Ginibre map at batch 4096, batched evaluation and CSV
  formatting do all the work; no descent runs.  A faster sample stream
  must show here.
* ``curve`` -- ``qcrd curve`` on the paper example.  The d=2 descent on a
  non-diagonal observable dominates: the same Ginibre map and evaluation as
  ``sweep`` in the opposite batch regime (many small finite-difference
  batches), plus envelope and SVG output.
* ``oracle`` -- the acceptance suite's criterion-4 construction (random
  source, classical cost with a zero per row) at its first d=2 and d=3
  trials: descent over a few targets, then Blahut-Arimoto per target.  The
  only workload on the d=3 closed-form eigenvalues and on Blahut-Arimoto,
  and the acceptance suite's bottleneck.
* ``qsi`` -- ``qcrd qsi-curve`` on a two-qubit side-information instance.
  The only workload on I(X;R|B) and on LAPACK ``eigvalsh`` over 8x8 blocks;
  it guards against a plain-path speed-up that slows this one.

The workload seed drives the sample streams (``sweep``, and the sampling
half of ``curve``).  The descent problems and solver seeds are fixed
instances: the descent's time varies 2-4x between instances and between
solver seeds (one d=3 target took 4.0-8.3 s over twelve random instances
on a 2-vCPU Xeon), far more than a run can average, so a seed-drawn
problem would measure the draw rather than the code.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import qcrd
import qcrd.cli
import qcrd.solver

#: Criterion 3's sample count; its CSV holds 250k rows.
SWEEP_SAMPLES = 250_000

CURVE_SAMPLES = 20_000
CURVE_GRID = "0.02:0.24:0.02"
#: Rate the descent reaches at D=0.10 on the paper example.
PAPER_RATE_AT_010 = 0.172166

#: Generator seed of the acceptance suite's criterion 4, and the targets
#: d_floor + (i/11)(d_zero - d_floor) taken from its grid of i = 1..10.
ORACLE_SEED = 404
ORACLE_TARGETS = (3, 6)

#: Generator seed of the qsi instance (see ``_qsi_instance``).
QSI_SEED = 8
QSI_WITNESS_DRAWS = 256
QSI_SOLVER = {"restarts": 2, "max_iterations": 100, "convergence_tol": 1e-6,
              "lagrange_grid": [0.3, 3.0, 30.0], "rng_seed": 0}


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _random_density(rng, dim: int):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return qcrd.DensityOperator(m / m.trace().real)


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]


def _non_increasing(rates, tol: float = 1e-6) -> bool:
    return all(b <= a + tol for a, b in zip(rates, rates[1:]))


class Sweep:
    name = "sweep"

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "items": SWEEP_SAMPLES, "csv": os.path.join(workdir, "sweep.csv"),
                "d_max": qcrd.example_observable().d_max}

    def operation(self, ctx: dict):
        return qcrd.cli.main(["sample", "--preset", "paper-example", "--n", str(SWEEP_SAMPLES),
                              "--seed", str(ctx["seed"]), "--out-csv", ctx["csv"]])

    def check(self, ctx: dict, code) -> tuple[list[str], dict, str]:
        data = _read(ctx["csv"])
        fails = [] if code == 0 else [f"exit code {code}"]
        if not data.startswith(b"distortion,rate_bits,seed_index\n"):
            fails.append(f"header {data[:40]!r}")
        # parsed from the file, so the check stays below the operation's peak RSS
        table = np.loadtxt(ctx["csv"], delimiter=",", skiprows=1, ndmin=2)
        d, r, idx = table[:, 0], table[:, 1], table[:, 2]
        if table.shape[0] != SWEEP_SAMPLES:
            fails.append(f"{table.shape[0]} rows")
        elif not np.array_equal(idx, np.arange(SWEEP_SAMPLES)):
            fails.append("seed_index is not 0..n-1")
        if d.min() < 0.0 or d.max() > ctx["d_max"]:
            fails.append(f"D outside [0, d_max]: {d.min()!r}..{d.max()!r}")
        if r.min() < -1e-9 or r.max() > 1.0:
            fails.append(f"R outside [-1e-9, 1]: {r.min()!r}..{r.max()!r}")
        order = np.argsort(d, kind="stable")
        prefix = np.minimum.accumulate(r[order])
        pos = np.searchsorted(d[order], 0.01 * np.arange(26), side="right") - 1
        env = np.where(pos >= 0, prefix[np.maximum(pos, 0)], np.inf)
        if not np.all(np.diff(env) <= 0.0):
            fails.append("envelope increases")
        if not env[24] <= 0.02:
            fails.append(f"env(0.24)={env[24]!r} > 0.02")
        if not env[2] >= 0.1:
            fails.append(f"env(0.02)={env[2]!r} < 0.1")
        return fails, {"cli.out_bytes": len(data)}, _digest(data)


class Curve:
    name = "curve"

    def setup(self, seed: int, workdir: str) -> dict:
        spec = os.path.join(workdir, "curve.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "source": "paper-example", "observable": "paper-example",
                       "solver": {"restarts": 8, "rng_seed": 0}}, fh)
        start, stop, step = (float(v) for v in CURVE_GRID.split(":"))
        grid = start + step * np.arange(int(round((stop - start) / step)) + 1)
        return {"seed": seed, "items": grid.size, "spec": spec, "grid": grid,
                "csv": os.path.join(workdir, "curve.csv"),
                "svg": os.path.join(workdir, "curve.svg")}

    def operation(self, ctx: dict):
        return qcrd.cli.main(["curve", "--spec", ctx["spec"], "--n", str(CURVE_SAMPLES),
                              "--seed", str(ctx["seed"]), "--grid", CURVE_GRID,
                              "--out-csv", ctx["csv"], "--out-svg", ctx["svg"]])

    def check(self, ctx: dict, code) -> tuple[list[str], dict, str]:
        csv, svg = _read(ctx["csv"]), _read(ctx["svg"])
        fails = [] if code == 0 else [f"exit code {code}"]
        # the CLI writes every envelope row, then every descent row, in grid order
        rows = _csv_rows(ctx["csv"])[1:]
        n = ctx["grid"].size
        env = {float(d): float(r) for d, r, m in rows[:n] if m == "sampling"}
        descent = [(float(d), float(r)) for d, r, m in rows[n:] if m == "descent"]
        if len(rows) != 2 * n or len(descent) != n:
            fails.append(f"{len(descent)} feasible descent rows for {n} grid points")
        rates = [r for _, r in descent]
        if not _non_increasing(rates):
            fails.append("descent rates increase")
        for d, r in descent:
            if r > env.get(d, math.inf) + 1e-6:
                fails.append(f"descent {r!r} above envelope {env.get(d)!r} at D={d!r}")
        at_010 = [r for d, r in descent if abs(d - 0.10) < 1e-9]
        if not at_010 or at_010[0] > PAPER_RATE_AT_010 + 1e-3:
            fails.append(f"R(0.10)={at_010!r} above {PAPER_RATE_AT_010} + 1e-3")
        try:
            ET.fromstring(svg)
        except ET.ParseError as exc:
            fails.append(f"SVG does not parse: {exc}")
        return fails, {"cli.out_bytes": len(csv) + len(svg)}, _digest(csv, svg)


class Oracle:
    name = "oracle"

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(ORACLE_SEED)
        instances = []
        for trial, dim in enumerate((2, 3)):
            rho = _random_density(rng, dim)
            costs = rng.uniform(0.1, 2.0, size=(dim, 2))
            for z in range(dim):
                costs[z, z % 2] = 0.0
            eig = qcrd.eig_hermitian(rho.mat)
            p = np.clip(eig.eigenvalues, 0.0, None)
            p /= p.sum()
            d_floor = float((p * costs.min(axis=1)).sum())
            d_zero = float((p @ costs).min())
            targets = [d_floor + (i / 11.0) * (d_zero - d_floor) for i in ORACLE_TARGETS]
            instances.append({
                "psi": qcrd.purify(rho), "obs": qcrd.classical_cost_observable(costs, eig.eigenvectors),
                "p": p, "costs": costs, "targets": targets,
                # criterion 4 uses restarts 4 and 1200 iterations; these fit a run
                "opts": qcrd.SolverOptions(restarts=2, max_iterations=300, convergence_tol=1e-6,
                                           lagrange_grid=(0.1, 0.5, 2.0, 8.0, 32.0, 128.0),
                                           rng_seed=1000 + trial),
                "reference": [qcrd.blahut_arimoto(p, costs, t) for t in targets],
            })
        return {"seed": seed, "items": sum(len(i["targets"]) for i in instances),
                "instances": instances}

    def operation(self, ctx: dict):
        out = []
        for inst in ctx["instances"]:
            points = qcrd.solver.minimize_rate_curve(inst["psi"], inst["obs"], inst["targets"], 2,
                                                     inst["opts"])
            oracle = [qcrd.solver.blahut_arimoto(inst["p"], inst["costs"], t) for t in inst["targets"]]
            out.append((points, oracle))
        return out

    def check(self, ctx: dict, result) -> tuple[list[str], dict, str]:
        fails, excess, values = [], -math.inf, []
        for inst, (points, oracle) in zip(ctx["instances"], result):
            for target, point, ba, ref in zip(inst["targets"], points, oracle, inst["reference"]):
                where = f"d={inst['psi'].reference_dim} D={target:.6g}"
                if ba != ref:
                    fails.append(f"{where}: Blahut-Arimoto {ba!r} != set-up reference {ref!r}")
                if point is None or point.povm is None or ref is None:
                    fails.append(f"{where}: no witness")
                    continue
                values += [point.rate, point.distortion, ba]
                excess = max(excess, point.rate - ref)
                if abs(point.rate - ref) > 1e-3:
                    fails.append(f"{where}: |rate - BA| = {abs(point.rate - ref):.3g}")
                if qcrd.distortion(inst["psi"], point.povm, inst["obs"]) > target + 1e-6:
                    fails.append(f"{where}: witness distortion above target")
                mi = qcrd.mutual_information_cq(qcrd.induced_cq_state(inst["psi"], point.povm))
                if abs(mi - point.rate) > 1e-9:
                    fails.append(f"{where}: I(X;R) of witness {mi!r} != rate {point.rate!r}")
        extra = {"solver.oracle_excess_bits.max": excess if values else 0.0}
        return fails, extra, _digest(np.array(values).tobytes())


class Qsi:
    name = "qsi"

    def setup(self, seed: int, workdir: str) -> dict:
        spec, d_zero, d_best = _qsi_instance()
        targets = [d_best + f * (d_zero - d_best) for f in (1 / 3, 2 / 3)]
        path = os.path.join(workdir, "qsi.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, solver=QSI_SOLVER), fh)
        return {"seed": seed, "items": len(targets), "spec": path,
                "grid": ",".join(repr(t) for t in targets),
                "csv": os.path.join(workdir, "qsi.csv")}

    def operation(self, ctx: dict):
        return qcrd.cli.main(["qsi-curve", "--spec", ctx["spec"], "--grid", ctx["grid"],
                              "--out-csv", ctx["csv"]])

    def check(self, ctx: dict, code) -> tuple[list[str], dict, str]:
        csv = _read(ctx["csv"])
        fails = [] if code == 0 else [f"exit code {code}"]
        rows = _csv_rows(ctx["csv"])[1:]
        if len(rows) != ctx["items"] or any(m != "descent" for _, _, m in rows):
            fails.append(f"rows {rows!r}: expected {ctx['items']} descent rows")
        rates = [float(r) for _, r, m in rows if m == "descent"]
        if any(not 0.0 <= r <= 1.0 for r in rates):
            fails.append(f"rates outside [0, 1] bit: {rates!r}")
        if not _non_increasing(rates):
            fails.append("rates increase")
        return fails, {"cli.out_bytes": len(csv)}, _digest(csv)


def _qsi_instance():
    """First instance from the generator that a random POVM can improve.

    The zero-rate value is the best single-identity POVM's distortion; an
    instance is kept only when one of ``QSI_WITNESS_DRAWS`` random POVMs
    lowers the distortion below it, so targets strictly between the two lie
    on a real curve rather than on its flat zero-rate part.
    """
    rng = np.random.default_rng(QSI_SEED)
    for attempt in range(100):
        joint = _random_density(rng, 4)
        costs = rng.uniform(0.1, 1.5, size=(4, 2))
        for z in range(4):
            costs[z, z % 2] = 0.0
        spec = {"schema": 1, "side_info": {"matrix": [[[v.real, v.imag] for v in row]
                                                      for row in joint.mat], "dims": [2, 2]},
                "observable": {"kind": "classical-cost", "costs": costs.tolist()}}
        psi, delta, k = qcrd.parse_problem(spec).build_qsi()
        eye = np.eye(2)
        d_zero = min(qcrd.distortion_qsi(psi, qcrd.Povm(tuple(eye * (x == y) for y in range(k))), delta)
                     for x in range(k))
        d_best = min(qcrd.distortion_qsi(psi, qcrd.sample_random_povm(2, k, (QSI_SEED, attempt, j)), delta)
                     for j in range(QSI_WITNESS_DRAWS))
        if d_best < d_zero:
            return spec, d_zero, d_best
    raise RuntimeError("no qsi instance with a POVM below the zero-rate distortion")


WORKLOADS = {w.name: w for w in (Sweep(), Curve(), Oracle(), Qsi())}
