"""qcrd benchmark: one workload per run, closed loop, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

One caller in one process repeats the workload's operation, the next one
starting when the previous one has been checked, until the next would end
after ``--seconds``; at least one operation runs (two when traced).  With
``--trace 0`` nothing is wrapped and the end-to-end metrics of
``BENCHMARK.json`` are reported: medians over the operations of the run.
With ``--trace 1`` the operations alternate untraced and traced, the
per-layer metrics are medians over the traced ones, and every traced
operation's output must match the untraced one byte for byte.  The last
line of standard output is the JSON result; a run record and, when traced,
the spans go to ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 3
#: values of the metrics a workload reports itself, when it does not use that layer
UNUSED_LAYER = {"cli.out_bytes": 0, "solver.oracle_excess_bits.max": 0.0}
THREAD_ENV = ("QCRD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "OPENBLAS_MAIN_FREE", "GOTO_NUM_THREADS")


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _machine(thread_env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version,
        "numpy": np.__version__,
        "numpy_config": blas,
        "thread_env": thread_env,
    }


def _import_seconds() -> float:
    """Time to import numpy, qcrd and the workloads in a fresh interpreter."""
    probe = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
             "import workloads; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe, str(HERE), str(ROOT / "src")],
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, loop and check one workload in this process; returns the run record."""
    load_start = _loadavg()
    thread_env = {k: os.environ.get(k) for k in THREAD_ENV}
    os.environ.pop("QCRD_THREADS", None)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    # import time as a user's fresh process pays it, measured in children
    # because this process can import only once
    import_runs = [_import_seconds() for _ in range(SETUP_REPEATS)]
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup(seed, str(WORK))
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops, spans_per_op = [], []
    first_digest = None
    loop_start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            op = {"traced": traced, "failures": []}
            if tracer is not None:
                tracer.active = traced
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = workload.operation(ctx)
            except Exception as exc:  # a broken operation is a failed one, not a crash
                result = None
                op["failures"].append(f"operation raised {exc!r}")
            op["wall_s"] = time.perf_counter() - t0
            op["cpu_s"] = time.process_time() - c0
            if tracer is not None:
                tracer.active = False
                if traced:
                    spans_per_op.append(tracer.take())
            if not ops:
                # a CLI user runs one operation per process; a second one in the
                # same process raised sweep's peak by 3%, which would tie the
                # figure to how many operations fit the run
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not op["failures"]:
                try:
                    fails, op["extra"], op["digest"] = workload.check(ctx, result)
                except Exception as exc:
                    fails = [f"check raised {exc!r}"]
                op["failures"] += fails
                first_digest = first_digest or op.get("digest")
                if op.get("digest") != first_digest:
                    op["failures"].append("output differs from the run's first operation")
            ops.append(op)
            elapsed = time.perf_counter() - loop_start
            last = time.perf_counter() - t0
            if len(ops) >= (2 if tracer else 1) and elapsed + last > seconds:
                break
            del result
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(bool(op["failures"]) for op in ops)
    untraced = [op for op in ops if not op["traced"]]
    metrics = {
        "setup_s": statistics.median(import_runs) + statistics.median(setup_times),
        "wall_s": statistics.median(op["wall_s"] for op in untraced),
        "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if tracer is not None:
        traced_ops = [op for op in ops if op["traced"]]
        per_op = []
        for op, spans in zip(traced_ops, spans_per_op):
            layer = tracing.layer_metrics(spans, tracer.present)
            layer.update(UNUSED_LAYER, **op.get("extra", {}))
            per_op.append(layer)
        for key in per_op[0]:
            values = [m.get(key) for m in per_op]
            metrics[key] = None if None in values else statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced_ops)
                                       - metrics["wall_s"])
        tracer.write(WORK / f"spans-{name}.csv", spans_per_op)

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "items": ctx["items"], "attempted": len(ops), "failed": failed,
        "fail_ratio": failed / len(ops), "import_runs_s": import_runs, "setup_runs_s": setup_times,
        "operations": ops, "metrics": metrics,
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "machine": _machine(thread_env),
    }


def _manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _result(record: dict, manifest: dict) -> dict:
    """The result line: exactly the manifest's metrics for this mode."""
    wanted = manifest["per_layer" if record["trace"] else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        raise SystemExit(f"benchmark computes no value for {missing}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def _print_metrics(name: str, record: dict, result: dict) -> None:
    for key, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:7s} {key:36s} {shown:>14s} {metric['unit']}")
    print(f"{name:7s} {'fail_ratio':36s} {record['fail_ratio']:>14.6g} 1 "
          f"({record['failed']} of {record['attempted']} operations, {record['items']} items each)")
    for op in record["operations"]:
        for failure in op["failures"]:
            print(f"{name:7s} FAILED: {failure}")


def _run_all(args, manifest) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    results, code = {}, 0
    for workload in manifest["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        results[workload["name"]] = json.loads(lines[-1])
        code |= not results[workload["name"]]["correct"]
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the tracer and that tracing leaves every output unchanged")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcrd" / "__init__.py").is_file():
        print(f"error: no qcrd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = _manifest()
    if args.self_test:
        import selftest

        return selftest.main(manifest)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload == "all":
        return _run_all(args, manifest)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _result(record, manifest)
    with open(WORK / f"record-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    _print_metrics(args.workload, record, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
