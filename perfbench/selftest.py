"""Self-test of the benchmark: the tracer on a toy module, then one untraced
and one traced operation of every workload with byte-identical outputs."""

from __future__ import annotations

import sys
import time
import types

import run
import tracing


def _toy_tracer() -> list[str]:
    toy = types.ModuleType("perfbench_toy")

    def inner(x):
        time.sleep(0.01)
        return x

    def outer(x):
        time.sleep(0.01)
        return toy.inner(x) + 1

    toy.inner, toy.outer = inner, outer
    sys.modules[toy.__name__] = toy
    layers = {"outer": (((toy.__name__, "outer"),), None),
              "inner": (((toy.__name__, "inner"),), lambda a, k, r: (a[0], 0)),
              "gone": (((toy.__name__, "removed"),), None)}
    tracer = tracing.Tracer(layers)
    tracer.install()
    errors = []
    try:
        toy.outer(5)  # inactive: records nothing
        tracer.active = True
        if toy.outer(5) != 6:
            errors.append("wrapped call changed the result")
        tracer.active = False
        spans = tracer.take()
    finally:
        tracer.uninstall()
        del sys.modules[toy.__name__]
    if toy.outer is not outer or toy.inner is not inner:
        errors.append("uninstall did not restore the names")
    if tracer.present != {"outer", "inner"}:
        errors.append(f"present layers {tracer.present}")
    by_name = {s[2]: s for s in spans}
    if len(spans) != 2 or by_name["inner"][1] != by_name["outer"][0] or by_name["inner"][5] != 5:
        errors.append(f"spans {spans}")
    outer_span, inner_span = by_name["outer"], by_name["inner"]
    self_s = (outer_span[4] - outer_span[3]) - (inner_span[4] - inner_span[3])
    if not 0.005 < self_s < 0.05:
        errors.append(f"outer self time {self_s}")

    absent = set(tracing.LAYERS) - {"solver.blahut_arimoto"}
    layer = tracing.layer_metrics([], absent)
    if layer["solver.blahut_arimoto.calls"] is not None or layer["rng.streams"] != 0:
        errors.append("an absent name must give null and only its own metrics")
    return errors


def main(manifest: dict) -> int:
    failures = [f"tracer: {e}" for e in _toy_tracer()]
    for workload in manifest["workloads"]:
        name = workload["name"]
        record = run.run_workload(name, seed=7, seconds=0, trace=True)
        for op in record["operations"]:
            failures += [f"{name}: {f}" for f in op["failures"]]
        nulls = [k for k, v in record["metrics"].items() if v is None]
        if nulls:
            failures.append(f"{name}: null metrics {nulls}")
        print(f"{name}: {record['attempted']} operations, traced output identical: "
              f"{record['failed'] == 0}", flush=True)
    for failure in failures:
        print("FAILED:", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0
