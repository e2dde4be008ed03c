"""Self-test of the benchmark itself: determinism, backends agree, names match.

    python3 perfbench/selftest.py            # about a minute

Run from the repository root.  It checks that

* one seed gives identical simulated figures on every run of each workload;
* device_gc_vector equals device_gc on every simulated figure, on both the
  default and the held-out seed;
* the traced run restores every function it patched;
* the metric names the runs print are exactly those in ``BENCHMARK.json``.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import importlib
import json
import sys
from typing import Any, Dict, List

import run
from hostspeed import Probe


def figures(workload: Any, seed: int) -> Dict[str, float]:
    [it, *_] = run.iterate(workload, seed, Probe())
    if it.checked.problems or it.checked.failed:
        raise AssertionError(f"{workload.name} seed {seed}: {it.checked.problems}")
    return it.checked.figures()


def patched_attributes(points: Any) -> List[Any]:
    found = []
    for module_name, path, _ in points:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        found.append((owner, attr, owner.__dict__.get(attr)))
    return found


def main() -> int:
    run.pin_thread_pools()
    run.import_program()
    from spans import LAYER_POINTS, SpanTracer
    from workloads import WORKLOADS

    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for name, workload in WORKLOADS.items():
        if name == "device_gc_vector":
            continue
        first = figures(workload, run.DEFAULT_SEED)
        again = figures(workload, run.DEFAULT_SEED)
        expect(first == again, f"{name}: seed {run.DEFAULT_SEED} repeats exactly")

    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        scalar = figures(WORKLOADS["device_gc"], seed)
        vector = figures(WORKLOADS["device_gc_vector"], seed)
        expect(scalar == vector, f"device_gc_vector == device_gc on seed {seed}")
        if scalar != vector:
            for key in sorted(scalar):
                if scalar[key] != vector.get(key):
                    print(f"      {key}: scalar {scalar[key]} vector {vector.get(key)}")

    before = patched_attributes(LAYER_POINTS)
    tracer = SpanTracer()
    workload = WORKLOADS["device_gc_vector"]
    [untraced] = run.iterate(workload, run.DEFAULT_SEED, Probe())
    with tracer.installed():
        [traced] = run.iterate(workload, run.DEFAULT_SEED, tracer=tracer)
    expect(patched_attributes(LAYER_POINTS) == before, "uninstall restores every patch")
    expect(
        traced.checked.figures() == untraced.checked.figures(),
        "tracing leaves the simulated figures unchanged",
    )

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for kind, emitted in (
        ("end_to_end", run.end_to_end([untraced])),
        ("per_layer", run.per_layer(tracer, traced, [untraced], None)),
    ):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        names = [(name, unit) for name, (_, unit) in emitted.items()]
        expect(names == declared, f"{kind} names and units match BENCHMARK.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
