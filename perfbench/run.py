"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload device_gc --seed 2024 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run repeats whole iterations (set-up, timed phase, checks)
for ``--seconds`` and reports the end-to-end metrics as medians over them.
With ``--trace 1`` it runs untraced iterations for half the time, then one
traced iteration, and reports the per-layer metrics of the traced one.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed later claims are made on, and the one held out from tuning.
DEFAULT_SEED = 2024
HELD_OUT_SEED = 7

#: Span names reported as ``<name>.calls`` and ``<name>.self_s``.
CALLS_AND_SELF = (
    "ssd.submit",
    "ftl.write",
    "ftl.read",
    "ftl.allocator.min_free",
    "ftl.mapper.map_page",
    "nand.program_wordline",
    "nand.read_page",
    "nand.erase_block",
    "nand.program_block",
    "core.assemble",
    "core.gather_report",
    "policy.place",
    "kernels.submit",
    "kernels.write",
    "kernels.flush",
)
#: Span names reported as ``<name>.calls`` only.
CALLS_ONLY = ("policy.assembly_choose", "policy.gc_pick")
#: Simulated per-layer counters taken from the workload's checks.
LAYER_COUNTS = (
    "ftl.gc_runs",
    "ftl.gc_pages_written",
    "fleet.hedges",
    "fleet.retries",
    "fleet.rejections",
)
LAYER_FRACTIONS = ("ssd.die_util", "ssd.channel_util")


def pin_thread_pools() -> None:
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    # modules the program imports lazily, so their import stays out of setup_s
    import repro.kernels.engine  # noqa: F401
    import repro.kernels.workload  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401


@dataclass
class Iteration:
    """One iteration's host times: drift-corrected (see ``hostspeed``) and raw."""

    setup_s: float
    timed_s: float
    work_s: float
    slowdown: float
    checked: Any
    traced: bool = False
    unattributed_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return self.checked.ops / self.timed_s

    @property
    def raw_ops_per_s(self) -> float:
        return self.checked.ops / self.work_s


def iterate(
    workload: Any, seed: int, probe: Any = None, tracer: Any = None
) -> List[Iteration]:
    """Set up, run the timed phase ``timed_reps`` times, check each run.

    The ``setup_reps`` set-ups are timed together as one sample.  Untraced
    iterations interleave the host-speed ``probe``; a traced one passes
    none, so no probe time lands in a span, and runs each phase once.
    """
    import hostspeed
    from workloads import no_span

    spans = no_span if tracer is None else tracer.span
    setup_reps = 1 if tracer is not None else workload.setup_reps
    timed_reps = 1 if tracer is not None else workload.timed_reps
    setup_s = 0.0
    prepared = None
    for _ in range(setup_reps):
        prepared = None
        gc.collect()
        with hostspeed.window(probe) as setup:
            prepared = workload.setup(seed)
        setup_s += setup.corrected_s
    samples = []
    for _ in range(timed_reps):
        gc.collect()
        unattributed = tracer.unattributed_s if tracer is not None else 0.0
        with hostspeed.window(probe) as timed:
            with spans("bench.timed"):
                result = workload.run(prepared, spans)
        if tracer is not None:
            unattributed = tracer.unattributed_s - unattributed
        samples.append(
            Iteration(
                setup_s / setup_reps,
                timed.corrected_s,
                timed.work_s,
                timed.slowdown,
                workload.check(prepared, result),
                tracer is not None,
                unattributed,
            )
        )
    return samples


def tally(
    sim_traced: Any, iterations: List[Iteration]
) -> Tuple[bool, int, int, List[str]]:
    """Correctness over a run: checks, and sim figures equal on every iteration."""
    checks = [it.checked for it in iterations]
    checks += [sim_traced] if sim_traced is not None else []
    reference = checks[0].figures()
    problems: List[str] = []
    attempted = failed = 0
    for checked in checks:
        attempted += checked.ops
        problems += checked.problems
        if checked.figures() == reference:
            failed += checked.failed
        else:
            problems.append("sim figures differ between runs of one seed")
            failed += checked.ops
    return not problems and failed == 0, attempted, failed, problems


def end_to_end(iterations: List[Iteration]) -> Dict[str, Tuple[float, str]]:
    """Host figures as medians over the run's iterations; sim figures are exact."""
    checked = iterations[0].checked
    return {
        "setup_s": (statistics.median(it.setup_s for it in iterations), "s"),
        "ops_per_s": (statistics.median(it.ops_per_s for it in iterations), "1/s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "sim_extra_program_us": (checked.sim["sim_extra_program_us"], "us"),
    }


def per_layer(
    tracer: Any, traced: Iteration, untraced: List[Iteration], sim_traced: Any
) -> Dict[str, Tuple[float, str]]:
    from workloads import ASSEMBLY_METHODS, metric_safe

    layer = traced.checked.layer
    metrics: Dict[str, Tuple[float, str]] = {
        "exp.build_s": (tracer.get("exp.build").inclusive_s, "s"),
        "workloads.requests_s": (tracer.get("workloads.requests").inclusive_s, "s"),
    }
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (tracer.get(name).calls, "count")
        metrics[f"{name}.self_s"] = (tracer.get(name).self_s, "s")
    for name in CALLS_ONLY:
        metrics[f"{name}.calls"] = (tracer.get(name).calls, "count")
    for name in LAYER_COUNTS:
        metrics[name] = (layer.get(name, 0), "count")
    for name in LAYER_FRACTIONS:
        metrics[name] = (layer.get(name, 0.0), "fraction")
    requests = layer.get("fleet.requests", 0)
    metrics["fleet.run.self_s"] = (tracer.get("fleet.run").self_s, "s")
    metrics["fleet.submits_per_request"] = (
        tracer.get("ssd.submit").calls / requests if requests else 0.0,
        "ratio",
    )
    metrics["fleet.hedge_win_ratio"] = (layer.get("fleet.hedge_win_ratio", 0.0), "ratio")
    captured = sim_traced.captured if sim_traced is not None else {}
    metrics["fleet.read_p99_us"] = (captured.get("sim_read_p99_us", 0.0), "us")
    metrics["assembly.build_lane_pools_s"] = (
        tracer.get("assembly.build_lane_pools").inclusive_s,
        "s",
    )
    for method in ASSEMBLY_METHODS:
        span = f"assembly.evaluate.{metric_safe(method)}"
        metrics[f"assembly.evaluate_s.{metric_safe(method)}"] = (
            tracer.get(span).inclusive_s,
            "s",
        )
    # the traced iteration runs without the probe, so compare raw speeds
    baseline = statistics.median(it.raw_ops_per_s for it in untraced)
    metrics["trace.overhead_frac"] = (1.0 - traced.raw_ops_per_s / baseline, "fraction")
    metrics["trace.unattributed_frac"] = (traced.unattributed_s / traced.work_s, "fraction")
    # what the host-speed correction starts from, over the untraced iterations
    metrics["host.raw_ops_per_s"] = (baseline, "1/s")
    metrics["host.slowdown"] = (statistics.median(it.slowdown for it in untraced), "ratio")
    return metrics


def print_details(
    name: str, seed: int, iterations: List[Iteration], sim_traced: Any
) -> None:
    """Human-readable lines: every figure with its unit and sample count."""
    first = iterations[0].checked
    print(f"# {name} seed={seed} iterations={len(iterations)} ops/iteration={first.ops}")
    for it in iterations:
        traced = "  (traced)" if it.traced else ""
        print(
            f"#   setup {it.setup_s:.4f} s  timed {it.timed_s:.4f} s"
            f"  {it.ops_per_s:.1f} ops/s  (raw {it.work_s:.4f} s,"
            f" host slowdown {it.slowdown:.3f}){traced}"
        )
    details = dict(first.detail)
    if sim_traced is not None:
        details.update(sim_traced.captured)
    for key in sorted(details):
        print(f"# {key} = {details[key]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pin_thread_pools()
    import_program()
    from hostspeed import Probe
    from spans import SpanTracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    probe = Probe()
    # a traced run leaves half its time for the slower traced iteration
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    iterations: List[Iteration] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        iterations += iterate(workload, args.seed, probe)
        now = time.perf_counter()
        # stop when another iteration would overrun the run's length
        if now - started + (now - begun) > untraced_s:
            break
    traced: Optional[Iteration] = None
    sim_traced = None
    if args.trace:
        sim_traced = workload.sim_traced(args.seed)
        tracer = SpanTracer()
        with tracer.installed():
            [traced] = iterate(workload, args.seed, tracer=tracer)
        metrics = per_layer(tracer, traced, iterations, sim_traced)
    else:
        metrics = end_to_end(iterations)

    runs = iterations + ([traced] if traced is not None else [])
    correct, attempted, failed, problems = tally(sim_traced, runs)
    print_details(workload.name, args.seed, runs, sim_traced)
    print(
        f"# host: median raw {statistics.median(it.raw_ops_per_s for it in iterations)}"
        f" ops/s, median slowdown {statistics.median(it.slowdown for it in iterations)}"
        " (gated host figures are corrected by it; see hostspeed.py)"
    )
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# error_rate = {failed / attempted} ({failed} failed / {attempted} attempted)")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
