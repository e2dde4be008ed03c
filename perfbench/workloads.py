"""The four benchmark workloads, driven only through the public ``repro`` API.

Each workload splits one iteration into three phases:

* ``setup(seed)`` — config to first timed op: build the stack or fleet,
  format, generate the requests (assembly_study: probe the pools);
* ``run(prepared)`` — the timed phase, returning the raw result;
* ``check(prepared, result)`` — untimed correctness checks plus the
  simulated (``sim_*``) figures, which repeat exactly for a fixed seed.

Arrivals are an open loop in simulated time: requests carry a fixed
interarrival schedule and any queueing shows up in the ``sim_*`` latencies.
The host side is a single closed loop that feeds one request at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence

import repro.exp as exp
import repro.fleet as fleet
from repro.assembly.evaluate import collect_result
from repro.exp import SimConfig
from repro.fleet import FleetConfig
from repro.obs.tracer import Tracer
from repro.utils.rng import derive_seed
from repro.workloads.model import OpKind
from repro.workloads.replay import Replayer

#: Device geometry shared by device_gc, device_gc_vector and fleet members.
DEVICE_CHIPS = 4
DEVICE_BLOCKS = 48
#: The modelled hardware is a fixed design point: the variation seed its
#: chips are drawn from.  A device or fleet workload's input is its host
#: request stream, drawn from the run's seed; only assembly_study, whose
#: input is the probed block population, draws its chips from the run seed.
DEVICE_SEED = 2024
#: Zipf overwrites after the fill, as a multiple of the logical space.
OVERWRITE_FRACTION = 2.0

FLEET_SHAPE = dict(devices=8, tenants=32, requests_per_tenant=768)

#: Scored on every assembly_study iteration; RANDOM is the paper's baseline.
ASSEMBLY_METHODS = (
    "RANDOM",
    "QSTR-MED(4)",
    "STR-MED(4)",
    "STR-RANK(4)",
    "PWL-RANK(4)",
    "LWL-RANK(4)",
    "PGM-LTN",
    "ERS-LTN",
    "SEQUENTIAL",
)
QSTR_METHOD = "QSTR-MED(4)"


def metric_safe(method: str) -> str:
    """``QSTR-MED(4)`` -> ``QSTR-MED-4``: only metric-name characters."""
    return method.replace("(", "-").replace(")", "")


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of the exact samples (no interpolation)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def mean_of_stats(stats: Sequence[Any]) -> float:
    """Pooled exact mean of several ``LatencyStat`` accumulators."""
    count = sum(stat.count for stat in stats)
    return sum(stat.total for stat in stats) / count if count else 0.0


def utilization(ssds: Sequence[Any]) -> Dict[str, float]:
    """Mean simulated busy fraction of dies and channels over ``ssds``."""
    dies: List[float] = []
    channels: List[float] = []
    for ssd in ssds:
        for name, busy in ssd.utilization().items():
            (dies if name.startswith("die") else channels).append(busy)
    return {
        "ssd.die_util": statistics.fmean(dies),
        "ssd.channel_util": statistics.fmean(channels),
    }


@dataclass
class Checked:
    """What the checks found in one iteration.

    ``sim`` holds the simulated figures reported end to end, ``detail`` the
    ones printed beside them (with their sample counts), and ``layer`` the
    simulated per-layer counters of the traced run.  All of them repeat
    exactly for one seed.  ``captured`` holds figures only a sim-time
    tracer can see, so only the fleet's sim-traced run has them.
    """

    ops: int
    failed: int
    problems: List[str]
    sim: Dict[str, float]
    detail: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    captured: Dict[str, float] = field(default_factory=dict)

    def figures(self) -> Dict[str, float]:
        """The simulated figures that must repeat exactly for one seed."""
        return {**self.sim, **self.detail, **self.layer}


#: ``spans(name)`` opens a benchmark-side span; a no-op when untraced.
SpanFactory = Callable[[str], ContextManager[None]]


def no_span(name: str) -> ContextManager[None]:
    """The untraced :data:`SpanFactory`."""
    return contextlib.nullcontext()


class Workload:
    """Defaults: one set-up and one timed run per iteration, no sim trace."""

    name = ""
    #: set-ups timed together as one sample, so each sample is >= ~0.5 s
    setup_reps = 1
    #: timed runs per set-up, each its own sample; only for a timed phase
    #: that leaves its prepared inputs unchanged
    timed_reps = 1

    def sim_traced(self, seed: int) -> Optional[Checked]:
        """An untimed run with a sim-time tracer, if the workload needs one.

        Only a traced benchmark run makes it, so no end-to-end run carries
        the tracer's events in its memory.
        """
        return None


class DeviceGc(Workload):
    """One device: sequential fill then zipf overwrites, GC-bound."""

    name = "device_gc"
    backend = "scalar"
    setup_reps = 2

    def config(self, seed: int) -> SimConfig:
        config = SimConfig.device(
            seed=DEVICE_SEED, chips=DEVICE_CHIPS, blocks=DEVICE_BLOCKS, backend=self.backend
        )
        workload = dataclasses.replace(
            config.workload,
            overwrite_fraction=OVERWRITE_FRACTION,
            fill_seed=derive_seed(seed, "perfbench", "fill"),
            overwrite_seed=derive_seed(seed, "perfbench", "overwrite"),
        )
        return config.with_(workload=workload)

    def setup(self, seed: int) -> Any:
        stack = exp.build_stack(self.config(seed))
        ssd = stack.ssd
        return ssd, stack.requests()

    def run(self, prepared: Any, spans: SpanFactory) -> Any:
        ssd, requests = prepared
        return Replayer(ssd).replay(requests)

    def check(self, prepared: Any, report: Any) -> Checked:
        ssd, _ = prepared
        ftl = ssd.ftl
        completed = report.completed
        failed = set()
        written = set()
        for index, done in enumerate(completed):
            if done.finish_us < done.start_us:
                failed.add(index)
            if done.request.op is OpKind.WRITE:
                written.update(done.request.lpns())
        problems = []
        if failed:
            problems.append(f"{len(failed)} completions finish before they start")
        missing = {lpn for lpn in written if ftl.mapper.lookup(lpn) is None}
        if missing:
            problems.append(f"{len(missing)} written LPNs are unmapped")
            failed.update(
                index
                for index, done in enumerate(completed)
                if not missing.isdisjoint(done.request.lpns())
            )
        if ftl.mapper.mapped_pages != len(written):
            problems.append(
                f"mapped_pages {ftl.mapper.mapped_pages} != {len(written)} distinct LPNs written"
            )
            failed.update(range(len(completed)))
        writes = [done.latency_us for done in completed if done.request.op is OpKind.WRITE]
        metrics = ftl.metrics
        layer = utilization([ssd])
        layer["ftl.gc_runs"] = metrics.gc_runs
        layer["ftl.gc_pages_written"] = metrics.gc_pages_written
        return Checked(
            ops=len(completed),
            failed=len(failed),
            problems=problems,
            sim={"sim_extra_program_us": metrics.extra_program_us.mean},
            detail={
                "sim_write_p999_us": exact_quantile(writes, 0.999),
                "sim_write_p999_us.samples": len(writes),
                "sim_write_amp": metrics.write_amplification,
            },
            layer=layer,
        )


class DeviceGcVector(DeviceGc):
    """device_gc's config and inputs on the numpy vector engine."""

    name = "device_gc_vector"
    backend = "vector"
    setup_reps = 3


class FleetMixed(Workload):
    """Eight replicated devices serving 32 zipf/mixed tenants, fault-free."""

    name = "fleet_mixed"

    def config(self) -> SimConfig:
        device = SimConfig.device(seed=DEVICE_SEED, chips=DEVICE_CHIPS, blocks=DEVICE_BLOCKS)
        return device.with_(fleet=FleetConfig(**FLEET_SHAPE))

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> Any:
        sim = exp.build_fleet(self.config(), tracer=tracer)
        return sim, fleet.fleet_workload(sim.fleet, seed, sim.pages_per_tenant)

    def run(self, prepared: Any, spans: SpanFactory) -> Any:
        sim, workload = prepared
        return sim.run(workload)

    def sim_traced(self, seed: int) -> Checked:
        """An untimed run with a sim-time tracer, for the exact read tail.

        The fleet exposes per-request ack latency only through the
        ``fleet_request`` events of a :class:`Tracer`; the tracer draws no
        randomness, so the figures equal those of the untraced runs.
        """
        tracer = Tracer()
        prepared = self.setup(seed, tracer=tracer)
        checked = self.check(prepared, self.run(prepared, no_span))
        reads = [
            event.dur_us
            for event in tracer.events
            if event.name == "fleet_request" and event.args.get("op") == "READ"
        ]
        checked.captured["sim_read_p99_us"] = exact_quantile(reads, 0.99)
        checked.captured["sim_read_p99_us.samples"] = len(reads)
        return checked

    def check(self, prepared: Any, report: Any) -> Checked:
        sim, workload = prepared
        counters = {
            name: report.counter(name)
            for name in (
                "acked", "failed", "deadline_misses", "reads", "writes",
                "hedges", "hedge_wins", "retries", "rejections",
            )
        }
        problems = []
        failed = counters["failed"] + counters["deadline_misses"]
        if counters["failed"]:
            problems.append(f"{counters['failed']} fleet requests failed")
        if counters["deadline_misses"]:
            problems.append(f"{counters['deadline_misses']} deadline misses")
        if counters["acked"] + counters["failed"] != len(workload):
            problems.append(
                f"acked {counters['acked']} + failed {counters['failed']} "
                f"!= {len(workload)} requests"
            )
            failed = len(workload)
        ftls = [dev.ssd.ftl for dev in sim.devices]
        layer = utilization([dev.ssd for dev in sim.devices])
        layer["ftl.gc_runs"] = sum(ftl.metrics.gc_runs for ftl in ftls)
        layer["ftl.gc_pages_written"] = sum(ftl.metrics.gc_pages_written for ftl in ftls)
        layer["fleet.requests"] = len(workload)
        for name in ("hedges", "retries", "rejections"):
            layer[f"fleet.{name}"] = counters[name]
        layer["fleet.hedge_win_ratio"] = (
            counters["hedge_wins"] / counters["hedges"] if counters["hedges"] else 0.0
        )
        return Checked(
            ops=len(workload),
            failed=failed,
            problems=problems,
            sim={
                "sim_extra_program_us": mean_of_stats(
                    [ftl.metrics.extra_program_us for ftl in ftls]
                )
            },
            detail={
                "sim.elapsed_us": report.elapsed_us,
                "sim.reads": counters["reads"],
                "sim.writes": counters["writes"],
                "sim.hedges": counters["hedges"],
            },
            layer=layer,
        )


class AssemblyStudy(Workload):
    """The paper's offline study: assemble and score probed block pools."""

    name = "assembly_study"
    # scoring leaves the pools untouched, and probing them is 2/3 of an
    # iteration: score them three times per set-up for more timed samples
    timed_reps = 3

    def config(self, seed: int) -> SimConfig:
        return SimConfig.testbed(seed=seed, chips=4, pool_blocks=400)

    def setup(self, seed: int) -> Any:
        return exp.build_stack(self.config(seed)).pools()

    def run(self, pools: Any, spans: SpanFactory) -> Any:
        scored = {}
        for method in ASSEMBLY_METHODS:
            with spans(f"assembly.evaluate.{metric_safe(method)}"):
                assembler = exp.make_assembler(method)
                superblocks = assembler.assemble(pools)
                scored[method] = (superblocks, collect_result(method, superblocks, assembler))
        return scored

    def check(self, pools: Any, scored: Any) -> Checked:
        problems = []
        failed = 0
        ops = 0
        for method, (superblocks, _) in scored.items():
            ops += len(superblocks)
            seen = set()
            bad = 0
            for superblock in superblocks:
                keys = [member.key() for member in superblock.members]
                lanes_ok = sorted(superblock.lanes) == list(range(len(pools)))
                reused = any(key in seen for key in keys)
                seen.update(keys)
                bad += not lanes_ok or reused
            if bad:
                problems.append(f"{method}: {bad} superblocks miss a lane or reuse a block")
                failed += bad
        qstr = scored[QSTR_METHOD][1]
        random = scored["RANDOM"][1]
        if not qstr.mean_extra_program_us < random.mean_extra_program_us:
            problems.append(f"{QSTR_METHOD} does not improve on RANDOM")
            failed += qstr.superblock_count
        return Checked(
            ops=ops,
            failed=failed,
            problems=problems,
            sim={"sim_extra_program_us": qstr.mean_extra_program_us},
            detail={
                "sim_extra_program_us.samples": qstr.superblock_count,
                "sim.qstr_vs_random_pct": qstr.program_improvement_vs(random),
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (DeviceGc(), DeviceGcVector(), FleetMixed(), AssemblyStudy())
}
