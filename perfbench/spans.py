"""Outside-in span tracing for the benchmark's traced run.

:class:`SpanTracer` wraps public functions of each ``repro`` layer by
patching class and module attributes from outside the program, so nothing
under ``src/`` changes, and :meth:`SpanTracer.uninstall` puts the originals
back.  Hot functions run ~10^5 times a second, far too often to keep a
record per call, so each span name keeps running aggregates in memory:

* ``calls`` — how many times it ran (repeats exactly for a fixed seed);
* ``self_s`` — duration minus the time covered by its child spans;
* ``inclusive_s`` — duration of the outermost call of that name only, so a
  name that recurses (``ftl.write`` from GC) is not counted twice.

Self time spent in a span that had children is "unattributed": the tracer
cannot say which part of that span's body it was.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (module, attribute path, span name).  Several points may share a name.
LAYER_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.exp", "build_stack", "exp.build"),
    ("repro.exp", "build_fleet", "exp.build"),
    ("repro.exp.build", "Stack.ssd", "exp.build"),
    ("repro.exp.build", "Stack.requests", "workloads.requests"),
    ("repro.fleet", "fleet_workload", "workloads.requests"),
    # VectorSsd inherits submit: patching the subclass first wraps the
    # original and shadows the ssd.submit wrapper installed next, so
    # vector-engine submits count as kernels.submit only.
    ("repro.kernels.engine", "VectorSsd.submit", "kernels.submit"),
    ("repro.ssd.device", "Ssd.submit", "ssd.submit"),
    ("repro.ftl.ftl", "Ftl.write", "ftl.write"),
    ("repro.ftl.ftl", "Ftl.read", "ftl.read"),
    ("repro.ftl.allocator", "BlockAllocator.min_free", "ftl.allocator.min_free"),
    ("repro.ftl.mapping", "PageMapper.map_page", "ftl.mapper.map_page"),
    ("repro.nand.chip", "FlashChip.program_wordline", "nand.program_wordline"),
    ("repro.nand.chip", "FlashChip.read_page", "nand.read_page"),
    ("repro.nand.chip", "FlashChip.erase_block", "nand.erase_block"),
    ("repro.nand.chip", "FlashChip.program_block", "nand.program_block"),
    ("repro.core.assembler", "OnDemandAssembler.assemble", "core.assemble"),
    ("repro.core.gathering", "GatheringUnit.report", "core.gather_report"),
    ("repro.policy.static", "StaticAllocationPolicy.place", "policy.place"),
    ("repro.policy.base", "AssemblyPolicy.choose_member", "policy.assembly_choose"),
    ("repro.policy.static", "MinValidGcPolicy.pick", "policy.gc_pick"),
    ("repro.kernels.engine", "VectorFtl.write", "kernels.write"),
    ("repro.kernels.engine", "VectorFtl.flush", "kernels.flush"),
    ("repro.fleet.engine", "FleetSim.run", "fleet.run"),
    ("repro.exp.build", "build_lane_pools", "assembly.build_lane_pools"),
)


class SpanStats:
    """Running aggregates of one span name."""

    __slots__ = ("calls", "self_s", "inclusive_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0


class SpanTracer:
    """Per-name span aggregates, fed by patched-in wrappers and :meth:`span`."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        #: self time of spans that had at least one child span
        self.unattributed_s = 0.0
        # open spans, innermost last: [child seconds, child count]
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> List[float]:
        frame = [0.0, 0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def _exit(self, name: str, frame: List[float], elapsed: float) -> None:
        self._stack.pop()
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        own = elapsed - frame[0]
        stats.calls += 1
        stats.self_s += own
        if frame[1]:
            self.unattributed_s += own
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            stats.inclusive_s += elapsed
        if self._stack:
            parent = self._stack[-1]
            parent[0] += elapsed
            parent[1] += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself around a block of calls."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, time.perf_counter() - start)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                leave(name, frame, clock() - start)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer point; :meth:`uninstall` restores the originals."""
        for module_name, path, name in LAYER_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._patch(owner, attr, name)

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        current = getattr(owner, attr)
        if isinstance(current, property):
            replacement: Any = property(self.wrap(name, current.fget))
        else:
            replacement = self.wrap(name, current)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        setattr(owner, attr, replacement)
        if inherited:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, current))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
