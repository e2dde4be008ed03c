"""Low-overhead scoped wall-clock profiler for the simulator's own cost.

``repro.perf`` is the *only* package allowed to read the host clock
(``time.perf_counter``) — DET001/OBS001 fence every other ``repro.*``
module off from it, and the deep linter treats values returned by this
layer as sanctioned telemetry rather than nondeterminism taint.  The
contract in exchange: profiling must never perturb simulation results.
A profiler only ever *reads* the clock and mutates its own node tree; it
never draws from an RNG, touches simulator state, or reorders events, so
traces are byte-identical with profiling on or off (asserted in
``tests/test_perf_profiler.py``).

Instrumented layers call :func:`perf_scope` at phase boundaries::

    with perf_scope("ftl.write"):
        ...

With no profiler activated (the default), ``perf_scope`` returns a shared
no-op context manager — the disabled cost is one global read and an empty
``with`` block.  Activating is explicitly scoped::

    profiler = Profiler()
    with activate(profiler):
        run_workload()
    print(render_profile(profiler))

Scope names are dotted ``layer.phase`` strings (``nand.program``,
``ftl.gc``, ``sweep.cell``); the first component keys the per-layer
attribution in :func:`repro.perf.report.layer_shares`.
"""

from __future__ import annotations

from time import perf_counter
from types import TracebackType
from typing import Callable, ContextManager, Dict, List, Optional, Type, TypeVar

F = TypeVar("F", bound=Callable[..., object])


class ProfileNode:
    """One scope in the hierarchical profile tree."""

    __slots__ = ("name", "calls", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    @property
    def self_s(self) -> float:
        """Time spent in this scope minus its recorded children."""
        return max(0.0, self.total_s - sum(c.total_s for c in self.children.values()))

    def __repr__(self) -> str:
        return f"ProfileNode({self.name}, calls={self.calls}, total={self.total_s:.6f}s)"


class _NullScope:
    """The disabled scope: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


NULL_SCOPE = _NullScope()


class _Scope:
    """One live timed scope; pushes onto its profiler's stack on enter."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Scope":
        self._profiler._push(self._name)
        self._start = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._profiler._pop(perf_counter() - self._start)
        return None


class Profiler:
    """Attributes host wall time and op counts to a tree of named scopes.

    Not thread-safe by design: the simulator is single-threaded and each
    sweep worker process owns its own module state, so a plain stack
    suffices and costs nothing to synchronize.
    """

    __slots__ = ("root", "_stack")

    def __init__(self, root_name: str = "run") -> None:
        self.root = ProfileNode(root_name)
        self._stack: List[ProfileNode] = [self.root]

    def scope(self, name: str) -> _Scope:
        """A context manager timing one entry of ``name`` under the cursor."""
        return _Scope(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a scope's op count without timing it (zero-duration calls)."""
        node = self._stack[-1].child(name)
        node.calls += amount

    def _push(self, name: str) -> None:
        node = self._stack[-1].child(name)
        node.calls += 1
        self._stack.append(node)

    def _pop(self, elapsed_s: float) -> None:
        node = self._stack.pop()
        node.total_s += elapsed_s
        if not self._stack:  # defensive: never pop the root off
            self._stack.append(self.root)

    @property
    def total_s(self) -> float:
        """Wall time recorded across the root's direct children."""
        return sum(child.total_s for child in self.root.children.values())


#: the currently activated profiler (None = profiling disabled).  Written
#: only by :class:`activate` from harness/CLI code, never from sweep-cell
#: task functions, so worker processes always see the disabled default.
_ACTIVE: Optional[Profiler] = None


def active_profiler() -> Optional[Profiler]:
    """The activated profiler, or ``None`` when profiling is off."""
    return _ACTIVE


class activate:
    """Context manager installing ``profiler`` as the active one."""

    __slots__ = ("_profiler", "_previous")

    def __init__(self, profiler: Profiler) -> None:
        self._profiler = profiler
        self._previous: Optional[Profiler] = None

    def __enter__(self) -> Profiler:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._profiler
        return self._profiler

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        return None


def perf_scope(name: str) -> "ContextManager[object]":
    """The instrumentation hook every layer calls at a phase boundary.

    Returns the active profiler's timed scope, or the shared no-op scope
    when profiling is disabled — cheap enough for per-operation call sites.
    """
    profiler = _ACTIVE
    if profiler is None:
        return NULL_SCOPE
    return profiler.scope(name)


def perf_count(name: str, amount: int = 1) -> None:
    """Count an op under the active profiler's cursor (no-op when off)."""
    profiler = _ACTIVE
    if profiler is not None:
        profiler.count(name, amount)


def profiled(name: str) -> Callable[[F], F]:
    """Decorator form of :func:`perf_scope` for whole-function phases.

    With no profiler active the wrapper calls ``fn`` directly, skipping the
    no-op scope: decorated methods sit on per-write paths.
    """

    def decorate(fn: F) -> F:
        def wrapper(*args: object, **kwargs: object) -> object:
            profiler = _ACTIVE
            if profiler is None:
                return fn(*args, **kwargs)
            with profiler.scope(name):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper  # type: ignore[return-value]

    return decorate


class Stopwatch:
    """A restartable wall-clock interval for harness-side timing.

    The only sanctioned way for ``repro.exp``/``repro.cli`` to measure
    elapsed host time (per-cell sweep timing, ops/sec in ``repro run``).
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = perf_counter()

    def restart(self) -> None:
        self._start = perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return perf_counter() - self._start
