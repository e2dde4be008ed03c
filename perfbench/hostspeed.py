"""Correct host timings for the drift of a shared host's speed.

On a shared host the speed of one CPU drifts by tens of percent within
seconds, whatever the program does: on the 2-CPU development host a fixed
pure-Python loop ran anywhere between 21 and 38 iterations per 2 s window
over a few minutes, and identical replays of one workload spread by 50%.
No statistic over a run's iterations removes drift that slow.

:func:`window` measures the drift while the work runs.  An interval
timer interrupts the work every :data:`INTERVAL_S` and runs a short, fixed
reference probe in the signal handler, between two bytecodes of whatever
the program is doing.  The probe shares the CPU, the interpreter and the
moment with the work, so it slows down with it.  A window's *work* time is
its wall time minus the probe time, and its *corrected* time scales that by
how much slower than nominal the probes ran::

    corrected_s = work_s * NOMINAL_PROBE_S / mean_probe_s

so a corrected time is the time the work would take on this host at the
speed where one probe takes :data:`NOMINAL_PROBE_S`.  The probe touches no
program state and allocates no object the cyclic garbage collector tracks,
so it neither changes what is simulated nor triggers a collection inside
the program.  Over back-to-back identical iterations of ``fleet_mixed``
this cut the coefficient of variation of the timed phase from 8% to 2.4%.

The probe's working set is a few MiB, like the simulator's maps and object
graphs, so it feels cache and memory contention as the work does; a probe
on a few KiB over-corrected.  Twenty milliseconds of simulator work evict
that working set, so the probe runs cache-cold whatever the program does.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Any, Iterator, Optional

#: How often the probe runs.
INTERVAL_S = 0.02
#: Loop rounds in one probe run.
PROBE_ROUNDS = 500
#: Duration of one probe run (:data:`PROBE_ROUNDS` rounds) that defines
#: nominal host speed: about its median duration inside timed work on the
#: 2-CPU development host (where the work has evicted its working set), so
#: corrected times read like typical ones.  Calibrated for PROBE_ROUNDS.
NOMINAL_PROBE_S = 0.0005


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0.0
        self.hits = 0

    def bump(self, amount: float) -> float:
        self.value = (self.value + amount) % 1e9
        self.hits += 1
        return self.value


class Probe:
    """Fixed interpreter work over a working set of a few MiB.

    Method calls, attribute and dict access and float arithmetic at
    pseudo-random places, the mix the simulator's hot loops are made of.
    Build it before timing starts: building it allocates the working set.
    """

    def __init__(self) -> None:
        self._cells = [_Cell() for _ in range(1 << 14)]
        self._table = dict.fromkeys(range(1 << 16), 0.0)
        self._at = 0

    def run(self) -> None:
        cells, table = self._cells, self._table
        at = self._at
        total = 0.0
        for _ in range(PROBE_ROUNDS):
            # full-period LCG over the 2**16 table slots
            at = (at * 1103515245 + 12345) & 0xFFFF
            total += cells[at & 0x3FFF].bump(at * 0.5)
            table[at] = (table[at] + total) % 1e6
        self._at = at


class Window:
    """One timed interval: wall time, and the probes that ran inside it."""

    __slots__ = ("wall_s", "probe_s", "probes")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.probe_s = 0.0
        self.probes = 0

    @property
    def work_s(self) -> float:
        """Wall time spent on the work itself (probes excluded)."""
        return self.wall_s - self.probe_s

    @property
    def slowdown(self) -> float:
        """Mean probe time over nominal: >1 when the host ran slow."""
        if not self.probes:
            return 1.0
        return self.probe_s / self.probes / NOMINAL_PROBE_S

    @property
    def corrected_s(self) -> float:
        return self.work_s / self.slowdown


@contextlib.contextmanager
def window(probe: Optional[Probe]) -> Iterator[Window]:
    """Time the block inside, running ``probe`` every :data:`INTERVAL_S`.

    Only the main thread may open a window (signal handlers run there), and
    windows do not nest.  With ``probe=None`` nothing interrupts the work
    and the corrected time is the plain wall time.
    """
    timed = Window()
    if probe is None:
        start = time.perf_counter()
        try:
            yield timed
        finally:
            timed.wall_s = time.perf_counter() - start
        return

    def on_timer(signum: int, frame: Any) -> None:
        start = time.perf_counter()
        probe.run()
        timed.probe_s += time.perf_counter() - start
        timed.probes += 1

    previous = signal.signal(signal.SIGALRM, on_timer)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield timed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        timed.wall_s = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
