"""Check that the host-speed correction keeps a real speed difference.

    python3 perfbench/checkcorrection.py            # about 2 minutes

Run from the repository root.  ``hostspeed`` scales each timed phase by how
slowly a reference probe ran inside it.  If the probe's speed depended on
the program under test (say, on how much of the cache the program leaves
it), the correction would shrink or inflate real differences between two
versions of the program.  This script times the two code paths whose memory
behaviour differs most, ``device_gc`` (scalar objects and dicts) and
``device_gc_vector`` (numpy arrays), on identical inputs, interleaved in
alternating order so host drift falls on both alike.  It prints each pair's
raw and corrected speed ratio and their medians.  With an unbiased
correction the two medians agree, and the median slowdowns of the two
workloads agree too.  Exits 1 when the medians of the ratios differ by more
than :data:`TOLERANCE`, 0 otherwise.
"""

from __future__ import annotations

import gc
import statistics
import sys
from typing import Dict, List

import run

#: Interleaved scalar/vector pairs timed.
PAIRS = 12
#: Largest accepted gap between the median corrected and raw ratios, as a
#: share of the raw one: a fifth of the tightest host-time bound (0.25).
TOLERANCE = 0.05


def main() -> int:
    run.pin_thread_pools()
    run.import_program()
    import hostspeed
    from workloads import WORKLOADS, no_span

    pair = (WORKLOADS["device_gc"], WORKLOADS["device_gc_vector"])
    probe = hostspeed.Probe()
    raw: List[float] = []
    corrected: List[float] = []
    slowdowns: Dict[str, List[float]] = {workload.name: [] for workload in pair}
    for index in range(PAIRS):
        windows = {}
        for workload in pair if index % 2 == 0 else pair[::-1]:
            prepared = workload.setup(run.DEFAULT_SEED)
            gc.collect()
            with hostspeed.window(probe) as timed:
                workload.run(prepared, no_span)
            windows[workload.name] = timed
            slowdowns[workload.name].append(timed.slowdown)
            del prepared
        scalar, vector = windows["device_gc"], windows["device_gc_vector"]
        raw.append(scalar.work_s / vector.work_s)
        corrected.append(scalar.corrected_s / vector.corrected_s)
        print(
            f"pair {index:2d}: scalar/vector raw {raw[-1]:.3f} corrected {corrected[-1]:.3f}"
            f"  slowdown scalar {scalar.slowdown:.3f} vector {vector.slowdown:.3f}",
            flush=True,
        )
    raw_median = statistics.median(raw)
    corrected_median = statistics.median(corrected)
    bias = corrected_median / raw_median - 1.0
    print(f"median ratio: raw {raw_median:.4f} corrected {corrected_median:.4f} ({bias:+.2%})")
    for name, values in slowdowns.items():
        print(f"median slowdown {name}: {statistics.median(values):.4f}")
    if abs(bias) > TOLERANCE:
        print(f"FAIL: corrected ratio differs from raw by more than {TOLERANCE:.0%}")
        return 1
    print(f"ok: corrected ratio within {TOLERANCE:.0%} of raw")
    return 0


if __name__ == "__main__":
    sys.exit(main())
