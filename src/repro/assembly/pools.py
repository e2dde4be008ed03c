"""Building lane pools from probed chips.

Bridges the characterization harness to the assembly study: each lane is one
chip; its pool holds the measured blocks the assembler may group.  Mirrors
the paper's setup of four chips contributing 400 blocks each per P/E epoch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.assembly.base import LanePool
from repro.characterization.prober import ProbePlan, Prober
from repro.nand.chip import FlashChip


def build_lane_pools(
    chips: Sequence[FlashChip],
    blocks: Sequence[int],
    *,
    planes: Sequence[int] = (0,),
    target_pe: Optional[int] = None,
) -> List[LanePool]:
    """Probe ``blocks`` on each chip (one lane per chip) and pool the results.

    Blocks :meth:`Prober.probe_blocks` skips (bad, worn out, failed) leave pools
    slightly uneven; assemblers consume ``min(len(pool))`` superblocks.
    """
    if len(chips) < 2:
        raise ValueError("need at least two chips (lanes)")
    plan = ProbePlan(planes=planes, blocks=blocks)
    return [
        LanePool(lane=lane, blocks=Prober(chip).probe_blocks(plan, target_pe=target_pe))
        for lane, chip in enumerate(chips)
    ]
