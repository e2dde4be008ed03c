"""Characterization prober: measures chips through the normal chip API.

This is the software equivalent of the paper's tester (SM2259XT controllers
plus chamber): it erases a block, programs every word-line, and records the
reported latencies.  It never peeks at the generative model — everything it
learns comes back from :class:`~repro.nand.chip.FlashChip` operations, the
same interface an FTL uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.characterization.datasets import BlockMeasurement, MeasurementSet
from repro.nand.chip import FlashChip
from repro.nand.errors import BadBlockError


@dataclass(frozen=True)
class ProbePlan:
    """What to probe: planes and a block range on each."""

    planes: Sequence[int]
    blocks: Sequence[int]


class Prober:
    """Collects block erase / word-line program latencies from one chip."""

    def __init__(self, chip: FlashChip) -> None:
        self._chip = chip

    @property
    def chip(self) -> FlashChip:
        return self._chip

    def probe_block(self, plane: int, block: int) -> BlockMeasurement:
        """Erase + fully program one block, recording every latency.

        A block whose erase or program reports ``FAIL`` raises
        :class:`~repro.nand.errors.BadBlockError`: it yields no measurement.
        """
        erase = self._chip.erase_block(plane, block)
        if not erase.ok:
            raise BadBlockError(f"erase failed on p{plane}/b{block}")
        matrix = self._chip.program_block(plane, block)
        if matrix is None:
            raise BadBlockError(f"program failed on p{plane}/b{block}")
        return BlockMeasurement(
            chip_id=self._chip.chip_id,
            plane=plane,
            block=block,
            pe_cycles=self._chip.pe_cycles(plane, block),
            wl_latencies_us=matrix,
            erase_latency_us=erase.latency_us,
        )

    def probe_blocks(
        self,
        plan: ProbePlan,
        *,
        target_pe: Optional[int] = None,
        skip_bad: bool = True,
    ) -> List[BlockMeasurement]:
        """Probe a plan's worth of blocks in order, optionally at a P/E epoch.

        The one skip rule of every probing loop: a block that is bad, wears
        out or fails an erase or program is skipped (or raises when
        ``skip_bad`` is off), so pools may end up slightly uneven.
        """
        results: List[BlockMeasurement] = []
        for plane in plan.planes:
            for block in plan.blocks:
                try:
                    if self._chip.is_bad(plane, block):
                        raise BadBlockError(f"bad block p{plane}/b{block}")
                    if target_pe is not None:
                        results.append(self.probe_block_at_pe(plane, block, target_pe))
                    else:
                        results.append(self.probe_block(plane, block))
                except BadBlockError:
                    if not skip_bad:
                        raise
        return results

    def bring_to_pe(self, plane: int, block: int, target_pe: int) -> None:
        """Stress-cycle a block up to ``target_pe`` erase cycles."""
        current = self._chip.pe_cycles(plane, block)
        if target_pe < current:
            raise ValueError(
                f"block already at {current} P/E cycles, cannot go back to {target_pe}"
            )
        if target_pe > current:
            self._chip.stress_block(plane, block, target_pe - current)

    def probe_block_at_pe(self, plane: int, block: int, target_pe: int) -> BlockMeasurement:
        """Wear the block to ``target_pe`` cycles (at least), then measure."""
        self.bring_to_pe(plane, block, target_pe)
        return self.probe_block(plane, block)


def probe_testbed(
    chips: Iterable[FlashChip],
    planes: Sequence[int],
    blocks: Sequence[int],
    *,
    target_pe: Optional[int] = None,
) -> MeasurementSet:
    """Probe the same plan on every chip; returns the combined measurement set.

    Mirrors the paper's methodology of collecting the same block ranges on
    each die of the testbed (Table IV), optionally at a given P/E epoch.
    """
    measurements = MeasurementSet()
    plan = ProbePlan(planes=planes, blocks=blocks)
    for chip in chips:
        for measurement in Prober(chip).probe_blocks(plan, target_pe=target_pe):
            measurements.add(measurement)
    return measurements
