"""Superblock lifecycle management.

A managed superblock stripes one physical block per lane.  Pages are
addressed by *slot* in programming order: slot -> (super word-line, lane,
page type), so consecutive slots fill one super word-line across all lanes
before advancing — exactly the MP-command-friendly order (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.assembler import SpeedClass
from repro.core.records import BlockRecord
from repro.nand.geometry import NandGeometry, PageType


class SuperblockStateError(Exception):
    """Operation not valid for the superblock's current state."""


class SbState(Enum):
    OPEN = "open"
    SEALED = "sealed"
    ERASED = "erased"


@dataclass(frozen=True)
class SlotLocation:
    """Physical coordinates of a slot inside a superblock."""

    lane_index: int  # index into the superblock's member tuple
    lwl: int
    page_type: PageType


class ManagedSuperblock:
    """One live superblock: members, write pointer, state.

    With ``parity`` set, the LAST member lane holds row parity (RAID-4
    style, Section VII's RAID-over-superblock designs): data slots only
    span the other lanes, and each super word-line carries one parity page
    per page type.
    """

    def __init__(
        self,
        sb_id: int,
        speed_class: SpeedClass,
        members: Tuple[BlockRecord, ...],
        geometry: NandGeometry,
        parity: bool = False,
    ) -> None:
        if len(members) < 1:
            raise ValueError("superblock needs at least one member")
        if parity and len(members) < 2:
            raise ValueError("parity protection needs at least two lanes")
        self.sb_id = sb_id
        self.speed_class = speed_class
        self.members = members
        self.parity = parity
        self.state = SbState.OPEN
        self.next_slot = 0
        #: how many members were swapped for spares after a media failure
        self.repairs = 0
        # The slot layout is fixed at construction: a repair swaps a member
        # but never changes the lane count, and parity never toggles.
        self.lane_count = len(members)
        #: lanes that hold user data (excludes the parity lane)
        self.data_lane_count = self.lane_count - (1 if parity else 0)
        #: member index of the parity lane, or None
        self.parity_lane_index: Optional[int] = self.lane_count - 1 if parity else None
        #: data pages one super word-line holds: data lanes x pages-per-LWL
        self.pages_per_superwl = self.data_lane_count * geometry.bits_per_cell
        self.capacity_pages = geometry.pages_per_block * self.data_lane_count
        self._page_types = geometry.page_types

    # -- geometry -------------------------------------------------------------

    def slot_location(self, slot: int) -> SlotLocation:
        """Resolve a data slot to (lane, LWL, page type).

        Slots fill a super word-line completely (page types major, lanes
        minor) before moving to the next LWL, matching how the FTL issues
        one MP program per super word-line.  The parity lane holds no data
        slots.
        """
        if not 0 <= slot < self.capacity_pages:
            raise ValueError(f"slot {slot} out of range [0, {self.capacity_pages})")
        lwl, within = divmod(slot, self.pages_per_superwl)
        page_index, lane_index = divmod(within, self.data_lane_count)
        return SlotLocation(
            lane_index=lane_index, lwl=lwl, page_type=self._page_types[page_index]
        )

    # -- write pointer -----------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return self.next_slot >= self.capacity_pages

    def claim_slots(self, count: int) -> List[int]:
        """Reserve the next ``count`` slots (must stay within one superblock)."""
        if self.state is not SbState.OPEN:
            raise SuperblockStateError(f"superblock {self.sb_id} is {self.state.value}")
        if count < 1:
            raise ValueError("count must be >= 1")
        if self.next_slot + count > self.capacity_pages:
            raise SuperblockStateError(
                f"superblock {self.sb_id}: {count} slots requested, "
                f"{self.capacity_pages - self.next_slot} left"
            )
        slots = list(range(self.next_slot, self.next_slot + count))
        self.next_slot += count
        return slots

    def replace_member(self, lane_index: int, record: BlockRecord) -> BlockRecord:
        """Swap one member for a freshly drafted spare; returns the old one.

        Only an OPEN superblock can be repaired: a sealed one is read-only,
        so a failed member there is handled by GC-reclaiming the whole
        superblock instead.  The spare must live on the same lane so the
        slot -> (lane, LWL, page type) geometry is unchanged.
        """
        if self.state is not SbState.OPEN:
            raise SuperblockStateError(
                f"superblock {self.sb_id} is {self.state.value}; repair needs OPEN"
            )
        if not 0 <= lane_index < self.lane_count:
            raise ValueError(f"lane_index {lane_index} out of range")
        old = self.members[lane_index]
        if record.lane != old.lane:
            raise ValueError(
                f"spare lane {record.lane} differs from member lane {old.lane}"
            )
        members = list(self.members)
        members[lane_index] = record
        self.members = tuple(members)
        self.repairs += 1
        return old

    def seal(self) -> None:
        if self.state is not SbState.OPEN:
            raise SuperblockStateError(f"superblock {self.sb_id} is {self.state.value}")
        self.state = SbState.SEALED

    def mark_erased(self) -> None:
        if self.state is not SbState.SEALED:
            raise SuperblockStateError(
                f"superblock {self.sb_id} must be sealed before erase"
            )
        self.state = SbState.ERASED


class SuperblockTable:
    """Registry of live superblocks, open write points, and sealed sets."""

    def __init__(self, geometry: NandGeometry) -> None:
        self._geometry = geometry
        self._next_id = 0
        self._all: Dict[int, ManagedSuperblock] = {}
        self._open_by_class: Dict[SpeedClass, Optional[int]] = {
            SpeedClass.FAST: None,
            SpeedClass.SLOW: None,
        }

    def create(
        self,
        speed_class: SpeedClass,
        members: Tuple[BlockRecord, ...],
        parity: bool = False,
    ) -> ManagedSuperblock:
        sb = ManagedSuperblock(
            self._next_id, speed_class, members, self._geometry, parity
        )
        self._all[sb.sb_id] = sb
        self._next_id += 1
        return sb

    def get(self, sb_id: int) -> ManagedSuperblock:
        if sb_id not in self._all:
            raise KeyError(f"unknown superblock {sb_id}")
        return self._all[sb_id]

    def forget(self, sb_id: int) -> None:
        sb = self.get(sb_id)
        if sb.state is not SbState.ERASED:
            raise SuperblockStateError(
                f"superblock {sb_id} must be erased before removal"
            )
        del self._all[sb_id]

    # -- open write points --------------------------------------------------------

    def open_superblock(self, speed_class: SpeedClass) -> Optional[ManagedSuperblock]:
        sb_id = self._open_by_class.get(speed_class)
        return self._all.get(sb_id) if sb_id is not None else None

    def set_open(self, speed_class: SpeedClass, sb: Optional[ManagedSuperblock]) -> None:
        self._open_by_class[speed_class] = sb.sb_id if sb is not None else None

    # -- queries ----------------------------------------------------------------------

    def sealed(self) -> List[ManagedSuperblock]:
        return [sb for sb in self._all.values() if sb.state is SbState.SEALED]

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[ManagedSuperblock]:
        return iter(self._all.values())
