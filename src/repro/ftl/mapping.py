"""Logical-to-physical page mapping.

A plain page-level map: logical page number -> (superblock id, slot).  The
slot enumerates a superblock's pages in programming order; the superblock
table resolves a slot to (lane, LWL, page type).  The mapper also maintains
the reverse map, keyed by superblock, that the garbage collector needs: a
victim's valid pages and their count come from its own entry alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.perf.profiler import profiled


class MappingError(Exception):
    """Invalid logical page or inconsistent map update."""


@dataclass(frozen=True)
class PhysicalSlot:
    """A page's physical location: superblock + slot in program order."""

    superblock_id: int
    slot: int


class PageMapper:
    """L2P map plus a per-superblock reverse map for GC."""

    def __init__(self, logical_pages: int) -> None:
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
        self.logical_pages = logical_pages
        self._l2p: Dict[int, PhysicalSlot] = {}
        # sb -> {slot: lpn} for every *valid* page, so len(inner) is the
        # superblock's valid count; drop_superblock removes the entry
        self._p2l: Dict[int, Dict[int, int]] = {}

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise MappingError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    # -- updates --------------------------------------------------------------

    @profiled("ftl.map")
    def map_page(self, lpn: int, location: PhysicalSlot) -> Optional[PhysicalSlot]:
        """Point ``lpn`` at a new physical slot; returns the stale slot if any."""
        self.check_lpn(lpn)
        stale = self._l2p.get(lpn)
        if stale is not None:
            self._invalidate_slot(stale)
        sb_id, slot = location.superblock_id, location.slot
        slots = self._p2l.get(sb_id)
        if slots is None:
            slots = self._p2l[sb_id] = {}
        elif slot in slots:
            raise MappingError(f"slot {(sb_id, slot)} already holds lpn {slots[slot]}")
        self._l2p[lpn] = location
        slots[slot] = lpn
        return stale

    def unmap_page(self, lpn: int) -> Optional[PhysicalSlot]:
        """TRIM: drop the mapping; returns the now-invalid slot if one existed."""
        self.check_lpn(lpn)
        location = self._l2p.pop(lpn, None)
        if location is not None:
            self._invalidate_slot(location)
        return location

    def _invalidate_slot(self, location: PhysicalSlot) -> None:
        sb_id, slot = location.superblock_id, location.slot
        slots = self._p2l.get(sb_id)
        if slots is None or slot not in slots:
            raise MappingError(f"slot {(sb_id, slot)} is not valid")
        del slots[slot]

    def drop_superblock(self, superblock_id: int) -> None:
        """Forget accounting for an erased superblock (must hold no valid pages)."""
        slots = self._p2l.get(superblock_id)
        if slots:
            raise MappingError(
                f"superblock {superblock_id} still holds {len(slots)} valid pages"
            )
        self._p2l.pop(superblock_id, None)

    # -- lookups ---------------------------------------------------------------

    @profiled("ftl.map")
    def lookup(self, lpn: int) -> Optional[PhysicalSlot]:
        self.check_lpn(lpn)
        return self._l2p.get(lpn)

    def lpn_at(self, superblock_id: int, slot: int) -> Optional[int]:
        return self._p2l.get(superblock_id, {}).get(slot)

    def valid_count(self, superblock_id: int) -> int:
        return len(self._p2l.get(superblock_id, ()))

    def valid_slots(self, superblock_id: int) -> List[Tuple[int, int]]:
        """``(slot, lpn)`` pairs still valid in a superblock, slot order."""
        return sorted(self._p2l.get(superblock_id, {}).items())

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    def iter_mapped(self) -> Iterator[Tuple[int, PhysicalSlot]]:
        return iter(self._l2p.items())
