"""ManagedSuperblock / SuperblockTable tests."""

import pytest

from repro.core.assembler import SpeedClass
from repro.core.records import BlockRecord
from repro.ftl.superblock import (
    ManagedSuperblock,
    SbState,
    SlotLocation,
    SuperblockStateError,
    SuperblockTable,
)
from repro.nand import SMALL_GEOMETRY, NandGeometry, PageType
from repro.utils.bitvec import BitVector


def members(lanes=3):
    return tuple(
        BlockRecord(lane, 0, lane + 10, 1000.0, BitVector([0, 1])) for lane in range(lanes)
    )


def make_sb(lanes=3, sb_id=0):
    return ManagedSuperblock(sb_id, SpeedClass.FAST, members(lanes), SMALL_GEOMETRY)


class TestGeometry:
    def test_capacity(self):
        sb = make_sb(3)
        assert sb.lane_count == 3
        assert sb.pages_per_superwl == 3 * SMALL_GEOMETRY.bits_per_cell
        assert sb.capacity_pages == SMALL_GEOMETRY.pages_per_block * 3

    def test_slot_location_order(self):
        sb = make_sb(2)
        # slots fill lanes first, then page types, then the next LWL
        first = sb.slot_location(0)
        assert (first.lane_index, first.lwl, first.page_type) == (0, 0, PageType.LSB)
        second = sb.slot_location(1)
        assert (second.lane_index, second.page_type) == (1, PageType.LSB)
        third = sb.slot_location(2)
        assert (third.lane_index, third.page_type) == (0, PageType.CSB)
        next_wl = sb.slot_location(sb.pages_per_superwl)
        assert next_wl.lwl == 1

    def test_slot_bounds(self):
        sb = make_sb()
        with pytest.raises(ValueError):
            sb.slot_location(sb.capacity_pages)

    def test_needs_members(self):
        with pytest.raises(ValueError):
            ManagedSuperblock(0, SpeedClass.FAST, (), SMALL_GEOMETRY)


@pytest.mark.parametrize("parity", [False, True])
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_slot_layout_matches_programming_order(bits, parity):
    geometry = NandGeometry(
        planes_per_chip=1,
        blocks_per_plane=4,
        layers_per_block=3,
        strings_per_layer=2,
        bits_per_cell=bits,
    )
    sb = ManagedSuperblock(0, SpeedClass.FAST, members(3), geometry, parity=parity)
    data_lanes = 3 - (1 if parity else 0)
    page_types = list(PageType)[:bits]
    # lwl major, then page type, then data lane
    expected = [
        SlotLocation(lane_index=lane, lwl=lwl, page_type=page_type)
        for lwl in range(geometry.lwls_per_block)
        for page_type in page_types
        for lane in range(data_lanes)
    ]
    assert sb.capacity_pages == len(expected)
    assert sb.pages_per_superwl == data_lanes * bits
    for slot, want in enumerate(expected):
        assert sb.slot_location(slot) == want
        assert want.lwl == slot // (data_lanes * bits)
    for bad in (-1, sb.capacity_pages, sb.capacity_pages + 7):
        with pytest.raises(ValueError):
            sb.slot_location(bad)
    # a repair swaps a member on the same lane; the layout must not move
    spare = BlockRecord(0, 0, 99, 1000.0, BitVector([0, 1]))
    sb.replace_member(0, spare)
    assert [sb.slot_location(slot) for slot in range(len(expected))] == expected


class TestLifecycle:
    def test_claim_advances_pointer(self):
        sb = make_sb()
        slots = sb.claim_slots(sb.pages_per_superwl)
        assert slots == list(range(sb.pages_per_superwl))
        assert sb.next_slot == sb.pages_per_superwl

    def test_claim_overflow(self):
        sb = make_sb()
        sb.claim_slots(sb.capacity_pages)
        assert sb.is_full
        with pytest.raises(SuperblockStateError):
            sb.claim_slots(1)

    def test_claim_validation(self):
        with pytest.raises(ValueError):
            make_sb().claim_slots(0)

    def test_seal_and_erase_states(self):
        sb = make_sb()
        sb.seal()
        assert sb.state is SbState.SEALED
        with pytest.raises(SuperblockStateError):
            sb.claim_slots(1)
        with pytest.raises(SuperblockStateError):
            sb.seal()
        sb.mark_erased()
        assert sb.state is SbState.ERASED

    def test_erase_requires_sealed(self):
        with pytest.raises(SuperblockStateError):
            make_sb().mark_erased()


class TestTable:
    def test_create_assigns_ids(self):
        table = SuperblockTable(SMALL_GEOMETRY)
        a = table.create(SpeedClass.FAST, members())
        b = table.create(SpeedClass.SLOW, members())
        assert (a.sb_id, b.sb_id) == (0, 1)
        assert table.get(1) is b
        assert len(table) == 2

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            SuperblockTable(SMALL_GEOMETRY).get(0)

    def test_open_tracking(self):
        table = SuperblockTable(SMALL_GEOMETRY)
        assert table.open_superblock(SpeedClass.FAST) is None
        sb = table.create(SpeedClass.FAST, members())
        table.set_open(SpeedClass.FAST, sb)
        assert table.open_superblock(SpeedClass.FAST) is sb
        table.set_open(SpeedClass.FAST, None)
        assert table.open_superblock(SpeedClass.FAST) is None

    def test_sealed_listing_and_forget(self):
        table = SuperblockTable(SMALL_GEOMETRY)
        sb = table.create(SpeedClass.FAST, members())
        assert table.sealed() == []
        sb.seal()
        assert table.sealed() == [sb]
        with pytest.raises(SuperblockStateError):
            table.forget(sb.sb_id)
        sb.mark_erased()
        table.forget(sb.sb_id)
        assert len(table) == 0
