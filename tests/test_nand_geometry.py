"""NAND geometry and addressing tests."""

import pytest

from repro.nand.geometry import (
    PAPER_GEOMETRY,
    SMALL_GEOMETRY,
    BlockAddress,
    NandGeometry,
    PageAddress,
    PageType,
    WordLineAddress,
)


class TestPageType:
    def test_tlc_types(self):
        assert PageType.for_bits_per_cell(3) == [PageType.LSB, PageType.CSB, PageType.MSB]

    def test_slc_and_qlc(self):
        assert PageType.for_bits_per_cell(1) == [PageType.LSB]
        assert len(PageType.for_bits_per_cell(4)) == 4

    def test_returns_a_fresh_list(self):
        first = PageType.for_bits_per_cell(3)
        first.append(PageType.TSB)
        first[0] = PageType.MSB
        assert PageType.for_bits_per_cell(3) == [PageType.LSB, PageType.CSB, PageType.MSB]
        assert PageType.for_bits_per_cell(3) is not PageType.for_bits_per_cell(3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PageType.for_bits_per_cell(0)
        with pytest.raises(ValueError):
            PageType.for_bits_per_cell(5)


class TestPaperGeometry:
    """The paper's chip dimensions (Section VI-A)."""

    def test_lwls_per_block(self):
        assert PAPER_GEOMETRY.lwls_per_block == 384  # 96 layers x 4 strings

    def test_pages_per_block(self):
        assert PAPER_GEOMETRY.pages_per_block == 1152  # TLC

    def test_page_bytes(self):
        assert PAPER_GEOMETRY.page_bytes == 18 * 1024  # 16K user + 2K spare

    def test_blocks_per_chip(self):
        assert PAPER_GEOMETRY.blocks_per_chip == 4 * 954


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            NandGeometry(planes_per_chip=0)
        with pytest.raises(ValueError):
            NandGeometry(bits_per_cell=5)
        with pytest.raises(ValueError):
            NandGeometry(page_spare_bytes=-1)

    def test_bounds_checks(self):
        g = SMALL_GEOMETRY
        with pytest.raises(ValueError):
            g.check_plane(g.planes_per_chip)
        with pytest.raises(ValueError):
            g.check_block(-1)
        with pytest.raises(ValueError):
            g.check_layer(g.layers_per_block)
        with pytest.raises(ValueError):
            g.check_string(g.strings_per_layer)
        with pytest.raises(ValueError):
            g.check_lwl(g.lwls_per_block)

    def test_page_type_check(self):
        g = NandGeometry(bits_per_cell=2)
        g.check_page_type(PageType.CSB)
        with pytest.raises(ValueError):
            g.check_page_type(PageType.MSB)


class TestLwlMapping:
    def test_lwl_index_layer_major(self):
        g = PAPER_GEOMETRY
        assert g.lwl_index(0, 0) == 0
        assert g.lwl_index(0, 3) == 3
        assert g.lwl_index(1, 0) == 4
        assert g.lwl_index(95, 3) == 383

    def test_roundtrip(self):
        g = SMALL_GEOMETRY
        for lwl in range(g.lwls_per_block):
            layer, string = g.lwl_components(lwl)
            assert g.lwl_index(layer, string) == lwl

    def test_iter_lwls_order(self):
        g = SMALL_GEOMETRY
        seen = list(g.iter_lwls())
        assert [x[0] for x in seen] == list(range(g.lwls_per_block))
        assert seen[0] == (0, 0, 0)
        assert seen[g.strings_per_layer] == (g.strings_per_layer, 1, 0)


class TestAddresses:
    def test_ordering_and_str(self):
        a = BlockAddress(0, 0, 5)
        b = BlockAddress(0, 1, 0)
        assert a < b
        assert str(a) == "c0/p0/b5"

    def test_wordline_and_page_str(self):
        wl = WordLineAddress(BlockAddress(1, 2, 3), 17)
        assert str(wl) == "c1/p2/b3/wl17"
        page = PageAddress(wl, PageType.MSB)
        assert str(page).endswith("MSB")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BlockAddress(0, 0, 0).block = 1
