"""FlashChip state machine tests."""

import pytest

from repro.nand import SMALL_GEOMETRY, FlashChip, PageType, VariationModel, VariationParams
from repro.nand.errors import (
    BadBlockError,
    EnduranceExceededError,
    MultiPlaneError,
    ProgramOrderError,
    ProgramStateError,
    ReadStateError,
)


@pytest.fixture()
def chip():
    model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=21)
    return FlashChip(model.chip_profile(0), SMALL_GEOMETRY)


def find_good_block(chip, plane=0):
    for block in range(chip.geometry.blocks_per_plane):
        if not chip.is_bad(plane, block):
            return block
    raise AssertionError("no good block")


class TestEraseProgram:
    def test_program_requires_erase(self, chip):
        with pytest.raises(ProgramStateError):
            chip.program_wordline(0, 0, 0)

    def test_erase_then_program(self, chip):
        erase = chip.erase_block(0, 0)
        assert erase.latency_us > 0
        result = chip.program_wordline(0, 0, 0)
        assert result.latency_us > 0
        assert chip.programmed_lwls(0, 0) == 1

    def test_program_order_enforced(self, chip):
        chip.erase_block(0, 0)
        chip.program_wordline(0, 0, 0)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 0, 2)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 0, 0)

    def test_erase_resets_pointer_and_data(self, chip):
        chip.erase_block(0, 0)
        chip.program_wordline(0, 0, 0, data={PageType.LSB: "x"})
        chip.erase_block(0, 0)
        assert chip.programmed_lwls(0, 0) == 0
        with pytest.raises(ReadStateError):
            chip.read_page(0, 0, 0, PageType.LSB)

    def test_pe_counting(self, chip):
        assert chip.pe_cycles(0, 1) == 0
        chip.erase_block(0, 1)
        chip.erase_block(0, 1)
        assert chip.pe_cycles(0, 1) == 2

    def test_program_block_full(self, chip):
        chip.erase_block(0, 2)
        latencies = chip.program_block(0, 2)
        assert latencies.shape == (
            SMALL_GEOMETRY.layers_per_block,
            SMALL_GEOMETRY.strings_per_layer,
        )
        assert not latencies.flags.writeable
        assert chip.is_fully_programmed(0, 2)

    def test_program_block_matches_a_wordline_loop(self, chip):
        model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=21)
        twin = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        for _ in range(2):  # fresh, then one P/E cycle later
            chip.erase_block(0, 2)
            twin.erase_block(0, 2)
            matrix = chip.program_block(0, 2)
            looped = [
                twin.program_wordline(0, 2, lwl).latency_us
                for lwl in range(SMALL_GEOMETRY.lwls_per_block)
            ]
            assert matrix.ravel().tolist() == looped
            assert chip.programmed_lwls(0, 2) == twin.programmed_lwls(0, 2)

    def test_program_block_checks_state(self, chip):
        with pytest.raises(ProgramStateError):
            chip.program_block(0, 4)
        chip.erase_block(0, 4)
        chip.program_wordline(0, 4, 0)
        with pytest.raises(ProgramOrderError):
            chip.program_block(0, 4)
        chip.retire_block(0, 4)
        with pytest.raises(BadBlockError):
            chip.program_block(0, 4)
        assert chip.programmed_lwls(0, 4) == 1

    def test_program_full_block_then_more_fails(self, chip):
        chip.erase_block(0, 2)
        chip.program_block(0, 2)
        with pytest.raises(ProgramOrderError):
            chip.program_wordline(0, 2, 0)

    def test_latency_deterministic_per_pe(self, chip):
        chip.erase_block(0, 3)
        first = chip.program_wordline(0, 3, 0).latency_us
        chip.erase_block(0, 3)
        # PE advanced by one -> latency may shift by the aging slope, but a
        # fresh chip at the same PE must reproduce it exactly.
        model = VariationModel(SMALL_GEOMETRY, VariationParams(factory_bad_ratio=0.0), seed=21)
        other = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        other.erase_block(0, 3)
        assert other.program_wordline(0, 3, 0).latency_us == first


class TestReads:
    def test_read_back_payload(self, chip):
        chip.erase_block(1, 0)
        chip.program_wordline(1, 0, 0, data={PageType.LSB: 123, PageType.MSB: "m"})
        result, payload = chip.read_page(1, 0, 0, PageType.LSB)
        assert payload == 123
        assert result.latency_us > 0
        _, missing = chip.read_page(1, 0, 0, PageType.CSB)
        assert missing is None

    def test_read_unprogrammed_fails(self, chip):
        chip.erase_block(1, 1)
        with pytest.raises(ReadStateError):
            chip.read_page(1, 1, 0, PageType.LSB)

    def test_read_invalid_page_type(self, chip):
        chip.erase_block(1, 2)
        chip.program_wordline(1, 2, 0)
        with pytest.raises(ValueError):
            chip.read_page(1, 2, 0, PageType.TSB)


class TestEndurance:
    def test_wearout_retires_block(self):
        params = VariationParams(
            factory_bad_ratio=0.0, endurance_cycles=3, endurance_sigma_log=0.0
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        for _ in range(3):
            chip.erase_block(0, 0)
        with pytest.raises(EnduranceExceededError):
            chip.erase_block(0, 0)
        assert chip.is_bad(0, 0)
        with pytest.raises(BadBlockError):
            chip.erase_block(0, 0)

    def test_stress_block(self):
        params = VariationParams(factory_bad_ratio=0.0)
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        chip.stress_block(0, 0, 100)
        assert chip.pe_cycles(0, 0) == 100
        assert chip.programmed_lwls(0, 0) == 0
        chip.program_wordline(0, 0, 0)  # stress leaves block erased

    def test_stress_past_endurance(self):
        params = VariationParams(
            factory_bad_ratio=0.0, endurance_cycles=10, endurance_sigma_log=0.0
        )
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        with pytest.raises(EnduranceExceededError):
            chip.stress_block(0, 0, 11)
        assert chip.is_bad(0, 0)

    def test_stress_negative(self, chip):
        with pytest.raises(ValueError):
            chip.stress_block(0, 0, -1)


class TestFactoryBad:
    def test_factory_bad_rejected(self):
        params = VariationParams(factory_bad_ratio=0.9)
        model = VariationModel(SMALL_GEOMETRY, params, seed=5)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        bad = next(
            b for b in range(SMALL_GEOMETRY.blocks_per_plane) if chip.is_bad(0, b)
        )
        with pytest.raises(BadBlockError):
            chip.erase_block(0, bad)


class TestMultiPlane:
    def test_mp_erase_completion_is_max(self, chip):
        result = chip.multiplane_erase([(0, 5), (1, 5)])
        assert result.latency_us == max(result.plane_latencies_us)
        assert result.extra_latency_us == (
            max(result.plane_latencies_us) - min(result.plane_latencies_us)
        )

    def test_mp_program(self, chip):
        chip.multiplane_erase([(0, 6), (1, 6)])
        result = chip.multiplane_program([(0, 6, 0), (1, 6, 0)])
        assert len(result.plane_latencies_us) == 2
        assert result.latency_us == max(result.plane_latencies_us)

    def test_mp_read(self, chip):
        chip.multiplane_erase([(0, 7), (1, 7)])
        chip.multiplane_program([(0, 7, 0), (1, 7, 0)])
        result = chip.multiplane_read(
            [(0, 7, 0, PageType.LSB), (1, 7, 0, PageType.LSB)]
        )
        assert result.latency_us >= max(result.plane_latencies_us)

    def test_mp_duplicate_plane_rejected(self, chip):
        with pytest.raises(MultiPlaneError):
            chip.multiplane_erase([(0, 1), (0, 2)])

    def test_mp_empty_rejected(self, chip):
        with pytest.raises(MultiPlaneError):
            chip.multiplane_erase([])
        with pytest.raises(MultiPlaneError):
            chip.multiplane_program([])
        with pytest.raises(MultiPlaneError):
            chip.multiplane_read([])
