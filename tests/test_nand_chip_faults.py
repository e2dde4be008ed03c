"""FlashChip fault hooks: status-register FAILs, outages, storms, retirement."""

import pytest

from repro.faults import (
    KIND_ERASE_FAIL,
    KIND_PLANE_OUTAGE,
    KIND_PROGRAM_FAIL,
    KIND_READ_STORM,
    NULL_INJECTOR,
    FaultEvent,
    FaultPlan,
    make_injector,
)
from repro.nand import (
    SMALL_GEOMETRY,
    EccConfig,
    EccEngine,
    FlashChip,
    VariationModel,
    VariationParams,
)
from repro.nand.errors import BadBlockError, UncorrectableReadError
from repro.nand.geometry import PageType


def build_chip(plan=None, seed=31, ecc=False):
    params = VariationParams(
        factory_bad_ratio=0.0, endurance_cycles=100_000, endurance_sigma_log=0.0
    )
    model = VariationModel(SMALL_GEOMETRY, params, seed=seed)
    return FlashChip(
        model.chip_profile(0),
        SMALL_GEOMETRY,
        ecc=EccEngine(EccConfig(), SMALL_GEOMETRY) if ecc else None,
        injector=make_injector(plan, seed, 0),
    )


def fill_wordlines(chip, plane, block, count):
    for lwl in range(count):
        result = chip.program_wordline(
            plane, block, lwl, {PageType.LSB: ("D", plane, block, lwl)}
        )
        assert result.ok


class TestDefaultChipHasNoInjector:
    def test_default_is_the_shared_null_object(self):
        chip = build_chip()
        assert chip.injector is NULL_INJECTOR
        assert not chip.injector.enabled
        assert chip.grown_bad_blocks == 0


class TestProgramFail:
    def test_fail_status_retires_and_preserves_survivors(self):
        plan = FaultPlan(
            events=[FaultEvent(kind=KIND_PROGRAM_FAIL, chip=0, at_op=2)]
        )
        chip = build_chip(plan)
        assert chip.erase_block(0, 0).ok
        fill_wordlines(chip, 0, 0, 2)  # ops 0 and 1 succeed

        result = chip.program_wordline(0, 0, 2, {PageType.LSB: "doomed"})
        assert not result.ok
        assert result.latency_us > 0.0
        # the block is grown-bad: further programs are protocol errors
        assert chip.is_bad(0, 0)
        assert chip.grown_bad_blocks == 1
        with pytest.raises(BadBlockError):
            chip.program_wordline(0, 0, 3, {PageType.LSB: "x"})
        # data was not committed and the word-line pointer did not advance
        assert chip.programmed_lwls(0, 0) == 2
        # survivors remain readable for copy-back
        for lwl in range(2):
            read, payload = chip.read_page(0, 0, lwl, PageType.LSB)
            assert read.ok and payload == ("D", 0, 0, lwl)

    def test_retire_block_is_idempotent(self):
        chip = build_chip()
        chip.retire_block(0, 3)
        chip.retire_block(0, 3)
        assert chip.grown_bad_blocks == 1
        assert chip.is_bad(0, 3)


def program_by_wordline(chip, plane, block):
    """The per-word-line reference for ``program_block``: stop at a FAIL."""
    latencies = []
    for lwl in range(chip.geometry.lwls_per_block):
        result = chip.program_wordline(plane, block, lwl)
        if not result.ok:
            return None
        latencies.append(result.latency_us)
    return latencies


def injector_state(chip):
    injector = chip.injector
    return (
        injector._program_ops,
        injector._total_ops,
        injector.injected_program_fails,
        injector._program_rng.bit_generator.state if injector._program_rng else None,
    )


class TestProgramBlockUnderFaults:
    """A faulted ``program_block`` is exactly a ``program_wordline`` loop."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(program_fail_prob=0.02),
            FaultPlan(events=[FaultEvent(kind=KIND_PROGRAM_FAIL, chip=0, at_op=45)]),
        ],
        ids=["random", "scheduled"],
    )
    def test_same_draws_and_same_stopping_wordline(self, plan):
        whole, looped = build_chip(plan), build_chip(plan)
        failures = 0
        for block in range(12):
            assert whole.erase_block(0, block).ok and looped.erase_block(0, block).ok
            matrix = whole.program_block(0, block)
            reference = program_by_wordline(looped, 0, block)
            if reference is None:
                failures += 1
                assert matrix is None
            else:
                assert matrix.ravel().tolist() == reference
            assert whole.programmed_lwls(0, block) == looped.programmed_lwls(0, block)
            assert whole.is_bad(0, block) == looped.is_bad(0, block)
            assert injector_state(whole) == injector_state(looped)
        assert whole.grown_bad_blocks == looped.grown_bad_blocks == failures
        assert 0 < failures < 12

    def test_scheduled_fail_stops_at_its_wordline(self):
        plan = FaultPlan(events=[FaultEvent(kind=KIND_PROGRAM_FAIL, chip=0, at_op=5)])
        chip = build_chip(plan)
        assert chip.erase_block(0, 0).ok
        assert chip.program_block(0, 0) is None
        assert chip.programmed_lwls(0, 0) == 5
        assert chip.is_bad(0, 0)

    def test_dead_plane_fails_without_retiring(self):
        plan = FaultPlan(
            events=[FaultEvent(kind=KIND_PLANE_OUTAGE, chip=0, plane=0, at_op=2)]
        )
        chip = build_chip(plan)
        assert chip.erase_block(0, 0).ok
        assert chip.program_block(0, 0) is None
        # the outage trips on the first program, which still succeeds
        assert chip.programmed_lwls(0, 0) == 1
        assert not chip.is_bad(0, 0)


class TestEraseFail:
    def test_fail_status_retires_and_counts_the_cycle(self):
        plan = FaultPlan(events=[FaultEvent(kind=KIND_ERASE_FAIL, chip=0, at_op=1)])
        chip = build_chip(plan)
        assert chip.erase_block(0, 0).ok
        before = chip.pe_cycles(0, 1)
        result = chip.erase_block(0, 1)
        assert not result.ok
        assert chip.pe_cycles(0, 1) == before + 1
        assert chip.is_bad(0, 1)
        assert chip.grown_bad_blocks == 1
        with pytest.raises(BadBlockError):
            chip.erase_block(0, 1)


class TestPlaneOutage:
    def make_dead_plane_chip(self):
        # total-op clock: erase is op 1, the first program is op 2 and trips
        # the outage (after its own status check, so it still succeeds)
        plan = FaultPlan(
            events=[FaultEvent(kind=KIND_PLANE_OUTAGE, chip=0, plane=0, at_op=2)]
        )
        chip = build_chip(plan)
        assert chip.erase_block(0, 0).ok
        fill_wordlines(chip, 0, 0, 1)
        assert chip.injector.plane_dead(0)
        return chip

    def test_program_and_erase_fail_without_state_change(self):
        chip = self.make_dead_plane_chip()
        assert not chip.program_wordline(0, 0, 1, {PageType.LSB: "x"}).ok
        assert chip.programmed_lwls(0, 0) == 1
        pe_before = chip.pe_cycles(0, 1)
        assert not chip.erase_block(0, 1).ok
        assert chip.pe_cycles(0, 1) == pe_before
        # a dead plane is an outage, not a retirement storm
        assert chip.grown_bad_blocks == 0

    def test_reads_surface_as_uncorrectable(self):
        chip = self.make_dead_plane_chip()
        with pytest.raises(UncorrectableReadError, match="plane offline"):
            chip.read_page(0, 0, 0, PageType.LSB)

    def test_other_planes_keep_working(self):
        chip = self.make_dead_plane_chip()
        assert chip.erase_block(1, 0).ok
        assert chip.program_wordline(1, 0, 0, {PageType.LSB: "y"}).ok
        _, payload = chip.read_page(1, 0, 0, PageType.LSB)
        assert payload == "y"


class TestReadStorm:
    def test_storm_raises_read_cost_then_subsides(self):
        storm = FaultPlan(
            events=[
                FaultEvent(
                    kind=KIND_READ_STORM, chip=0, at_op=0, duration_ops=3,
                    rber_multiplier=1000.0,
                )
            ]
        )
        stormy = build_chip(storm, ecc=True)
        calm = build_chip(ecc=True)
        # mid-life wear so a 1000x RBER needs read-retries but stays correctable
        for chip in (stormy, calm):
            chip.stress_block(0, 0, 2000)
            fill_wordlines(chip, 0, 0, 1)

        def read_cost(chip):
            result, _ = chip.read_page(0, 0, 0, PageType.LSB)
            return result.latency_us, result.correction

        stormy_costs = [read_cost(stormy) for _ in range(3)]
        calm_costs = [read_cost(calm) for _ in range(3)]
        # the elevated RBER forces read-retries the calm chip never needs
        assert all(c[1].retries > 0 for c in stormy_costs)
        assert all(c[1].retries == 0 for c in calm_costs)
        assert sum(c[0] for c in stormy_costs) > sum(c[0] for c in calm_costs)
        assert stormy.injector.injected_read_storms == 1
        # after the window the two chips read identically again
        after_storm, _ = read_cost(stormy)
        after_calm, _ = read_cost(calm)
        assert after_storm == pytest.approx(after_calm)
