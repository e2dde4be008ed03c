"""Characterization harness tests: datasets, prober, statistics."""

import numpy as np
import pytest

from repro.characterization import (
    BlockMeasurement,
    ChipDataset,
    MeasurementSet,
    ProbePlan,
    Prober,
    mean_lwl_curve,
    probe_testbed,
    residual_trend_correlation,
    variability_report,
    wordline_trend_correlation,
)
from repro.exp import SimConfig, build_stack
from repro.faults import FaultPlan, make_injector
from repro.nand import SMALL_GEOMETRY, FlashChip, VariationModel, VariationParams
from repro.nand.errors import BadBlockError

from tests.conftest import make_chips

FAULTY = FaultPlan(program_fail_prob=0.001, erase_fail_prob=0.01)


def make_measurement(chip_id=0, plane=0, block=0, value=10.0, ers=100.0, shape=(4, 4)):
    matrix = np.full(shape, value)
    matrix.setflags(write=False)
    return BlockMeasurement(
        chip_id=chip_id,
        plane=plane,
        block=block,
        pe_cycles=0,
        wl_latencies_us=matrix,
        erase_latency_us=ers,
    )


class TestBlockMeasurement:
    def test_program_total(self):
        m = make_measurement(value=2.0, shape=(3, 4))
        assert m.program_total_us == pytest.approx(24.0)

    def test_lwl_flattening_layer_major(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        matrix.setflags(write=False)
        m = BlockMeasurement(0, 0, 0, 0, matrix, 1.0)
        assert list(m.lwl_latencies()[:4]) == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            BlockMeasurement(0, 0, 0, 0, np.zeros(4), 1.0)

    def test_key_and_repr(self):
        m = make_measurement(chip_id=2, plane=1, block=7)
        assert m.key() == (2, 1, 7)
        assert "c2/p1/b7" in repr(m)


class TestDatasets:
    def test_chip_dataset_guards_chip_id(self):
        dataset = ChipDataset(chip_id=1)
        with pytest.raises(ValueError):
            dataset.add(make_measurement(chip_id=0))

    def test_measurement_set_index(self):
        ms = MeasurementSet()
        ms.add(make_measurement(chip_id=0, block=1))
        ms.add(make_measurement(chip_id=1, block=2))
        assert len(ms) == 2
        assert ms.chip_ids() == [0, 1]
        assert ms.get(0, 0, 1) is not None
        assert ms.get(0, 0, 9) is None
        with pytest.raises(KeyError):
            ms.chip(5)

    def test_erase_series_and_totals(self):
        dataset = ChipDataset(chip_id=0)
        dataset.add(make_measurement(block=3, ers=50.0))
        assert dataset.erase_series() == [(0, 3, 50.0)]
        assert dataset.program_totals().shape == (1,)
        assert dataset.for_plane(0)[0].block == 3
        assert dataset.for_plane(1) == []


class TestProber:
    @pytest.fixture()
    def chip(self, small_model):
        return make_chips(small_model, 1)[0]

    def test_probe_block_shapes(self, chip):
        prober = Prober(chip)
        m = prober.probe_block(0, 0)
        g = SMALL_GEOMETRY
        assert m.wl_latencies_us.shape == (g.layers_per_block, g.strings_per_layer)
        assert m.erase_latency_us > 0
        assert m.pe_cycles == 1  # the probe erased once

    def test_probe_matches_chip_state(self, chip):
        prober = Prober(chip)
        prober.probe_block(0, 1)
        assert chip.is_fully_programmed(0, 1)

    def test_probe_plan_skips_bad(self):
        params = VariationParams(factory_bad_ratio=0.5)
        model = VariationModel(SMALL_GEOMETRY, params, seed=9)
        chip = FlashChip(model.chip_profile(0), SMALL_GEOMETRY)
        prober = Prober(chip)
        results = prober.probe_blocks(ProbePlan(planes=[0], blocks=range(10)))
        assert all(not chip.is_bad(0, m.block) for m in results)
        assert len(results) < 10

    def test_bring_to_pe(self, chip):
        prober = Prober(chip)
        prober.bring_to_pe(0, 2, 50)
        assert chip.pe_cycles(0, 2) == 50
        with pytest.raises(ValueError):
            prober.bring_to_pe(0, 2, 10)

    def test_probe_at_pe(self, chip):
        prober = Prober(chip)
        m = prober.probe_block_at_pe(0, 3, 100)
        assert m.pe_cycles == 101

    def test_probe_testbed(self, small_model):
        chips = make_chips(small_model, 2)
        ms = probe_testbed(chips, planes=[0], blocks=range(4))
        assert len(ms) <= 8
        assert set(ms.chip_ids()) <= {0, 1}


class TestFaultedProbing:
    """Injected erase/program FAILs skip a block like wear-out does."""

    def test_faulted_testbed_pools_are_probed(self):
        config = SimConfig.testbed(seed=1, chips=2, pool_blocks=40).with_(faults=FAULTY)
        stack = build_stack(config)
        pools = stack.pools()
        assert all(len(pool) > 0 for pool in pools)
        for pool, chip in zip(pools, stack.chips):
            assert len(pool) < config.pool_blocks  # some blocks really failed
            for m in pool.blocks:
                assert not chip.is_bad(m.plane, m.block)
                assert chip.is_fully_programmed(m.plane, m.block)

    def faulty_chip(self, small_model, chip_id=0):
        return FlashChip(
            small_model.chip_profile(chip_id),
            SMALL_GEOMETRY,
            injector=make_injector(FaultPlan(program_fail_prob=0.02), 4, chip_id),
        )

    def test_probe_testbed_skips_failed_blocks_like_probe_blocks(self, small_model):
        blocks = range(SMALL_GEOMETRY.blocks_per_plane)
        measured = probe_testbed([self.faulty_chip(small_model)], planes=[0], blocks=blocks)
        plan = ProbePlan(planes=[0], blocks=blocks)
        probed = Prober(self.faulty_chip(small_model)).probe_blocks(plan)
        assert 0 < len(probed) < len(blocks)
        assert [m.key() for m in measured] == [m.key() for m in probed]

    def test_probe_blocks_raises_when_not_skipping(self, small_model):
        plan = ProbePlan(planes=[0], blocks=range(SMALL_GEOMETRY.blocks_per_plane))
        with pytest.raises(BadBlockError):
            Prober(self.faulty_chip(small_model)).probe_blocks(plan, skip_bad=False)


class TestStatistics:
    def test_variability_report(self, small_pools):
        ms = MeasurementSet()
        for pool in small_pools:
            for m in pool.blocks:
                # pools reuse chips 0..3 as lanes; measurement chip ids match
                ms.add(m)
        report = variability_report(ms, "program_total")
        assert report.within_chip_std > 0
        assert report.cross_chip_std > 0
        assert report.cross_to_within_ratio > 0

    def test_variability_requires_two_chips(self):
        ms = MeasurementSet()
        ms.add(make_measurement(chip_id=0))
        with pytest.raises(ValueError):
            variability_report(ms)

    def test_unknown_metric(self):
        ms = MeasurementSet()
        ms.add(make_measurement(chip_id=0))
        ms.add(make_measurement(chip_id=1))
        with pytest.raises(ValueError):
            variability_report(ms, "bogus")

    def test_trend_correlation_same_block(self, small_pools):
        m = small_pools[0].blocks[0]
        assert wordline_trend_correlation(m, m) == pytest.approx(1.0)

    def test_trend_correlation_within_vs_residual(self, small_pools):
        a, b = small_pools[0].blocks[0], small_pools[1].blocks[0]
        raw = wordline_trend_correlation(a, b)
        common = mean_lwl_curve([m for pool in small_pools for m in pool.blocks])
        residual = residual_trend_correlation(a, b, common)
        # The common layer shape dominates raw correlation across chips;
        # removing it exposes the chip difference.
        assert raw > residual

    def test_mean_curve_empty(self):
        with pytest.raises(ValueError):
            mean_lwl_curve([])

    def test_constant_curves(self):
        a = make_measurement(value=5.0)
        b = make_measurement(value=5.0)
        assert wordline_trend_correlation(a, b) == 1.0
