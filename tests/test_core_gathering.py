"""GatheringUnit and BlockRecord tests."""

import numpy as np
import pytest

from repro.core.eigen import block_records, eigen_sequence
from repro.core.gathering import GatheringError, GatheringUnit
from repro.core.records import BlockRecord
from repro.nand import PAPER_GEOMETRY, SMALL_GEOMETRY
from repro.utils.bitvec import BitVector


@pytest.fixture()
def unit():
    return GatheringUnit(SMALL_GEOMETRY)


def feed_block(unit, lane=0, plane=0, block=0, seed=0, pe=0):
    rng = np.random.default_rng(seed)
    g = SMALL_GEOMETRY
    matrix = rng.normal(1700, 10, size=(g.layers_per_block, g.strings_per_layer))
    unit.open_block(lane, plane, block, pe)
    record = None
    for lwl in range(g.lwls_per_block):
        layer, string = divmod(lwl, g.strings_per_layer)
        record = unit.report(lane, plane, block, lwl, float(matrix[layer, string]))
    return record, matrix


class TestLifecycle:
    def test_open_twice_rejected(self, unit):
        unit.open_block(0, 0, 0)
        with pytest.raises(GatheringError):
            unit.open_block(0, 0, 0)

    def test_report_unopened_rejected(self, unit):
        with pytest.raises(GatheringError):
            unit.report(0, 0, 0, 0, 1000.0)

    def test_out_of_order_rejected(self, unit):
        unit.open_block(0, 0, 0)
        unit.report(0, 0, 0, 0, 1000.0)
        with pytest.raises(GatheringError):
            unit.report(0, 0, 0, 2, 1000.0)

    def test_abandon(self, unit):
        unit.open_block(0, 0, 0)
        assert unit.open_count == 1
        unit.abandon_block(0, 0, 0)
        assert unit.open_count == 0
        unit.abandon_block(0, 0, 9)  # idempotent

    def test_completion_closes_block(self, unit):
        record, _ = feed_block(unit)
        assert record is not None
        assert not unit.is_open(0, 0, 0)
        assert unit.completed == [record]


class TestRecordContents:
    def test_latency_sum(self, unit):
        record, matrix = feed_block(unit)
        assert record.pgm_total_us == pytest.approx(matrix.sum())

    def test_eigen_matches_offline(self, unit):
        record, matrix = feed_block(unit)
        assert record.eigen == eigen_sequence(matrix)

    def test_callback_invoked(self):
        seen = []
        unit = GatheringUnit(SMALL_GEOMETRY, seen.append)
        record, _ = feed_block(unit)
        assert seen == [record]

    def test_pe_cycles_recorded(self, unit):
        record, _ = feed_block(unit, pe=42)
        assert record.pe_cycles == 42

    def test_gather_measurement_helper(self, unit):
        rng = np.random.default_rng(3)
        g = SMALL_GEOMETRY
        matrix = rng.normal(1700, 10, size=(g.layers_per_block, g.strings_per_layer))
        record = unit.gather_measurement(1, 0, 5, matrix, pe_cycles=7)
        assert record.lane == 1 and record.block == 5
        assert record.pgm_total_us == pytest.approx(matrix.sum())


def reported_record(geometry, matrix, lane=0, plane=0, block=0, pe=0):
    """The record the online path completes: one report per word-line."""
    unit = GatheringUnit(geometry)
    unit.open_block(lane, plane, block, pe)
    record = None
    for lwl, latency in enumerate(matrix.ravel().tolist()):
        record = unit.report(lane, plane, block, lwl, latency)
    return record


def shape_of(geometry):
    return (geometry.layers_per_block, geometry.strings_per_layer)


def tie_heavy(rng, geometry):
    """Latencies on a coarse quantization grid: most layers carry ties."""
    return 1600.0 + 6.1 * rng.integers(0, 3, size=shape_of(geometry))


class TestBulkEqualsReports:
    """``gather_measurement`` builds in one step what 384 reports build."""

    @pytest.mark.parametrize(
        "geometry", [SMALL_GEOMETRY, PAPER_GEOMETRY], ids=["small", "paper"]
    )
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["random", "tie_heavy"])
    def test_bit_for_bit(self, geometry, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            matrix = rng.normal(1700, 60, size=shape_of(geometry))
        else:
            matrix = tie_heavy(rng, geometry)
        expected = reported_record(geometry, matrix, lane=2, plane=1, block=9, pe=seed)
        bulk = GatheringUnit(geometry).gather_measurement(2, 1, 9, matrix, pe_cycles=seed)
        assert bulk == expected
        # exact float and bit equality, not just approx
        assert repr(bulk.pgm_total_us) == repr(expected.pgm_total_us)
        assert bulk.eigen.value == expected.eigen.value

    def test_tie_heavy_matrix_really_has_ties(self):
        matrix = tie_heavy(np.random.default_rng(0), PAPER_GEOMETRY)
        tied_layers = sum(len(set(row)) < len(row) for row in matrix.tolist())
        assert tied_layers > PAPER_GEOMETRY.layers_per_block // 2

    def test_bulk_record_reaches_the_callback_and_closes_the_block(self):
        seen = []
        unit = GatheringUnit(SMALL_GEOMETRY, seen.append)
        matrix = np.random.default_rng(1).normal(1700, 10, size=shape_of(SMALL_GEOMETRY))
        record = unit.gather_measurement(0, 0, 3, matrix)
        assert seen == [record] and unit.completed == [record]
        assert not unit.is_open(0, 0, 3)

    def test_block_records_batch_equals_one_at_a_time(self):
        rng = np.random.default_rng(5)
        keys = [(lane, 0, block, 3) for lane in range(2) for block in range(3)]
        matrices = [rng.normal(1700, 60, size=shape_of(SMALL_GEOMETRY)) for _ in keys]
        batched = block_records(keys, matrices)
        assert batched == [block_records([key], [m])[0] for key, m in zip(keys, matrices)]
        assert batched == [
            reported_record(SMALL_GEOMETRY, m, lane, plane, block, pe)
            for (lane, plane, block, pe), m in zip(keys, matrices)
        ]
        assert block_records([], []) == []
        with pytest.raises(ValueError):
            block_records(keys, matrices[:-1])

    def test_wrong_shape_rejected(self, unit):
        layers, strings = shape_of(SMALL_GEOMETRY)
        with pytest.raises(GatheringError):
            unit.gather_measurement(0, 0, 0, np.ones((strings, layers)))
        assert unit.open_count == 0


class TestFootprint:
    def test_staging_only_open_blocks(self, unit):
        assert unit.staging_bytes() == 0
        unit.open_block(0, 0, 0)
        first = unit.staging_bytes()
        assert first > 0
        unit.open_block(0, 0, 1)
        assert unit.staging_bytes() > first
        unit.abandon_block(0, 0, 0)
        unit.abandon_block(0, 0, 1)
        assert unit.staging_bytes() == 0

    def test_record_metadata_bytes(self, unit):
        record, _ = feed_block(unit)
        g = SMALL_GEOMETRY
        expected = 4 + (g.lwls_per_block + 7) // 8
        assert record.metadata_bytes() == expected


class TestBlockRecord:
    def test_distance(self):
        a = BlockRecord(0, 0, 0, 1.0, BitVector([1, 0, 1, 0]))
        b = BlockRecord(1, 0, 0, 2.0, BitVector([1, 1, 1, 1]))
        assert a.distance_to(b) == 2

    def test_key_and_str(self):
        record = BlockRecord(2, 1, 30, 500.0, BitVector([0]))
        assert record.key() == (2, 1, 30)
        assert "lane2" in str(record)
