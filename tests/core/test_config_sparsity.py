"""Tests for the accelerator configuration and the sparsity eliminator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HyGCNConfig, PipelineMode, SparsityEliminator
from repro.core.sparsity import EffectualWindow


class TestHyGCNConfig:
    def test_table6_defaults(self):
        cfg = HyGCNConfig()
        assert cfg.num_simd_cores == 32
        assert cfg.simd_width == 16
        assert cfg.total_simd_lanes == 512
        assert cfg.num_systolic_modules == 8
        assert cfg.total_pes == 8 * 4 * 128
        assert cfg.aggregation_buffer_bytes == 16 << 20
        assert cfg.input_buffer_bytes == 128 << 10
        assert cfg.hbm.peak_bandwidth_gbps == 256

    def test_interval_and_shard_sizing(self):
        cfg = HyGCNConfig()
        # one ping-pong chunk = 8 MB; at 128 floats/vertex that is 16384 vertices
        assert cfg.interval_size(128) == (8 << 20) // (128 * 4)
        # input working set = 64 KB; at 128 floats/vertex that is 128 rows
        assert cfg.shard_height(128) == (64 << 10) // (128 * 4)

    def test_sizing_never_zero(self):
        cfg = HyGCNConfig()
        assert cfg.interval_size(10**9) >= 1
        assert cfg.shard_height(10**9) >= 1

    def test_invalid_pipeline_mode(self):
        with pytest.raises(ValueError):
            HyGCNConfig(pipeline_mode="bogus")

    def test_invalid_structural_parameter(self):
        with pytest.raises(ValueError):
            HyGCNConfig(num_simd_cores=0)
        with pytest.raises(ValueError):
            HyGCNConfig(aggregation_buffer_bytes=-1)

    def test_with_overrides(self):
        cfg = HyGCNConfig().with_overrides(enable_sparsity_elimination=False,
                                           aggregation_buffer_bytes=2 << 20)
        assert cfg.enable_sparsity_elimination is False
        assert cfg.aggregation_buffer_bytes == 2 << 20
        # original defaults untouched elsewhere
        assert cfg.num_simd_cores == 32

    def test_pipeline_modes_enumerated(self):
        assert set(PipelineMode.ALL) == {"none", "latency", "energy"}


class TestSparsityEliminator:
    def test_empty_rows_no_windows(self):
        report = SparsityEliminator(4).eliminate([], num_rows=100)
        assert report.windows == []
        assert report.loaded_rows == 0
        assert report.sparsity_reduction == 0.0 or report.total_rows == 100

    def test_single_row(self):
        report = SparsityEliminator(4).eliminate([10], num_rows=100)
        assert report.windows == [EffectualWindow(10, 11)]
        assert report.loaded_rows == 1
        assert report.eliminated_rows == 99

    def test_sliding_skips_empty_prefix(self):
        report = SparsityEliminator(4).eliminate([50, 51], num_rows=100)
        assert report.windows[0].start == 50

    def test_shrinking_trims_empty_suffix(self):
        # rows 0 and 1 effectual, window height 8: window shrinks to [0, 2)
        report = SparsityEliminator(8).eliminate([0, 1], num_rows=100)
        assert report.windows == [EffectualWindow(0, 2)]

    def test_multiple_windows(self):
        rows = [0, 1, 20, 21, 22]
        report = SparsityEliminator(4).eliminate(rows, num_rows=100)
        assert len(report.windows) == 2
        assert report.windows[0] == EffectualWindow(0, 2)
        assert report.windows[1] == EffectualWindow(20, 23)
        assert report.loaded_rows == 5
        assert report.residual_waste == 0

    def test_window_spanning_gap_has_residual_waste(self):
        # rows 0 and 3 fall in one height-4 window; rows 1-2 are wasted loads
        report = SparsityEliminator(4).eliminate([0, 3], num_rows=100)
        assert report.windows == [EffectualWindow(0, 4)]
        assert report.residual_waste == 2

    def test_duplicates_collapsed(self):
        report = SparsityEliminator(4).eliminate([5, 5, 5], num_rows=10)
        assert report.effectual_rows == 1

    def test_rows_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparsityEliminator(4).windows_for_rows([200], num_rows=100)

    def test_invalid_window_height(self):
        with pytest.raises(ValueError):
            SparsityEliminator(0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            EffectualWindow(5, 5)

    def test_dense_rows_one_window_per_block(self):
        rows = list(range(100))
        report = SparsityEliminator(10).eliminate(rows, num_rows=100)
        assert report.loaded_rows == 100
        assert report.sparsity_reduction == 0.0

    def test_custom_baseline(self):
        report = SparsityEliminator(4).eliminate([0], num_rows=100, baseline_rows=10)
        assert report.total_rows == 10
        assert report.sparsity_reduction == pytest.approx(0.9)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 199), min_size=0, max_size=60),
        height=st.integers(1, 50),
    )
    def test_property_windows_cover_all_effectual_rows(self, rows, height):
        report = SparsityEliminator(height).eliminate(rows, num_rows=200)
        covered = set()
        for w in report.windows:
            covered.update(range(w.start, w.stop))
        assert set(rows) <= covered
        # windows never load more than the baseline and never overlap
        assert report.loaded_rows <= 200
        sorted_windows = sorted(report.windows, key=lambda w: w.start)
        for a, b in zip(sorted_windows, sorted_windows[1:]):
            assert a.stop <= b.start

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 199), min_size=1, max_size=60),
        height=st.integers(1, 50),
    )
    def test_property_loaded_at_least_effectual(self, rows, height):
        report = SparsityEliminator(height).eliminate(rows, num_rows=200)
        assert report.loaded_rows >= report.effectual_rows
        assert 0.0 <= report.sparsity_reduction <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 299), max_size=120),
        height=st.integers(1, 60),
    )
    def test_windows_match_sliding_shrinking_loop(self, rows, height):
        # reference: slide the window top onto the next effectual row, then
        # shrink its bottom onto the last effectual row it covers
        effectual = sorted(set(rows))
        want = []
        i = 0
        while i < len(effectual):
            top = effectual[i]
            j = i
            while j < len(effectual) and effectual[j] < top + height:
                j += 1
            want.append(EffectualWindow(top, effectual[j - 1] + 1))
            i = j
        report = SparsityEliminator(height).eliminate(rows, num_rows=300)
        assert report.windows == want
        assert report.effectual_rows == len(effectual)
        assert report.loaded_rows == sum(w.num_rows for w in want)
