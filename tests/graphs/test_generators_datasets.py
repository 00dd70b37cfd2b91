"""Tests for synthetic generators and the Table 4 dataset registry."""

import numpy as np
import pytest

from repro.graphs import (
    DATASETS,
    dataset_names,
    dataset_table,
    load_dataset,
    community_graph,
    erdos_renyi_graph,
    grid_graph,
    power_law_graph,
    star_graph,
)


class TestGenerators:
    def test_erdos_renyi_size(self):
        g = erdos_renyi_graph(100, 400, feature_length=8, seed=1)
        assert g.num_vertices == 100
        assert g.feature_length == 8
        assert 100 < g.num_edges <= 400

    def test_erdos_renyi_no_self_loops(self):
        g = erdos_renyi_graph(50, 300, feature_length=4, seed=2)
        for v in range(g.num_vertices):
            assert v not in g.neighbors(v)

    def test_erdos_renyi_rejects_tiny_graphs(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(1, 10, feature_length=4)

    def test_power_law_skew(self):
        g = power_law_graph(200, 2000, feature_length=4, skew=1.5, seed=3)
        degrees = np.sort(g.degrees())[::-1]
        # Hubs should dominate: top 10% of vertices should hold a large share.
        top = degrees[: len(degrees) // 10].sum()
        assert top > 0.3 * degrees.sum()

    def test_power_law_reproducible(self):
        g1 = power_law_graph(100, 500, feature_length=4, seed=7)
        g2 = power_law_graph(100, 500, feature_length=4, seed=7)
        assert g1.num_edges == g2.num_edges
        np.testing.assert_array_equal(g1.csr.indices, g2.csr.indices)

    def test_community_graph_intra_density(self):
        g = community_graph(200, 3000, feature_length=4, num_communities=4,
                            intra_fraction=1.0, seed=5)
        assert g.num_vertices == 200
        assert g.num_edges > 0

    def test_grid_graph_degrees(self):
        g = grid_graph(4, feature_length=4)
        assert g.num_vertices == 16
        degs = g.degrees()
        assert degs.max() == 4
        assert degs.min() == 2

    def test_star_graph(self):
        g = star_graph(10, feature_length=4)
        assert g.num_vertices == 11
        assert g.degree(0) == 10
        assert all(g.degree(v) == 1 for v in range(1, 11))

    def test_generators_validate_inputs(self):
        with pytest.raises(ValueError):
            grid_graph(1, feature_length=4)
        with pytest.raises(ValueError):
            star_graph(0, feature_length=4)
        with pytest.raises(ValueError):
            community_graph(10, 20, feature_length=4, num_communities=0)


class TestDatasetRegistry:
    def test_all_six_datasets_present(self):
        assert set(dataset_names()) == {"IB", "CR", "CS", "CL", "PB", "RD"}

    def test_table4_statistics_match_paper(self):
        assert DATASETS["CR"].num_vertices == 2708
        assert DATASETS["CR"].feature_length == 1433
        assert DATASETS["CS"].feature_length == 3703
        assert DATASETS["RD"].num_edges == 114_615_892
        assert DATASETS["CL"].num_vertices == 12_087
        assert DATASETS["PB"].num_vertices == 19_717
        assert DATASETS["IB"].num_edges == 28_624

    def test_load_dataset_respects_scale(self):
        g = load_dataset("CR", seed=0)
        spec = DATASETS["CR"]
        assert g.num_vertices == spec.scaled_vertices
        assert g.feature_length == spec.feature_length

    def test_load_dataset_scale_override(self):
        g = load_dataset("PB", scale_factor=8, seed=0)
        assert g.num_vertices == DATASETS["PB"].num_vertices // 8

    def test_load_dataset_feature_override(self):
        g = load_dataset("CS", feature_length=16, seed=0)
        assert g.feature_length == 16

    def test_load_dataset_cache_ignores_call_spelling(self):
        load_dataset.cache_clear()
        first = load_dataset("IB")
        spec = DATASETS["IB"]
        for graph in (load_dataset("IB", seed=0), load_dataset("IB", 0),
                      load_dataset(abbrev="IB", scale_factor=spec.scale_factor),
                      load_dataset("IB", feature_length=spec.feature_length)):
            assert graph is first
        assert load_dataset("IB", seed=1) is not first

    def test_load_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("XX")

    def test_scaled_average_degree_preserved(self):
        spec = DATASETS["CL"]
        g = load_dataset("CL", seed=0)
        scaled_target = spec.scaled_edges / spec.scaled_vertices
        # The generator drops self-loops and duplicates, so allow slack.
        assert g.num_edges / g.num_vertices >= 0.4 * scaled_target

    def test_dataset_table_rows(self):
        rows = dataset_table()
        assert len(rows) == 6
        assert all({"dataset", "num_vertices", "feature_length",
                    "num_edges", "storage_mb"} <= set(r) for r in rows)

    def test_storage_estimates_reasonable(self):
        # Cora is ~15MB in the paper; our 4-byte-feature estimate should be
        # within the same order of magnitude.
        assert 5 < DATASETS["CR"].storage_mb < 40
        assert DATASETS["RD"].storage_mb > 500
