"""Unit tests for the phase-level building blocks (Aggregation, Combination, MLP)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (Graph, NeighborSampler, SamplingConfig, erdos_renyi_graph,
                          power_law_graph)
from repro.graphs.csc import from_csc, to_csc
from repro.models import AggregationPhase, CombinationPhase, MLP, relu, softmax
from repro.models.layers import LayerWorkload


def path_graph(n=4, feature_length=3):
    edges = [(i, i + 1) for i in range(n - 1)]
    features = np.arange(n * feature_length, dtype=float).reshape(n, feature_length)
    return Graph.from_edge_list(edges, n, features=features, name="path")


class TestActivations:
    def test_relu_clips_negative(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        out = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    def test_softmax_stable_for_large_values(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestAggregationPhase:
    def test_add_reducer_includes_self(self):
        g = path_graph(3, feature_length=1)
        phase = AggregationPhase(reducer="add", include_self=True)
        out = phase.forward(g, g.features)
        # vertex 1 has neighbours 0 and 2 plus itself
        assert out[1, 0] == pytest.approx(g.features[[0, 1, 2], 0].sum())

    def test_add_reducer_excludes_self(self):
        g = path_graph(3, feature_length=1)
        phase = AggregationPhase(reducer="add", include_self=False)
        out = phase.forward(g, g.features)
        assert out[1, 0] == pytest.approx(g.features[[0, 2], 0].sum())

    def test_mean_max_min_reducers(self):
        g = path_graph(3, feature_length=1)
        feats = np.array([[1.0], [5.0], [9.0]])
        mean = AggregationPhase(reducer="mean").forward(g, feats)
        mx = AggregationPhase(reducer="max").forward(g, feats)
        mn = AggregationPhase(reducer="min").forward(g, feats)
        assert mean[1, 0] == pytest.approx(5.0)
        assert mx[1, 0] == pytest.approx(9.0)
        assert mn[1, 0] == pytest.approx(1.0)

    def test_gcn_norm_matches_dense_formula(self):
        g = path_graph(4, feature_length=2)
        phase = AggregationPhase(reducer="gcn_norm")
        out = phase.forward(g, g.features)
        # Dense reference: A_hat = A + I, D from A_hat, D^-1/2 A_hat D^-1/2 X
        a_hat = g.adjacency_dense() + np.eye(4)
        d = a_hat.sum(axis=1)
        norm = a_hat / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(out, norm @ g.features, rtol=1e-9)

    def test_gin_sum_epsilon(self):
        g = path_graph(3, feature_length=1)
        feats = np.array([[1.0], [2.0], [4.0]])
        phase = AggregationPhase(reducer="gin_sum", epsilon=0.5)
        out = phase.forward(g, feats)
        assert out[1, 0] == pytest.approx(1.5 * 2.0 + 1.0 + 4.0)

    def test_isolated_vertex_add(self):
        g = Graph.from_edge_list([(0, 1)], 3, feature_length=2)
        phase = AggregationPhase(reducer="add", include_self=False)
        out = phase.forward(g, g.features)
        np.testing.assert_array_equal(out[2], np.zeros(2))

    def test_isolated_vertex_max_is_self_or_zero(self):
        g = Graph.from_edge_list([(0, 1)], 3, feature_length=2)
        out = AggregationPhase(reducer="max", include_self=True).forward(g, g.features)
        np.testing.assert_array_equal(out[2], g.features[2])

    def test_sampling_reduces_operation_count(self):
        g = erdos_renyi_graph(64, 1024, feature_length=4, seed=0)
        full = AggregationPhase(reducer="add")
        sampled = AggregationPhase(reducer="add",
                                   sampling=SamplingConfig(max_neighbors=2, seed=0))
        assert sampled.operation_count(g, 4) < full.operation_count(g, 4)

    def test_operation_count_formula(self):
        g = path_graph(3, feature_length=1)
        phase = AggregationPhase(reducer="add", include_self=True)
        # edges contribute per-element ops, plus one self op per vertex
        flen = 5
        assert phase.operation_count(g, flen) == g.num_edges * flen + g.num_vertices * flen

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 50), strategy=st.sampled_from(["uniform", "strided"]),
           max_neighbors=st.one_of(st.none(), st.integers(1, 12)),
           sampling_factor=st.integers(1, 5), csc=st.booleans(),
           reducer=st.sampled_from(["add", "gcn_norm"]))
    def test_operation_count_matches_per_vertex_sampling(
            self, seed, strategy, max_neighbors, sampling_factor, csc, reducer):
        g = to_csc(power_law_graph(80, 900, feature_length=3, seed=seed))
        if not csc:
            g = from_csc(g)
        sampling = SamplingConfig(max_neighbors=max_neighbors,
                                  sampling_factor=sampling_factor,
                                  strategy=strategy, seed=seed)
        phase = AggregationPhase(reducer=reducer, include_self=False,
                                 sampling=sampling)
        # reference: sample every vertex's neighbour list and count
        sampler = NeighborSampler(sampling)
        edges = sum(len(sampler.sample_neighbors(g.in_neighbors(v))) if sampling.enabled
                    else len(g.in_neighbors(v)) for v in range(g.num_vertices))
        self_ops = g.num_vertices * 7 if reducer == "gcn_norm" else 0
        assert phase.operation_count(g, 7) == edges * 7 + self_ops

    def test_unknown_reducer_rejected(self):
        with pytest.raises(ValueError):
            AggregationPhase(reducer="median")

    def test_feature_shape_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            AggregationPhase().forward(g, np.zeros((5, 3)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10))
    def test_property_add_aggregation_is_linear(self, seed):
        g = erdos_renyi_graph(16, 48, feature_length=3, seed=seed)
        phase = AggregationPhase(reducer="add")
        x = np.random.default_rng(seed).standard_normal((16, 3))
        y = np.random.default_rng(seed + 1).standard_normal((16, 3))
        np.testing.assert_allclose(
            phase.forward(g, x + y),
            phase.forward(g, x) + phase.forward(g, y),
            atol=1e-9,
        )


class TestMLP:
    def test_shapes(self):
        mlp = MLP([8, 16, 4], seed=0)
        out = mlp.forward(np.zeros((5, 8)))
        assert out.shape == (5, 4)

    def test_relu_applied(self):
        mlp = MLP([2, 2], seed=0)
        mlp.weights[0] = -np.eye(2)
        mlp.biases[0] = np.zeros(2)
        out = mlp.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_no_activation_mode(self):
        mlp = MLP([2, 2], activation="none", seed=0)
        mlp.weights[0] = -np.eye(2)
        out = mlp.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[-1.0, -2.0]])

    def test_mac_and_parameter_counts(self):
        mlp = MLP([10, 20, 5], seed=0)
        assert mlp.mac_count(num_vertices=3) == 3 * (10 * 20 + 20 * 5)
        assert mlp.parameter_count() == 10 * 20 + 20 + 20 * 5 + 5
        assert mlp.parameter_bytes() == mlp.parameter_count() * 4

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([8])

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            MLP([2, 2], activation="tanh")


class TestCombinationPhaseAndWorkload:
    def test_combination_forward_shape(self):
        comb = CombinationPhase(MLP([4, 8], seed=0))
        out = comb.forward(np.ones((3, 4)))
        assert out.shape == (3, 8)
        assert comb.input_size == 4 and comb.output_size == 8

    def test_workload_feature_lengths(self):
        g = path_graph(4, feature_length=6)
        wl = LayerWorkload(
            name="l0",
            graph=g,
            aggregation=AggregationPhase(reducer="add"),
            combination=CombinationPhase(MLP([6, 2], seed=0)),
            aggregate_first=True,
        )
        assert wl.in_feature_length == 6
        assert wl.out_feature_length == 2
        assert wl.aggregation_feature_length == 6

    def test_workload_combine_first_shortens_aggregation(self):
        g = path_graph(4, feature_length=6)
        wl = LayerWorkload(
            name="l0",
            graph=g,
            aggregation=AggregationPhase(reducer="add"),
            combination=CombinationPhase(MLP([6, 2], seed=0)),
            aggregate_first=False,
        )
        assert wl.aggregation_feature_length == 2
        assert wl.aggregation_ops() < g.num_edges * 6 + g.num_vertices * 6

    def test_workload_counts_positive(self):
        g = path_graph(4, feature_length=6)
        wl = LayerWorkload(
            name="l0", graph=g,
            aggregation=AggregationPhase(reducer="add"),
            combination=CombinationPhase(MLP([6, 2], seed=0)),
        )
        assert wl.combination_macs() == 4 * 6 * 2
        assert wl.aggregation_ops() > 0
