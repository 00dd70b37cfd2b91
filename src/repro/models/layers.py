"""Phase-level building blocks shared by all GCN models.

A GCN layer is split into the two phases the paper's whole architecture is
organised around:

* :class:`AggregationPhase` -- the graph-structure-dependent reduction over
  each vertex's (possibly sampled) neighbourhood.  Several reduction operators
  are supported (``add``, ``mean``, ``max``, ``min``) plus the normalised sum
  used by vanilla GCN and the self-weighted sum used by GIN.
* :class:`CombinationPhase` -- the dense MLP applied per vertex, i.e. one or
  more matrix-vector multiplies with shared weights followed by an activation.

Keeping the phases explicit (rather than fusing them into a single ``forward``)
lets the accelerator simulator, the baselines and the characterisation harness
all consume the same workload description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs.sampling import NeighborSampler, SamplingConfig

__all__ = [
    "relu",
    "softmax",
    "AggregationPhase",
    "CombinationPhase",
    "MLP",
    "LayerWorkload",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


_REDUCERS = ("add", "mean", "max", "min", "gcn_norm", "gin_sum")


@dataclass
class AggregationPhase:
    """The Aggregate function of one GCN layer.

    Parameters
    ----------
    reducer:
        One of ``add``, ``mean``, ``max``, ``min`` (element-wise reductions),
        ``gcn_norm`` (the 1/sqrt(Dv*Du) weighted sum of Eq. 4) or ``gin_sum``
        (the (1+eps)*h_v + sum of Eq. 6).
    include_self:
        Whether the vertex's own feature participates in the reduction.  GCN
        and GraphSage include it; GIN handles it through the (1+eps) term.
    epsilon:
        The learnable epsilon of GINConv (only used by ``gin_sum``).
    sampling:
        Optional neighbour sampling applied before aggregation.
    """

    reducer: str = "add"
    include_self: bool = True
    epsilon: float = 0.0
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        if self.reducer not in _REDUCERS:
            raise ValueError(f"unknown reducer {self.reducer!r}; choose from {_REDUCERS}")

    # ------------------------------------------------------------------ #
    def _neighbors(self, graph: Graph, sampler: Optional[NeighborSampler], v: int) -> np.ndarray:
        neighbors = graph.in_neighbors(v)
        if sampler is not None:
            neighbors = sampler.sample_neighbors(neighbors)
        return neighbors

    def forward(self, graph: Graph, features: np.ndarray) -> np.ndarray:
        """Aggregate ``features`` over ``graph``; returns the per-vertex a_v matrix."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != graph.num_vertices:
            raise ValueError("feature rows must match vertex count")
        sampler = NeighborSampler(self.sampling) if self.sampling and self.sampling.enabled else None
        out = np.zeros_like(features)
        degrees = graph.csc.in_degrees()
        for v in range(graph.num_vertices):
            neighbors = self._neighbors(graph, sampler, v)
            out[v] = self._reduce_vertex(features, degrees, v, neighbors)
        return out

    def _reduce_vertex(
        self,
        features: np.ndarray,
        degrees: np.ndarray,
        v: int,
        neighbors: np.ndarray,
    ) -> np.ndarray:
        self_feat = features[v]
        if self.reducer == "gcn_norm":
            # Eq. 4: sum over N(v) ∪ {v} weighted by 1/sqrt(Dv*Du), with the
            # degree convention D = in-degree + 1 (self loop).
            dv = degrees[v] + 1.0
            acc = self_feat / dv
            for u in neighbors:
                du = degrees[u] + 1.0
                acc = acc + features[u] / np.sqrt(dv * du)
            return acc
        if self.reducer == "gin_sum":
            acc = (1.0 + self.epsilon) * self_feat
            for u in neighbors:
                acc = acc + features[u]
            return acc
        gathered = [features[u] for u in neighbors]
        if self.include_self:
            gathered.append(self_feat)
        if not gathered:
            return np.zeros_like(self_feat)
        stacked = np.stack(gathered)
        if self.reducer == "add":
            return stacked.sum(axis=0)
        if self.reducer == "mean":
            return stacked.mean(axis=0)
        if self.reducer == "max":
            return stacked.max(axis=0)
        return stacked.min(axis=0)

    # ------------------------------------------------------------------ #
    def operation_count(self, graph: Graph, feature_length: int) -> int:
        """Number of scalar reduction operations performed (for workload models)."""
        degrees = np.diff(graph.csc.indptr)
        if self.sampling is not None and self.sampling.enabled:
            degrees = NeighborSampler(self.sampling).kept_degrees(degrees)
        total_edges = int(degrees.sum())
        per_edge = feature_length
        self_ops = graph.num_vertices * feature_length if self.include_self or \
            self.reducer in ("gcn_norm", "gin_sum") else 0
        return total_edges * per_edge + self_ops


class MLP:
    """A small multi-layer perceptron with shared weights across vertices."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        activation: str = "relu",
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        if activation not in ("relu", "none"):
            raise ValueError("activation must be 'relu' or 'none'")
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.activation = activation
        rng = np.random.default_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray, activate_last: bool = True) -> np.ndarray:
        """Apply the MLP row-wise to ``x`` (shape ``(N, input_size)``)."""
        out = np.asarray(x, dtype=np.float64)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = out @ w + b
            is_last = i == self.num_layers - 1
            if self.activation == "relu" and (activate_last or not is_last):
                out = relu(out)
        return out

    def mac_count(self, num_vertices: int) -> int:
        """Multiply-accumulate operations to process ``num_vertices`` vertices."""
        per_vertex = sum(w.shape[0] * w.shape[1] for w in self.weights)
        return num_vertices * per_vertex

    def parameter_count(self) -> int:
        """Number of weight + bias scalars (the fully shared inter-vertex data)."""
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def parameter_bytes(self, bytes_per_value: int = 4) -> int:
        """Footprint of the shared parameters."""
        return self.parameter_count() * bytes_per_value


@dataclass
class CombinationPhase:
    """The Combine function of one GCN layer: an MLP shared across vertices."""

    mlp: MLP
    activate_last: bool = True

    def forward(self, aggregated: np.ndarray) -> np.ndarray:
        """Transform aggregated features into the layer's output features."""
        return self.mlp.forward(aggregated, activate_last=self.activate_last)

    @property
    def input_size(self) -> int:
        return self.mlp.input_size

    @property
    def output_size(self) -> int:
        return self.mlp.output_size

    def mac_count(self, num_vertices: int) -> int:
        """MACs required to combine ``num_vertices`` vertices."""
        return self.mlp.mac_count(num_vertices)


@dataclass
class LayerWorkload:
    """A phase-level description of one GCN layer on one graph.

    This is the unit of work handed to the accelerator simulator and the
    baselines: which graph, which reduction, which MLP, in which order
    (GIN aggregates first at full feature length; GCN/GraphSage combine
    first which shortens the feature vector before aggregation -- the paper
    leans on this distinction when explaining Fig. 10c).
    """

    name: str
    graph: Graph
    aggregation: AggregationPhase
    combination: CombinationPhase
    aggregate_first: bool = True
    in_feature_length: int = 0
    out_feature_length: int = 0

    def __post_init__(self) -> None:
        if self.in_feature_length <= 0:
            self.in_feature_length = self.graph.feature_length
        if self.out_feature_length <= 0:
            self.out_feature_length = self.combination.output_size

    @property
    def aggregation_feature_length(self) -> int:
        """Feature length seen by the Aggregation phase."""
        return self.in_feature_length if self.aggregate_first else self.out_feature_length

    def aggregation_ops(self) -> int:
        """Scalar reduction operation count for the aggregation phase."""
        return self.aggregation.operation_count(self.graph, self.aggregation_feature_length)

    def combination_macs(self) -> int:
        """MAC count for the combination phase."""
        return self.combination.mac_count(self.graph.num_vertices)
