"""Benchmark dataset registry (Table 4 of the paper).

The registry describes the six evaluation datasets -- IMDB-BIN, Cora,
Citeseer, COLLAB, Pubmed and Reddit -- and materialises synthetic stand-ins
with matching statistics.  Reddit and COLLAB are scaled down (documented via
:attr:`DatasetSpec.scale_factor`) because a pure-Python transaction-level
simulator cannot sweep a 115-million-edge graph in CI; the scaling preserves
average degree and feature length, which are the properties the accelerator's
behaviour depends on.  The per-experiment effect of the scaling is recorded in
``EXPERIMENTS.md``.

Datasets come back CSC-backed (:class:`~repro.graphs.csc.CSCGraph`, via the
generators): structure and features are identical to the historical
object-core build, but the samplers' vectorized array paths engage on them
by default.  ``from_csc(load_dataset(...))`` recovers the object-core twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional

from .generators import community_graph, power_law_graph
from .graph import Graph

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_names", "dataset_table"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one benchmark dataset.

    Attributes
    ----------
    name / abbrev:
        Full and short names as used in the paper's figures (e.g. ``CR``).
    num_vertices / num_edges / feature_length:
        The published Table 4 statistics (full-scale, before any scaling).
    kind:
        ``"citation"`` (community structured), ``"social"`` (power-law) or
        ``"collaboration"``; selects the synthetic generator.
    multi_graph:
        Whether the dataset is a collection of small graphs (IMDB-BIN,
        COLLAB) that the paper assembles into one large graph before running.
    scale_factor:
        Down-scaling applied to the synthetic stand-in (1 = full size).
    """

    name: str
    abbrev: str
    num_vertices: int
    num_edges: int
    feature_length: int
    kind: str
    multi_graph: bool = False
    scale_factor: int = 1

    @property
    def scaled_vertices(self) -> int:
        return max(2, self.num_vertices // self.scale_factor)

    @property
    def scaled_edges(self) -> int:
        return max(2, self.num_edges // self.scale_factor)

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_vertices

    @property
    def storage_mb(self) -> float:
        """Approximate full-scale storage in MB (4-byte features + edges)."""
        feature_bytes = self.num_vertices * self.feature_length * 4
        edge_bytes = self.num_edges * 4
        return (feature_bytes + edge_bytes) / (1 << 20)


#: Table 4 of the paper.  Edge counts are the published (directed) counts.
DATASETS: Dict[str, DatasetSpec] = {
    "IB": DatasetSpec("IMDB-BIN", "IB", 2_647, 28_624, 136, "social",
                      multi_graph=True),
    "CR": DatasetSpec("Cora", "CR", 2_708, 10_556, 1_433, "citation"),
    "CS": DatasetSpec("Citeseer", "CS", 3_327, 9_104, 3_703, "citation"),
    "CL": DatasetSpec("COLLAB", "CL", 12_087, 1_446_010, 492, "collaboration",
                      multi_graph=True, scale_factor=8),
    "PB": DatasetSpec("Pubmed", "PB", 19_717, 88_648, 500, "citation",
                      scale_factor=2),
    "RD": DatasetSpec("Reddit", "RD", 232_965, 114_615_892, 602, "social",
                      scale_factor=128),
}

_GENERATORS: Dict[str, Callable[..., Graph]] = {
    "citation": community_graph,
    "social": power_law_graph,
    "collaboration": power_law_graph,
}


def dataset_names() -> list:
    """Return the dataset abbreviations in the order the paper plots them."""
    return list(DATASETS.keys())


def load_dataset(
    abbrev: str,
    seed: int = 0,
    scale_factor: Optional[int] = None,
    feature_length: Optional[int] = None,
) -> Graph:
    """Materialise a synthetic stand-in for one of the Table 4 datasets.

    Results are cached (datasets are immutable by convention) so benchmark
    sweeps that revisit the same dataset do not pay the generation cost again.
    The cache is keyed on the resolved arguments, so every spelling of one
    dataset (positional or keyword, defaults given or left out) shares one
    entry; ``load_dataset.cache_clear()`` empties it.

    Parameters
    ----------
    abbrev:
        Dataset abbreviation (``IB``, ``CR``, ``CS``, ``CL``, ``PB``, ``RD``).
    seed:
        RNG seed so experiments are reproducible.
    scale_factor:
        Override the registry's default down-scaling (1 = full published size).
    feature_length:
        Override the feature length (used by a few unit tests).
    """
    if abbrev not in DATASETS:
        raise KeyError(f"unknown dataset {abbrev!r}; known: {sorted(DATASETS)}")
    spec = DATASETS[abbrev]
    factor = spec.scale_factor if scale_factor is None else max(1, scale_factor)
    flen = spec.feature_length if feature_length is None else feature_length
    return _generate_dataset(abbrev, seed, factor, flen)


@lru_cache(maxsize=32)
def _generate_dataset(abbrev: str, seed: int, factor: int, flen: int) -> Graph:
    spec = DATASETS[abbrev]
    num_vertices = max(2, spec.num_vertices // factor)
    num_edges = max(2, spec.num_edges // factor)
    generator = _GENERATORS[spec.kind]
    kwargs = {}
    if spec.kind == "citation":
        kwargs["num_communities"] = max(4, num_vertices // 256)
    else:
        kwargs["skew"] = 1.3 if spec.abbrev in ("CL", "RD") else 1.1
    return generator(
        num_vertices, num_edges, flen, seed=seed, name=spec.name, **kwargs
    )


load_dataset.cache_clear = _generate_dataset.cache_clear


def dataset_table() -> list:
    """Return Table 4 as a list of row dictionaries (full-scale statistics)."""
    rows = []
    for spec in DATASETS.values():
        rows.append({
            "dataset": f"{spec.name} ({spec.abbrev})",
            "num_vertices": spec.num_vertices,
            "feature_length": spec.feature_length,
            "num_edges": spec.num_edges,
            "storage_mb": round(spec.storage_mb, 1),
        })
    return rows
