"""Off-chip memory access handler and coordination (Section 4.5.2, Fig. 9).

Four buffers compete for the single HBM stack: the Edge and Input buffers of
the Aggregation Engine and the Weight and Output buffers of the Combination
Engine.  Their fill/drain requests arrive concurrently; handled naively the
interleaving destroys DRAM row-buffer locality and confines each stream to a
few banks.

The coordinated handler reorders each batch of concurrent requests by the
fixed priority ``edges > input features > weights > output features`` so same-
stream requests issue back to back (restoring row-buffer hits), and remaps the
reordered addresses so the low bits select channel and bank (exposing channel-
and bank-level parallelism).  The uncoordinated handler round-robins between
streams with a naive per-stream channel map -- the ablation baseline of
Fig. 17.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..hw.dram import DRAMStats, HBMModel, RequestBatch, Requests
from .config import HyGCNConfig

__all__ = ["AccessBatchResult", "MemoryAccessHandler", "ACCESS_PRIORITY"]

#: Fixed stream priority (Section 4.5.2).
ACCESS_PRIORITY: Tuple[str, ...] = (
    "edges", "input_features", "weights", "output_features",
)
_RANK = {stream: i for i, stream in enumerate(ACCESS_PRIORITY)}


@dataclass
class AccessBatchResult:
    """DRAM outcome of one concurrent request batch (one interval step)."""

    stats: DRAMStats
    cycles_by_stream: Dict[str, int]

    @property
    def total_cycles(self) -> int:
        return self.stats.busy_cycles

    def cycles_for(self, streams: Sequence[str]) -> int:
        """DRAM cycles attributable to the given streams."""
        return sum(self.cycles_by_stream.get(s, 0) for s in streams)


class MemoryAccessHandler:
    """Services request batches with or without access coordination."""

    def __init__(self, config: HyGCNConfig):
        self.config = config
        self.coordinated = config.enable_memory_coordination
        self.hbm = HBMModel(config.hbm, interleave_low_bits=self.coordinated)
        self.total_stats = DRAMStats()

    # ------------------------------------------------------------------ #
    def _order_requests(self, requests: Requests) -> RequestBatch:
        """Order a concurrent batch according to the coordination policy."""
        batch = RequestBatch.of(requests)
        if self.coordinated:
            # stable sort by priority; streams outside ACCESS_PRIORITY go last
            rank = np.array([_RANK.get(s, len(_RANK)) for s in batch.streams],
                            dtype=np.int64)
            return batch.take(np.argsort(rank[batch.stream], kind="stable"))
        # Uncoordinated: the engines' requests interleave as they arrive --
        # round-robin across streams models the worst-case fine-grained mix.
        # Round r issues the r-th request of every stream, streams in order
        # of first arrival: a sort by (position in stream, stream).
        first_seen = batch.first_seen()
        queue = np.zeros(len(batch.streams), dtype=np.int64)
        queue[first_seen] = np.arange(len(first_seen))
        queue = queue[batch.stream]
        by_queue = np.argsort(queue, kind="stable")
        sizes = np.bincount(queue, minlength=len(first_seen))
        position = np.empty_like(queue)
        position[by_queue] = np.arange(queue.size) - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        return batch.take(np.lexsort((queue, position)))

    # ------------------------------------------------------------------ #
    def service_batch(self, requests: Requests) -> AccessBatchResult:
        """Service one batch of concurrent requests and attribute cycles per stream."""
        if not len(requests):
            return AccessBatchResult(DRAMStats(), {})
        ordered = self._order_requests(requests)
        stats = self.hbm.service(ordered)
        self.total_stats = self.total_stats.merge(stats)
        # Attribute the busy time to streams proportionally to bytes moved:
        # the row-hit benefit of coordination is shared by all streams.
        bytes_by_stream = ordered.bytes_by_stream()
        total_bytes = sum(bytes_by_stream.values()) or 1
        cycles_by_stream = {
            stream: int(round(stats.busy_cycles * b / total_bytes))
            for stream, b in bytes_by_stream.items()
        }
        return AccessBatchResult(stats, cycles_by_stream)

    def bandwidth_utilization(self, elapsed_cycles: int) -> float:
        """Fraction of peak HBM bandwidth achieved over the whole run."""
        return self.total_stats.bandwidth_utilization(self.config.hbm, elapsed_cycles)

    def reset(self) -> None:
        """Forget DRAM state and counters between independent experiments."""
        self.hbm.reset()
        self.total_stats = DRAMStats()
