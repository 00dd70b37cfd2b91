"""Simplified High Bandwidth Memory (HBM) model.

The paper integrates Ramulator to simulate an HBM 1.0 stack (256 GB/s,
Table 6) and charges 7 pJ/bit per access (Section 5.1).  This module provides
the stand-in: a transaction-level DRAM model with channels, banks and open-row
(row-buffer) state.  It is deliberately simple -- fixed row activate/precharge
/CAS latencies, per-channel data buses, no refresh -- but it preserves the two
effects the evaluation depends on:

* row-buffer locality: consecutive requests to the same row are much cheaper,
  which is what the priority-based access coordination (Section 4.5.2 /
  Fig. 17) improves;
* channel/bank-level parallelism: the coordinator remaps addresses so the low
  bits select channel and bank, letting independent streams proceed in
  parallel.

Requests travel as a :class:`RequestBatch`: one int64 column per request
field instead of one :class:`MemoryRequest` object per row-buffer chunk, so
chunking, ordering and service are array operations.  A plain sequence of
:class:`MemoryRequest` is still accepted wherever a batch is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

__all__ = ["HBMConfig", "MemoryRequest", "RequestBatch", "Requests", "DRAMStats",
           "HBMModel"]

#: Size of each stream's address region: 1 TiB keeps regions disjoint for
#: any realistic input, so rows from different streams never alias.
_REGION_BYTES = 1 << 40


@dataclass(frozen=True)
class HBMConfig:
    """Timing/geometry parameters of the HBM stack (in accelerator cycles @ 1 GHz)."""

    num_channels: int = 8
    banks_per_channel: int = 16
    row_buffer_bytes: int = 2048
    #: data bus width per channel in bytes transferred per accelerator cycle;
    #: 8 channels x 32 B/cycle = 256 GB/s at 1 GHz, matching Table 6.
    channel_bytes_per_cycle: int = 32
    #: row activate latency (tRCD) in cycles
    activate_cycles: int = 14
    #: precharge latency (tRP) in cycles
    precharge_cycles: int = 14
    #: column access latency (tCAS) in cycles
    cas_cycles: int = 14
    #: energy per bit moved across the HBM interface (picojoules)
    energy_pj_per_bit: float = 7.0

    @property
    def peak_bandwidth_bytes_per_cycle(self) -> int:
        """Aggregate peak bandwidth across all channels."""
        return self.num_channels * self.channel_bytes_per_cycle

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak bandwidth in GB/s assuming a 1 GHz accelerator clock."""
        return self.peak_bandwidth_bytes_per_cycle  # bytes/ns == GB/s


@dataclass
class MemoryRequest:
    """One off-chip access issued by a buffer's fill/drain engine.

    ``stream`` identifies the logical data stream (``edges``, ``input_features``,
    ``weights``, ``output_features``), which the memory handler uses for its
    priority ordering; ``address`` is a byte address in the flat physical
    space of that stream.
    """

    stream: str
    address: int
    num_bytes: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if self.address < 0:
            raise ValueError("address must be non-negative")


class RequestBatch:
    """A sequence of DRAM requests stored column-wise.

    ``stream`` holds, per request, an index into the ``streams`` name tuple;
    ``address``, ``num_bytes`` and ``is_write`` are the other
    :class:`MemoryRequest` fields.  Sequence order is request order.
    Iterating yields :class:`MemoryRequest` objects, and the constructor
    applies the same checks as :class:`MemoryRequest`.
    """

    __slots__ = ("streams", "stream", "address", "num_bytes", "is_write")

    def __init__(self, streams: Sequence[str], stream, address, num_bytes, is_write):
        self.streams = tuple(streams)
        self.stream = np.asarray(stream, dtype=np.int64)
        self.address = np.asarray(address, dtype=np.int64)
        self.num_bytes = np.asarray(num_bytes, dtype=np.int64)
        self.is_write = np.asarray(is_write, dtype=bool)
        if self.num_bytes.size and self.num_bytes.min() <= 0:
            raise ValueError("num_bytes must be positive")
        if self.address.size and self.address.min() < 0:
            raise ValueError("address must be non-negative")

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "RequestBatch":
        return cls((), [], [], [], [])

    @classmethod
    def of(cls, requests: "Requests") -> "RequestBatch":
        """``requests`` as a batch (a batch is returned as is)."""
        if isinstance(requests, RequestBatch):
            return requests
        codes: Dict[str, int] = {}
        for request in requests:
            codes.setdefault(request.stream, len(codes))
        return cls(
            tuple(codes),
            np.array([codes[r.stream] for r in requests], dtype=np.int64),
            np.array([r.address for r in requests], dtype=np.int64),
            np.array([r.num_bytes for r in requests], dtype=np.int64),
            np.array([r.is_write for r in requests], dtype=bool))

    @classmethod
    def from_runs(cls, stream: str, starts, sizes, granularity: int,
                  is_write: bool = False) -> "RequestBatch":
        """Split contiguous transfers into ``granularity``-sized requests.

        Run ``i`` covers ``sizes[i]`` bytes from address ``starts[i]``; each
        becomes consecutive requests of ``granularity`` bytes, the last one
        carrying the remainder.  Runs are emitted in order and runs of no
        bytes emit nothing.
        """
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        counts = np.where(sizes > 0, -(-sizes // granularity), 0)
        run = np.repeat(np.arange(sizes.size), counts)
        first_chunk = np.cumsum(counts) - counts
        offset = (np.arange(run.size) - first_chunk[run]) * granularity
        return cls(
            (stream,), np.zeros(run.size, dtype=np.int64), starts[run] + offset,
            np.minimum(granularity, sizes[run] - offset),
            np.full(run.size, is_write, dtype=bool))

    @classmethod
    def concat(cls, batches: Sequence["RequestBatch"]) -> "RequestBatch":
        """The requests of ``batches`` one after the other."""
        batches = [b for b in batches if len(b)]
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty()
        codes: Dict[str, int] = {}
        for batch in batches:
            for name in batch.streams:
                codes.setdefault(name, len(codes))
        stream = np.concatenate([
            np.array([codes[n] for n in b.streams], dtype=np.int64)[b.stream]
            for b in batches])
        return cls(
            tuple(codes), stream,
            np.concatenate([b.address for b in batches]),
            np.concatenate([b.num_bytes for b in batches]),
            np.concatenate([b.is_write for b in batches]))

    def take(self, order) -> "RequestBatch":
        """The requests selected (and ordered) by an index array or slice."""
        return RequestBatch(
            self.streams, self.stream[order], self.address[order],
            self.num_bytes[order], self.is_write[order])

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.address.size)

    def __iter__(self) -> Iterator[MemoryRequest]:
        for code, address, num_bytes, is_write in zip(
                self.stream.tolist(), self.address.tolist(),
                self.num_bytes.tolist(), self.is_write.tolist()):
            yield MemoryRequest(self.streams[code], address, num_bytes, is_write)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return MemoryRequest(self.streams[self.stream[index]], int(self.address[index]),
                             int(self.num_bytes[index]), bool(self.is_write[index]))

    @property
    def total_bytes(self) -> int:
        return int(self.num_bytes.sum())

    def first_seen(self) -> List[int]:
        """Stream codes in order of each stream's first request."""
        if not self.stream.size:
            return []
        # a stream's first request starts one of the runs of equal codes
        heads = self.stream[1:][self.stream[1:] != self.stream[:-1]]
        return list(dict.fromkeys([int(self.stream[0])] + heads.tolist()))

    def bytes_by_stream(self) -> Dict[str, int]:
        """Bytes per stream name, keyed in order of first request."""
        sums = np.zeros(len(self.streams), dtype=np.int64)
        np.add.at(sums, self.stream, self.num_bytes)
        return {self.streams[c]: int(sums[c]) for c in self.first_seen()}


#: What the request-servicing entry points accept.
Requests = Union[RequestBatch, Sequence[MemoryRequest]]


@dataclass
class DRAMStats:
    """Aggregate statistics over a sequence of serviced requests."""

    requests: int = 0
    bytes_transferred: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_cycles: int = 0          # max over channels (critical path)
    total_channel_cycles: int = 0  # sum over channels (for utilisation)
    energy_pj: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def bandwidth_utilization(self, config: HBMConfig,
                              elapsed_cycles: Optional[int] = None) -> float:
        """Achieved fraction of peak bandwidth over ``elapsed_cycles``.

        If ``elapsed_cycles`` is omitted the DRAM busy time is used, i.e. the
        utilisation *while transferring*.
        """
        cycles = elapsed_cycles if elapsed_cycles else self.busy_cycles
        if not cycles:
            return 0.0
        peak = config.peak_bandwidth_bytes_per_cycle * cycles
        return min(1.0, self.bytes_transferred / peak)

    def merge(self, other: "DRAMStats") -> "DRAMStats":
        """Combine stats from two phases executed back to back."""
        return DRAMStats(
            requests=self.requests + other.requests,
            bytes_transferred=self.bytes_transferred + other.bytes_transferred,
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            busy_cycles=self.busy_cycles + other.busy_cycles,
            total_channel_cycles=self.total_channel_cycles + other.total_channel_cycles,
            energy_pj=self.energy_pj + other.energy_pj,
        )


class HBMModel:
    """Transaction-level HBM stack with open-row policy.

    Requests are serviced in the order given, each mapped to a (channel, bank,
    row) triple.  Channels operate in parallel: the model accumulates busy
    cycles per channel and reports the maximum as the critical-path DRAM time.
    """

    def __init__(self, config: Optional[HBMConfig] = None,
                 interleave_low_bits: bool = True):
        self.config = config or HBMConfig()
        #: when True, consecutive row-buffer-sized blocks rotate across
        #: channels/banks (the coordinator's low-bit remapping); when False,
        #: each stream is confined to a channel subset, modelling the naive
        #: address map used in the no-coordination ablation.
        self.interleave_low_bits = interleave_low_bits
        #: open row of every (channel, bank); -1 when the bank is closed
        self._open_rows = np.full(
            (self.config.num_channels, self.config.banks_per_channel), -1,
            dtype=np.int64)
        #: distinct streams get distinct high-order address regions so rows
        #: from different streams never alias.
        self._stream_regions: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _stream_base(self, stream: str) -> int:
        if stream not in self._stream_regions:
            self._stream_regions[stream] = len(self._stream_regions) * _REGION_BYTES
        return self._stream_regions[stream]

    def _map_addresses(self, batch: RequestBatch):
        """Map every request to its (channel, bank, row) arrays.

        Streams get their address regions in order of first request.
        """
        cfg = self.config
        base = np.zeros(len(batch.streams), dtype=np.int64)
        for code in batch.first_seen():
            base[code] = self._stream_base(batch.streams[code])
        block = (base[batch.stream] + batch.address) // cfg.row_buffer_bytes
        if self.interleave_low_bits:
            upper, channel = np.divmod(block, cfg.num_channels)
            row, bank = np.divmod(upper, cfg.banks_per_channel)
        else:
            # Naive map: the stream id picks the channel, so concurrent streams
            # collide on a few channels and banks see frequent row conflicts.
            stream_index = base // _REGION_BYTES
            channel = stream_index[batch.stream] % cfg.num_channels
            row, bank = np.divmod(block, cfg.banks_per_channel)
        return channel, bank, row

    # ------------------------------------------------------------------ #
    def service(self, requests: Requests) -> DRAMStats:
        """Service ``requests`` in order and return the aggregate statistics.

        Each request hits when its bank's open row -- left by the previous
        request to that bank, in this call or an earlier one -- is its row.
        """
        cfg = self.config
        batch = RequestBatch.of(requests)
        if not len(batch):
            return DRAMStats()
        channel, bank, row = self._map_addresses(batch)
        # requests to one bank are serviced in request order: a stable sort
        # by bank makes each bank's accesses one contiguous run
        flat_bank = channel * cfg.banks_per_channel + bank
        order = np.argsort(flat_bank, kind="stable")
        flat_bank, row = flat_bank[order], row[order]
        new_bank = np.ones(row.size, dtype=bool)
        new_bank[1:] = flat_bank[1:] != flat_bank[:-1]
        open_rows = self._open_rows.reshape(-1)
        previous = np.where(new_bank, open_rows[flat_bank],
                            np.concatenate(([-1], row[:-1])))
        hit = row == previous
        last = np.append(new_bank[1:], True)
        open_rows[flat_bank[last]] = row[last]

        transfer = -(-batch.num_bytes[order] // cfg.channel_bytes_per_cycle)
        latency = cfg.cas_cycles + transfer + np.where(
            hit, 0, cfg.precharge_cycles + cfg.activate_cycles)
        channel_busy = np.zeros(cfg.num_channels, dtype=np.int64)
        np.add.at(channel_busy, flat_bank // cfg.banks_per_channel, latency)
        row_hits = int(np.count_nonzero(hit))
        # accumulated in request order, as one running float sum
        energy = np.cumsum(batch.num_bytes * 8 * float(cfg.energy_pj_per_bit))
        return DRAMStats(
            requests=len(batch),
            bytes_transferred=batch.total_bytes,
            row_hits=row_hits,
            row_misses=len(batch) - row_hits,
            busy_cycles=int(channel_busy.max()),
            total_channel_cycles=int(channel_busy.sum()),
            energy_pj=float(energy[-1]),
        )

    def service_stream(self, stream: str, total_bytes: int,
                       access_granularity: int = 64,
                       sequential: bool = True,
                       is_write: bool = False) -> DRAMStats:
        """Convenience helper: service ``total_bytes`` of one stream.

        ``sequential`` requests walk consecutive addresses (high row-buffer
        locality); non-sequential requests stride by one row buffer per access
        (every access misses), which approximates the random neighbour-feature
        gathers of the Aggregation phase without sparsity optimisations.
        """
        if total_bytes <= 0:
            return DRAMStats()
        stride = access_granularity if sequential else self.config.row_buffer_bytes
        index = np.arange(-(-total_bytes // access_granularity), dtype=np.int64)
        return self.service(RequestBatch(
            (stream,), np.zeros_like(index), index * stride,
            np.minimum(access_granularity, total_bytes - index * access_granularity),
            np.full(index.size, is_write, dtype=bool)))

    def reset(self) -> None:
        """Close all rows (e.g. between independent experiments)."""
        self._open_rows.fill(-1)
