"""Per-request reference implementation of the DRAM request path.

These are the object-at-a-time loops the columnar path in
:mod:`repro.hw.dram` and :mod:`repro.core.memory_handler` replaced, kept
as the oracle the differential tests compare against: chunking a transfer
into row-buffer requests, ordering a concurrent batch (priority sort or
round-robin) and servicing requests one by one against open-row state.
"""

from typing import Dict, List, Sequence

from repro.core.memory_handler import ACCESS_PRIORITY
from repro.hw.dram import DRAMStats, HBMConfig, MemoryRequest


def reference_chunk(stream: str, base_address: int, total_bytes: int,
                    granularity: int, is_write: bool = False) -> List[MemoryRequest]:
    """Split a contiguous transfer into row-buffer-sized DRAM requests."""
    requests = []
    offset = 0
    while offset < total_bytes:
        chunk = min(granularity, total_bytes - offset)
        requests.append(MemoryRequest(stream, base_address + offset, chunk, is_write))
        offset += chunk
    return requests


def reference_order(requests: Sequence[MemoryRequest],
                    coordinated: bool) -> List[MemoryRequest]:
    """Order a concurrent batch according to the coordination policy."""
    if coordinated:
        rank = {stream: i for i, stream in enumerate(ACCESS_PRIORITY)}
        return sorted(requests, key=lambda r: rank.get(r.stream, len(rank)))
    by_stream: Dict[str, List[MemoryRequest]] = {}
    for request in requests:
        by_stream.setdefault(request.stream, []).append(request)
    ordered: List[MemoryRequest] = []
    queues = [list(q) for q in by_stream.values()]
    index = 0
    while any(queues):
        queue = queues[index % len(queues)]
        if queue:
            ordered.append(queue.pop(0))
        index += 1
    return ordered


class ReferenceHBM:
    """The transaction-level HBM model, one request at a time."""

    def __init__(self, config: HBMConfig, interleave_low_bits: bool = True):
        self.config = config
        self.interleave_low_bits = interleave_low_bits
        self.open_rows = [[-1] * config.banks_per_channel
                          for _ in range(config.num_channels)]
        self.stream_regions: Dict[str, int] = {}

    def _stream_base(self, stream: str) -> int:
        if stream not in self.stream_regions:
            self.stream_regions[stream] = len(self.stream_regions) * (1 << 40)
        return self.stream_regions[stream]

    def _map_address(self, request: MemoryRequest) -> tuple:
        cfg = self.config
        address = self._stream_base(request.stream) + request.address
        block = address // cfg.row_buffer_bytes
        if self.interleave_low_bits:
            channel = block % cfg.num_channels
            bank = (block // cfg.num_channels) % cfg.banks_per_channel
            row = block // (cfg.num_channels * cfg.banks_per_channel)
        else:
            stream_index = list(self.stream_regions).index(request.stream)
            channel = stream_index % cfg.num_channels
            bank = block % cfg.banks_per_channel
            row = block // cfg.banks_per_channel
        return channel, bank, row

    def service(self, requests: Sequence[MemoryRequest]) -> DRAMStats:
        cfg = self.config
        stats = DRAMStats()
        channel_busy = [0] * cfg.num_channels
        for request in requests:
            channel, bank, row = self._map_address(request)
            open_row = self.open_rows[channel][bank]
            transfer = -(-request.num_bytes // cfg.channel_bytes_per_cycle)
            if open_row == row:
                latency = cfg.cas_cycles + transfer
                stats.row_hits += 1
            else:
                latency = (cfg.precharge_cycles + cfg.activate_cycles
                           + cfg.cas_cycles + transfer)
                stats.row_misses += 1
                self.open_rows[channel][bank] = row
            channel_busy[channel] += latency
            stats.requests += 1
            stats.bytes_transferred += request.num_bytes
            stats.energy_pj += request.num_bytes * 8 * cfg.energy_pj_per_bit
        stats.busy_cycles = max(channel_busy) if channel_busy else 0
        stats.total_channel_cycles = sum(channel_busy)
        return stats


class ReferenceHandler:
    """The memory access handler over :class:`ReferenceHBM`."""

    def __init__(self, config: HBMConfig, coordinated: bool):
        self.coordinated = coordinated
        self.hbm = ReferenceHBM(config, interleave_low_bits=coordinated)

    def service_batch(self, requests: Sequence[MemoryRequest]):
        """``(stats, cycles_by_stream)`` of one concurrent batch."""
        if not requests:
            return DRAMStats(), {}
        ordered = reference_order(requests, self.coordinated)
        stats = self.hbm.service(ordered)
        bytes_by_stream: Dict[str, int] = {}
        for request in ordered:
            bytes_by_stream[request.stream] = bytes_by_stream.get(request.stream, 0) \
                + request.num_bytes
        total_bytes = sum(bytes_by_stream.values()) or 1
        cycles_by_stream = {
            stream: int(round(stats.busy_cycles * b / total_bytes))
            for stream, b in bytes_by_stream.items()
        }
        return stats, cycles_by_stream
