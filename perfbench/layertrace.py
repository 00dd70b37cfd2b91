"""Outside-in layer tracer: spans around the public entry points of each layer.

The program under test carries no timers of its own.  :class:`LayerTracer`
wraps each entry point listed in :data:`ENTRY_POINTS` from the outside: a
method is replaced on the class that defines it, and a module-level function
is replaced in *every* module namespace that binds it, the benchmark's own
included (``from x import f`` copies the binding, so patching the defining
module alone would miss the importers).

Every call records one span -- name, start, end, parent -- in flat in-memory
arrays, written as one JSON file when the run ends.  While running, the
tracer also folds each span into per-name aggregates: calls, inclusive time
and *self* time, which is the span's duration minus the time its child
spans cover.  The aggregates are kept per phase (``setup`` / ``timed``), so
the layer metrics describe the timed phase alone.

The wrapper's own cost, about a microsecond per span, is calibrated against
a no-op at install time and charged to a separate ``trace.overhead`` span
rather than to the layers.  What calibration misses stays in the parents'
self time; ``trace.overhead_frac`` reports the whole slowdown, and
end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on the class that defines it; a bare name is a module function.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # serving.fleet: single-tenant event loop and the per-batch cost model
    ("repro.serving.fleet", "ServingSimulator.run", "fleet.loop"),
    ("repro.serving.fleet", "fused_batch_service_time_s",
     "fleet.batch_service"),
    # serving.tenancy: multi-tenant loop, WFQ and the batch-cost estimate
    ("repro.serving.tenancy", "MultiTenantSimulator.run", "tenancy.loop"),
    ("repro.serving.tenancy", "TenantRuntime.estimate_cost_s",
     "tenancy.estimate_cost"),
    ("repro.serving.fleet", "WFQScheduler.enqueue", "tenancy.wfq"),
    ("repro.serving.fleet", "WFQScheduler.reprice", "tenancy.wfq"),
    ("repro.serving.fleet", "WFQScheduler.next_batch", "tenancy.wfq"),
    # serving.batcher / serving.batching: batch formation
    ("repro.serving.batcher", "Batcher.add", "batching.form"),
    ("repro.serving.batcher", "Batcher.flush", "batching.form"),
    ("repro.serving.batcher", "Batcher.try_join", "batching.form"),
    ("repro.serving.batching", "OverlapBatcher.add", "batching.form"),
    ("repro.serving.batching", "OverlapBatcher.flush", "batching.form"),
    ("repro.serving.batching", "ContinuousBatcher.try_join",
     "batching.form"),
    ("repro.serving.sampler", "estimate_jaccard",
     "batching.estimate_jaccard"),
    # serving.sampler
    ("repro.serving.sampler", "SubgraphSampler.extract", "sampler.extract"),
    ("repro.serving.sampler", "SubgraphSampler.extract_fresh",
     "sampler.extract_fresh"),
    ("repro.serving.sampler", "SubgraphSampler.fuse", "sampler.fuse"),
    ("repro.serving.sampler", "SubgraphSampler.fused_size",
     "sampler.fused_size"),
    ("repro.serving.sampler", "SubgraphSampler.signature",
     "sampler.signature"),
    # serving.cache (result cache, feature caches and the sampler memos)
    ("repro.serving.cache", "LRUCache.get", "cache.get"),
    ("repro.serving.cache", "LRUCache.put", "cache.put"),
    ("repro.serving.cache", "LRUCache.invalidate", "cache.invalidate"),
    # serving.streaming + graphs.delta
    ("repro.serving.streaming", "StreamState.apply", "streaming.apply"),
    ("repro.serving.streaming", "StreamState.check_batch",
     "streaming.check_batch"),
    ("repro.serving.streaming", "StreamState.register_result",
     "streaming.register_result"),
    ("repro.serving.streaming", "generate_update_stream",
     "streaming.generate"),
    ("repro.graphs.delta", "DeltaGraph.add_edge", "graphs.delta.write"),
    ("repro.graphs.delta", "DeltaGraph.add_vertex", "graphs.delta.write"),
    ("repro.graphs.delta", "DeltaGraph.write_features",
     "graphs.delta.write"),
    ("repro.graphs.delta", "DeltaGraph.compact", "graphs.delta.compact"),
    # serving.workload
    ("repro.serving.workload", "RequestGenerator.generate",
     "workload.generate"),
    # serving.stats + analysis: report assembly
    ("repro.serving.stats", "ServingReport.to_dict", "stats.report"),
    ("repro.serving.stats", "MultiTenantReport.to_dict", "stats.report"),
    ("repro.analysis.comparison", "PlatformComparison.summarize",
     "stats.report"),
    ("repro.analysis.comparison", "ComparisonResult.as_row", "stats.report"),
    ("repro.core.stats", "SimulationReport.summary", "stats.report"),
    ("repro.baselines.base", "BaselineReport.summary", "stats.report"),
    # core: the cycle model
    ("repro.core.simulator", "HyGCNSimulator.run_model", "core.run_model"),
    ("repro.core.aggregation_engine", "AggregationEngine.prepare_graph",
     "core.aggregation"),
    ("repro.core.aggregation_engine", "AggregationEngine.partition",
     "core.aggregation"),
    ("repro.core.aggregation_engine", "AggregationEngine.process_layer",
     "core.aggregation"),
    ("repro.core.combination_engine", "CombinationEngine.process_layer",
     "core.combination"),
    ("repro.core.coordinator", "Coordinator.record_buffer_traffic",
     "core.coordinator"),
    ("repro.core.coordinator", "Coordinator.compose", "core.coordinator"),
    ("repro.core.memory_handler", "MemoryAccessHandler.service_batch",
     "core.memory"),
    # hw.dram
    ("repro.hw.dram", "HBMModel.service", "hw.dram.service"),
    # graphs (datasets / generators)
    ("repro.graphs.datasets", "load_dataset", "graphs.load_dataset"),
    # baselines / models: the paper comparison path
    ("repro.baselines.cpu", "PyGCPUModel.run", "baselines.cpu"),
    ("repro.baselines.gpu", "PyGGPUModel.run", "baselines.gpu"),
    ("repro.models.layers", "AggregationPhase.operation_count",
     "models.operation_count"),
)

PHASES = ("setup", "timed")
TIMED = PHASES.index("timed")


class _Agg:
    """Per-(phase, span name) totals."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Installs span wrappers on :data:`ENTRY_POINTS`; one per process."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # flat span store: one slot per span, filled at enter/exit
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_phase = array("b")
        # stack frames: [span index, name id, seconds covered by children]
        self._stack: List[list] = []
        self.phase = 0
        self.aggs: Dict[Tuple[int, int], _Agg] = {}
        #: Counters kept at span boundaries (see :meth:`_after_hook`).
        self.counters: Dict[str, float] = {
            "memo.lookups": 0, "memo.hits": 0, "dram.requests": 0,
            "dram.row_hits": 0, "dram.row_misses": 0}
        self._overhead_id = self._name_id("trace.overhead")
        #: Wrapper cost per span, set by :meth:`calibrate`.
        self.cost_inside_s = 0.0
        self.cost_outside_s = 0.0
        self.t0 = perf_counter()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self) -> None:
        """Calibrate, then wrap every entry point; raises if one is gone."""
        self.calibrate()
        for module_name, path, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(span, original.__func__))
                else:
                    wrapped = self._wrap(span, original)
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original)
            # every namespace that bound it, the benchmark's own included;
            # reading __dict__ avoids triggering module-level __getattr__
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is original:
                    setattr(mod, attr, wrapped)

    def _wrap(self, span: str, fn):
        name_id = self._name_id(span)
        after = self._after_hook(span)
        enter, close = self._enter, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start, perf_counter(), True)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _enter(self, name_id: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_phase.append(self.phase)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, name_id, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float,
               wrapper: bool) -> None:
        """Fold one finished span into the store and the aggregates.

        A wrapper's own cost is charged to ``trace.overhead``, not to the
        layers: ``cost_inside_s`` of it falls between the span's start and
        end, ``cost_outside_s`` in the parent's interval around the call.
        """
        self._stack.pop()
        index, name_id, covered = frame
        self.span_start[index] = start
        self.span_end[index] = end
        duration = end - start
        inside = self.cost_inside_s if wrapper else 0.0
        outside = self.cost_outside_s if wrapper else 0.0
        agg = self._agg(self.phase, name_id)
        agg.calls += 1
        agg.total_s += duration
        agg.self_s += duration - covered - inside
        if wrapper:
            self._agg(self.phase, self._overhead_id).self_s += inside + outside
        if self._stack:
            self._stack[-1][2] += duration + outside

    def _agg(self, phase: int, name_id: int) -> _Agg:
        agg = self.aggs.get((phase, name_id))
        if agg is None:
            agg = self.aggs[(phase, name_id)] = _Agg()
        return agg

    def calibrate(self, calls: int = 20000, trials: int = 5) -> None:
        """Measure the wrapper's own cost per span (median of ``trials``).

        Times a no-op bare, wrapped, and an empty loop, then discards the
        calibration spans.  The two costs are subtracted from every traced
        call, so the layer self times estimate the untraced program's.
        """
        def noop():
            return None

        probe = self._wrap("trace.calibrate", noop)
        mark = len(self.span_start)
        inside, outside = [], []
        for _ in range(trials):
            t0 = perf_counter()
            for _ in range(calls):
                pass
            loop_s = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            bare_s = perf_counter() - t0
            first = len(self.span_start)
            t0 = perf_counter()
            for _ in range(calls):
                probe()
            traced_s = perf_counter() - t0
            spans_s = sum(self.span_end[first:]) - sum(self.span_start[first:])
            inside.append((spans_s - (bare_s - loop_s)) / calls)
            outside.append((traced_s - loop_s - spans_s) / calls)
        self.cost_inside_s = max(0.0, float(np.median(inside)))
        self.cost_outside_s = max(0.0, float(np.median(outside)))
        for store in (self.span_name, self.span_parent, self.span_phase,
                      self.span_start, self.span_end):
            del store[mark:]
        self.aggs = {}

    def _after_hook(self, span: str):
        """Counters read from an entry point's arguments and result."""
        counters = self.counters
        if span == "cache.get":
            extract_id = self._name_id("sampler.extract")
            stack = self._stack

            def after(args, result):
                # a get whose caller is SubgraphSampler.extract is the
                # extraction memo lookup
                if self.phase == TIMED and stack \
                        and stack[-1][1] == extract_id:
                    counters["memo.lookups"] += 1
                    if result is not None:
                        counters["memo.hits"] += 1
            return after
        if span == "hw.dram.service":
            def after(args, result):
                if self.phase == TIMED:
                    counters["dram.requests"] += len(args[1])
                    counters["dram.row_hits"] += result.row_hits
                    counters["dram.row_misses"] += result.row_misses
            return after
        return None

    # ------------------------------------------------------------------ #
    # Phases (root spans opened by the benchmark itself)
    # ------------------------------------------------------------------ #
    @contextmanager
    def phase_span(self, phase: str):
        """A root span ``bench.<phase>`` around one phase of the run."""
        self.phase = PHASES.index(phase)
        frame = self._enter(self._name_id(f"bench.{phase}"))
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter(), False)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def totals(self, name: str, phase: str = "timed") -> _Agg:
        name_id = self._name_ids.get(name)
        found = self.aggs.get((PHASES.index(phase), name_id))
        return found if found is not None else _Agg()

    def durations_s(self, name: str, phase: str = "timed") -> np.ndarray:
        """Per-call durations of every span called ``name`` in ``phase``."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        phases = np.frombuffer(self.span_phase, dtype=np.int8)
        mask = (names == self._name_ids.get(name, -1)) \
            & (phases == PHASES.index(phase))
        start = np.frombuffer(self.span_start, dtype=np.float64)[mask]
        end = np.frombuffer(self.span_end, dtype=np.float64)[mask]
        return end - start

    def self_by_name(self, phase: str = "timed") -> Dict[str, float]:
        phase_id = PHASES.index(phase)
        return {self.names[n]: agg.self_s
                for (p, n), agg in self.aggs.items() if p == phase_id}

    def write_spans(self, path: str, meta: Dict) -> None:
        """Write every span as one columnar JSON document."""
        def seconds(column):
            offsets = np.frombuffer(column, dtype=np.float64) - self.t0
            return offsets.round(9).tolist()

        doc = {
            "meta": dict(meta, cost_inside_s=self.cost_inside_s,
                         cost_outside_s=self.cost_outside_s),
            "names": self.names,
            "phases": list(PHASES),
            "columns": ["name", "phase", "parent", "start_s", "end_s"],
            "name": self.span_name.tolist(),
            "phase": self.span_phase.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": seconds(self.span_start),
            "end_s": seconds(self.span_end),
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(doc, separators=(",", ":")))


def layer_metrics(tracer: LayerTracer, counters: Dict[str, float]
                  ) -> Dict[str, float]:
    """The per-layer metric values of one traced run (see ``spec.py``).

    ``counters`` are the program's own report counters for the run
    (:attr:`workloads.Outcome.counters`).
    """
    def calls(name):
        return tracer.totals(name).calls

    def self_s(*names):
        return sum(tracer.totals(n).self_s for n in names)

    service_us = tracer.durations_s("fleet.batch_service") * 1e6
    c = tracer.counters
    dram_lookups = c["dram.row_hits"] + c["dram.row_misses"]
    values: Dict[str, float] = {
        "fleet.loop.self_s": self_s("fleet.loop"),
        "fleet.batch_service.calls": calls("fleet.batch_service"),
        "fleet.batch_service.self_s": self_s("fleet.batch_service"),
        "fleet.batch_service.host_us_p50": float(np.percentile(
            service_us, 50)) if service_us.size else 0.0,
        "fleet.batch_service.host_us_p99": float(np.percentile(
            service_us, 99)) if service_us.size else 0.0,
    }
    for op in ("extract", "extract_fresh", "fuse", "fused_size",
               "signature"):
        values[f"sampler.{op}.calls"] = calls(f"sampler.{op}")
        values[f"sampler.{op}.self_s"] = self_s(f"sampler.{op}")
    values["sampler.memo.hit_ratio"] = c["memo.hits"] / c["memo.lookups"] \
        if c["memo.lookups"] else 0.0
    values.update({
        "batching.estimate_jaccard.calls": calls("batching.estimate_jaccard"),
        "batching.estimate_jaccard.self_s":
            self_s("batching.estimate_jaccard"),
        "batching.form.self_s": self_s("batching.form"),
        "batching.mean_batch_size": counters.get(
            "batching.mean_batch_size", 0.0),
        "batching.overlap_ratio": counters.get("batching.overlap_ratio", 0.0),
        "cache.get.calls": calls("cache.get"),
        "cache.put.calls": calls("cache.put"),
        "cache.self_s": self_s("cache.get", "cache.put", "cache.invalidate"),
        "cache.result.hit_ratio": counters.get("cache.result.hit_ratio", 0.0),
        "cache.feature.hit_ratio": counters.get("cache.feature.hit_ratio",
                                                0.0),
    })
    for op in ("run_model", "aggregation", "combination", "coordinator",
               "memory"):
        values[f"core.{op}.calls"] = calls(f"core.{op}")
        values[f"core.{op}.self_s"] = self_s(f"core.{op}")
    values.update({
        "hw.dram.service.calls": calls("hw.dram.service"),
        "hw.dram.service.requests": c["dram.requests"],
        "hw.dram.service.self_s": self_s("hw.dram.service"),
        "hw.dram.row_hit_rate": c["dram.row_hits"] / dram_lookups
        if dram_lookups else 0.0,
    })
    for op in ("apply", "check_batch", "register_result"):
        values[f"streaming.{op}.calls"] = calls(f"streaming.{op}")
        values[f"streaming.{op}.self_s"] = self_s(f"streaming.{op}")
    values.update({
        "streaming.invalidations": counters.get("streaming.invalidations",
                                                0.0),
        "streaming.stale_serves": counters.get("streaming.stale_serves", 0.0),
        "graphs.delta.writes": calls("graphs.delta.write"),
        "graphs.delta.self_s": self_s("graphs.delta.write",
                                      "graphs.delta.compact"),
        "tenancy.loop.self_s": self_s("tenancy.loop"),
        "tenancy.estimate_cost.self_s": self_s("tenancy.estimate_cost"),
        "tenancy.wfq.self_s": self_s("tenancy.wfq"),
        "graphs.load_dataset.s": tracer.totals("graphs.load_dataset",
                                               "setup").total_s,
        "workload.generate.s": tracer.totals("workload.generate",
                                             "setup").total_s,
        "baselines.cpu.self_s": self_s("baselines.cpu"),
        "baselines.gpu.self_s": self_s("baselines.gpu"),
        "models.operation_count.self_s": self_s("models.operation_count"),
        "stats.report.self_s": self_s("stats.report"),
    })
    return values
