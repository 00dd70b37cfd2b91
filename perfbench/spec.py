"""What the benchmark measures: workloads, seeds and metrics, by name.

Plain data, importable without the program, so ``run.py`` can describe
itself.  ``BENCHMARK.json`` is generated from it and ``selftest.py`` holds
the two together:

    python3 perfbench/spec.py > BENCHMARK.json
"""

from __future__ import annotations

import json

#: Seconds of wall time one untraced run lasts, set-ups included.
RUN_SECONDS = 25

#: name -> why the workload exists, its default seed and the held-out seed
#: on which any later performance claim must also hold, and how many cold
#: set-ups an untraced run makes (``setup_s`` is their median).
WORKLOADS = {
    "fifo-uncached": dict(
        why="every request simulated: cycle model, sampler extract+fuse and "
            "feature-cache bookkeeping dominate; no formation work; seeds 1, "
            "held out 2",
        default=1, heldout=2, setups=5),
    "continuous-cached": dict(
        why="result cache answers most requests; overlap formation and "
            "signatures dominate; bypass twin for cycle-model changes; seeds "
            "1, held out 2",
        default=1, heldout=2, setups=5),
    "tenants-stream": dict(
        why="two WFQ tenants, 5% streaming updates with targeted "
            "invalidation, solo baselines; only tenancy/streaming workload; "
            "seeds 0, held out 3",
        default=0, heldout=3, setups=5),
    "paper-grid": dict(
        why="the paper's model x dataset grid (17 pairs, Reddit left out) "
            "plus CPU/GPU baselines; big-graph cycle model and dataset "
            "set-up, no serving; seeds 0, held out 1",
        # set-up costs ~4 s here: three leave the run time for the grid
        default=0, heldout=1, setups=3),
}


def _m(name, unit, better, bound=None):
    spec = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        spec["bound"] = bound
    return spec


#: End-to-end metrics, from untraced runs (medians, see ``run.py``).
END_TO_END = [
    _m("sim_req_per_host_s", "req/s", "higher", 0.25),
    _m("setup_s", "s", "lower", 0.25),
    _m("peak_rss_mb", "MiB", "lower", 0.2),
    _m("sim_p50_us", "us", "lower", 0.25),
    _m("sim_p99_us", "us", "lower", 0.25),
    _m("sim_busy_s", "s", "lower", 0.25),
]

_CALLS, _SELF = "count", "s"
PER_LAYER = [
    _m("fleet.loop.self_s", _SELF, "lower"),
    _m("fleet.batch_service.calls", _CALLS, "lower"),
    _m("fleet.batch_service.self_s", _SELF, "lower"),
    _m("fleet.batch_service.host_us_p50", "us", "lower"),
    _m("fleet.batch_service.host_us_p99", "us", "lower"),
]
for _op in ("extract", "extract_fresh", "fuse", "fused_size", "signature"):
    PER_LAYER += [_m(f"sampler.{_op}.calls", _CALLS, "lower"),
                  _m(f"sampler.{_op}.self_s", _SELF, "lower")]
PER_LAYER += [
    _m("sampler.memo.hit_ratio", "fraction", "higher"),
    _m("batching.estimate_jaccard.calls", _CALLS, "lower"),
    _m("batching.estimate_jaccard.self_s", _SELF, "lower"),
    _m("batching.form.self_s", _SELF, "lower"),
    _m("batching.mean_batch_size", "requests", "higher"),
    _m("batching.overlap_ratio", "fraction", "higher"),
    _m("cache.get.calls", _CALLS, "lower"),
    _m("cache.put.calls", _CALLS, "lower"),
    _m("cache.self_s", _SELF, "lower"),
    _m("cache.result.hit_ratio", "fraction", "higher"),
    _m("cache.feature.hit_ratio", "fraction", "higher"),
]
for _op in ("run_model", "aggregation", "combination", "coordinator",
            "memory"):
    PER_LAYER += [_m(f"core.{_op}.calls", _CALLS, "lower"),
                  _m(f"core.{_op}.self_s", _SELF, "lower")]
PER_LAYER += [
    _m("hw.dram.service.calls", _CALLS, "lower"),
    _m("hw.dram.service.requests", _CALLS, "lower"),
    _m("hw.dram.service.self_s", _SELF, "lower"),
    _m("hw.dram.row_hit_rate", "fraction", "higher"),
]
for _op in ("apply", "check_batch", "register_result"):
    PER_LAYER += [_m(f"streaming.{_op}.calls", _CALLS, "lower"),
                  _m(f"streaming.{_op}.self_s", _SELF, "lower")]
PER_LAYER += [
    _m("streaming.invalidations", _CALLS, "lower"),
    _m("streaming.stale_serves", _CALLS, "lower"),
    _m("graphs.delta.writes", _CALLS, "lower"),
    _m("graphs.delta.self_s", _SELF, "lower"),
    _m("tenancy.loop.self_s", _SELF, "lower"),
    _m("tenancy.estimate_cost.self_s", _SELF, "lower"),
    _m("tenancy.wfq.self_s", _SELF, "lower"),
    _m("graphs.load_dataset.s", _SELF, "lower"),
    _m("workload.generate.s", _SELF, "lower"),
    _m("baselines.cpu.self_s", _SELF, "lower"),
    _m("baselines.gpu.self_s", _SELF, "lower"),
    _m("models.operation_count.self_s", _SELF, "lower"),
    _m("stats.report.self_s", _SELF, "lower"),
    _m("trace.overhead_frac", "fraction", "lower"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
