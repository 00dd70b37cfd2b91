"""Smoke-size self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks that

1. ``BENCHMARK.json`` is the document ``spec.py`` generates;
2. each workload's set-up / timed-phase split produces the same report as
   the library's one-call driver (``run_serving``, ``run_multi_tenant``);
3. ``run.py`` emits every named metric, with its unit, for every workload,
   untraced and traced, with every check passing -- which includes the
   traced and untraced report digests being equal;
4. the host-speed probe and the forked timed phase leave the report
   digest unchanged;
5. ``run.py`` exits non-zero without a result where the program source is
   missing.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spec import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                  benchmark_json)

SMOKE_SCALE = 0.05
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(doc == benchmark_json(),
          "BENCHMARK.json is what `python3 perfbench/spec.py` prints")


def _clear_process_memos() -> None:
    from repro.graphs.datasets import load_dataset
    from repro.models.model_zoo import clear_workloads_cache
    from repro.serving.fleet import clear_probe_cache
    from repro.serving.sharding import clear_shard_plan_cache
    from repro.serving.streaming import clear_update_stream_cache
    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_shard_plan_cache, clear_update_stream_cache,
                  load_dataset.cache_clear):
        clear()


def _digest(report) -> str:
    from workloads import Outcome
    return Outcome(report.to_dict(), 0, 0, None, 0.0).digest


def check_split_matches_driver() -> None:
    import workloads
    from repro.serving.fleet import FleetConfig, run_serving
    from repro.serving.tenancy import run_multi_tenant

    # seed 0: the serving workloads pin the dataset seed to 0, and
    # run_serving uses its one seed for the dataset too
    for name, policy, cache in (("fifo-uncached", "fifo", 0),
                                ("continuous-cached", "continuous", None)):
        _clear_process_memos()
        outcome = workloads.WORKLOADS[name].run(
            workloads.WORKLOADS[name].setup(0, SMOKE_SCALE))
        _clear_process_memos()
        report = run_serving(
            dataset=workloads.SINGLE_DATASET,
            model_name=workloads.SINGLE_MODEL,
            num_requests=outcome.offered,
            popularity_skew=workloads.POPULARITY_SKEW,
            config=workloads.single_tenant_config(0, policy, cache),
            utilization_target=workloads.UTILIZATION, seed=0)
        check(outcome.digest == _digest(report),
              f"{name}: split path digest equals run_serving's")
    # seed 0: the workload seed offsets the tenants' traffic seeds from the
    # ones a fleet seeded 0 derives
    _clear_process_memos()
    outcome = workloads.WORKLOADS["tenants-stream"].run(
        workloads.WORKLOADS["tenants-stream"].setup(0, SMOKE_SCALE))
    _clear_process_memos()
    report = run_multi_tenant(
        workloads.tenant_configs(SMOKE_SCALE),
        FleetConfig(num_chips=workloads.NUM_CHIPS, seed=0),
        utilization_target=workloads.UTILIZATION,
        update_rate=workloads.UPDATE_RATIO,
        invalidation=workloads.INVALIDATION)
    check(outcome.digest == _digest(report),
          "tenants-stream: split path digest equals run_multi_tenant's")


def _run_bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def check_run_emits_everything() -> None:
    for name in WORKLOADS:
        for trace, specs in (("0", END_TO_END), ("1", PER_LAYER)):
            proc = _run_bench(ROOT, "--workload", name, "--trace", trace,
                              "--scale", str(SMOKE_SCALE), "--seconds", "0")
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{what}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what}: every check passes, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == {s["name"]: s["unit"] for s in specs},
                  f"{what}: every metric emitted with its unit")
            if trace == "1":
                check("check repeat.digest: pass" in proc.stdout,
                      f"{what}: traced digest equals untraced digest")


def check_probe_keeps_digest() -> None:
    from run import _child_env
    digests = {}
    for mode, extra in (("in-process", []),
                        ("forked under the probe", ["--timed-seconds", "0"])):
        proc = subprocess.run(
            [sys.executable, str(HERE / "repetition.py"), "--workload",
             "fifo-uncached", "--seed", "1", "--scale", str(SMOKE_SCALE),
             *extra], cwd=ROOT, env=_child_env(), capture_output=True,
            text=True, timeout=600)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        digests[mode] = [r.get("digest") for r in record.get("runs", [])]
    found = sum(digests.values(), [])
    check(len(found) == 2 and None not in found and len(set(found)) == 1,
          "probe and fork leave the report digest unchanged")


def check_fails_without_program() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(bare, "--workload", "fifo-uncached", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program source: non-zero exit, no result")


def main() -> int:
    check_benchmark_json()
    check_split_matches_driver()
    check_run_emits_everything()
    check_probe_keeps_digest()
    check_fails_without_program()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
