"""The repo benchmark: host speed and simulated outcomes on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fifo-uncached            # e2e metrics
    python3 perfbench/run.py --workload fifo-uncached --trace 1  # layer metrics
    python3 perfbench/run.py --workload all                      # every workload

Every set-up runs in a fresh single-threaded interpreter
(``repetition.py``).  Without ``--trace`` a run makes the workload's number
of set-ups (``spec.py``) and shares ``--seconds`` of wall time between them;
each set-up repeats the timed phase in forked children for its share, under
the host-speed probe (``probe.py``).  The run reports the median of each
end-to-end metric.  With ``--trace 1`` it runs one untraced and one traced
repetition, checks their report digests agree and reports the per-layer
metrics of the traced one.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

#: A repetition still running this long after the run started is killed,
#: so one workload's run always ends within three minutes.
DEADLINE_S = 170.0

#: Thread-count variables of the BLAS / OpenMP runtimes numpy may load.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A repetition could not run at all (no result is printed)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in _THREAD_ENV:
        env[name] = "1"
    # string-hash randomisation moves tenants-stream's peak RSS by up to 10%
    # between otherwise identical repetitions; pin it like every other input
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_repetition(workload: str, seed: int, scale: float, deadline: float,
                   spans: Optional[Path] = None,
                   timed_seconds: Optional[float] = None) -> List[Dict]:
    """Run one set-up in a fresh interpreter; return one record per timed
    phase, each carrying the set-up's figures too."""
    cmd = [sys.executable, str(HERE / "repetition.py"), "--workload",
           workload, "--seed", str(seed), "--scale", repr(scale)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if timed_seconds is not None:
        cmd += ["--timed-seconds", repr(timed_seconds)]
    # its own process group, so a timeout also stops the forked timed phase
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} repetition timed out after "
                             f"{exc.timeout:.0f} s") from exc
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} repetition exited {proc.returncode} "
                         f"without a result:\n{stderr.strip()}")
    if "error" in record or any("error" in r for r in record["runs"]):
        sys.stderr.write(stderr)
    if "error" in record:
        return [record]
    setup = {k: v for k, v in record.items() if k != "runs"}
    return [dict(setup, **r) for r in record["runs"]]


def _median(records: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _verdict(records: List[Dict]) -> Dict:
    """Correctness, attempted/failed counts and check lines of a run."""
    ok = [r for r in records if "error" not in r]
    crashed = len(records) - len(ok)
    lines = []
    correct = crashed == 0
    for name in dict.fromkeys(c["name"] for r in ok for c in r["checks"]):
        results = [c for r in ok for c in r["checks"] if c["name"] == name]
        passed = all(c["ok"] for c in results)
        correct &= passed
        lines.append(f"check {name}: {'pass' if passed else 'FAIL'} "
                     f"({results[-1]['detail']})")
    # every repetition of one seed must produce the same report, traced or
    # not; a difference is nondeterminism (or a tracer that perturbs the run)
    for key in ("digest", "sim_p50_us", "sim_p99_us", "sim_busy_s"):
        values = {r[key] for r in ok}
        same = len(values) <= 1
        correct &= same
        lines.append(f"check repeat.{key}: {'pass' if same else 'FAIL'} "
                     f"({len(ok)} timed phases, {len(values)} distinct)")
    for r in records:
        if "error" in r:
            lines.append(f"check repetition: FAIL ({r['error']})")
    attempted = sum(r["offered"] for r in ok) + crashed
    # a failed check fails every operation of the repetition it ran in
    failed = sum(r["failed"] for r in ok) + crashed
    if not correct:
        failed = attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "lines": lines, "ok": ok}


def end_to_end(workload: str, seed: int, seconds: float,
               scale: float) -> Dict:
    """Run the workload's cold set-ups one after the other, sharing
    ``seconds`` of wall time between them, and report end-to-end medians."""
    records: List[Dict] = []
    setups: List[List[Dict]] = []
    start = perf_counter()
    deadline = start + DEADLINE_S
    count = WORKLOADS[workload]["setups"]
    for i in range(count):
        share = max(seconds - (perf_counter() - start), 0.0) / (count - i)
        setups.append(run_repetition(workload, seed, scale, deadline,
                                     timed_seconds=share))
        records += setups[-1]
    verdict = _verdict(records)
    ok = verdict["ok"]
    if not ok:
        raise BenchError(f"every {workload} repetition failed")
    for r in ok:
        r["sim_req_per_host_s"] = r["offered"] / r["timed_s"]
        r["wall_req_per_host_s"] = r["offered"] / r["timed_wall_s"]
    # one set-up time per set-up, however many timed phases it ran
    first = [s[0] for s in setups if "setup_s" in s[0]]
    values = {name: _median(ok, name) for name in (
        "sim_req_per_host_s", "peak_rss_mb", "sim_p50_us", "sim_p99_us",
        "sim_busy_s")}
    values["setup_s"] = _median(first, "setup_s")
    verdict["values"] = values
    verdict["extra"] = {
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "set-ups / timed phases": f"{len(setups)} / {len(records)}",
        "wall_req_per_host_s (unscaled)":
            f"{_median(ok, 'wall_req_per_host_s'):.6g}",
        "setup_wall_s (unscaled)": f"{_median(first, 'setup_wall_s'):.6g}",
        "host speed per timed phase": " ".join(
            f"{r['timed_speed']:.2f}" for r in ok),
        "setup_s per set-up": " ".join(f"{r['setup_s']:.3f}" for r in first),
        "timed_s per timed phase": " ".join(
            f"{r['timed_s']:.3f}" for r in ok)}
    return verdict


def traced(workload: str, seed: int, scale: float) -> Dict:
    """One untraced and one traced repetition; per-layer metrics."""
    SPAN_DIR.mkdir(exist_ok=True)
    spans = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    deadline = perf_counter() + DEADLINE_S
    plain, = run_repetition(workload, seed, scale, deadline)
    with_trace, = run_repetition(workload, seed, scale, deadline,
                                 spans=spans)
    verdict = _verdict([plain, with_trace])
    if "error" in with_trace or "error" in plain:
        raise BenchError(f"{workload} traced run failed")
    values = dict(with_trace["layers"])
    values["trace.overhead_frac"] = \
        with_trace["timed_s"] / plain["timed_s"] - 1.0
    verdict["values"] = values
    verdict["extra"] = {"untraced_timed_s": plain["timed_s"],
                        "traced_timed_s": with_trace["timed_s"],
                        "spans": str(spans.relative_to(ROOT))}
    verdict["shares"] = with_trace["self_s"]
    return verdict


def layer_of(span: str) -> str:
    """The repo layer a span name belongs to (``sampler.fuse`` -> sampler)."""
    parts = span.split(".")
    return ".".join(parts[:2]) if parts[0] in ("graphs", "hw") \
        and parts[1] in ("delta", "dram") else parts[0]


def layer_shares(self_s: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the traced timed phase's program time.

    Program time is the timed phase minus the tracer's own calibrated cost
    (span ``trace.overhead``), so the shares estimate the untraced run's.
    """
    program_s = sum(v for k, v in self_s.items() if k != "trace.overhead")
    shares: Dict[str, float] = {}
    for span, value in self_s.items():
        if span != "trace.overhead":
            layer = layer_of(span)
            shares[layer] = shares.get(layer, 0.0) + value / program_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _share_table(self_s: Dict[str, float], timed_s: float) -> List[str]:
    program_s = sum(v for k, v in self_s.items() if k != "trace.overhead")
    overhead_s = self_s.get("trace.overhead", 0.0)
    lines = [f"  self times sum to {program_s + overhead_s:.3f} s of the "
             f"{timed_s:.3f} s traced timed phase",
             f"  layer shares of program time ({program_s:.3f} s; tracer "
             f"overhead {overhead_s:.3f} s more)"]
    for layer, share in layer_shares(self_s).items():
        if share >= 0.001:
            lines.append(f"    {layer:<32} {100 * share:6.1f}%")
    lines.append("  span self times")
    for span, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if span != "trace.overhead" and value >= 0.001 * program_s:
            lines.append(f"    {span:<32} {value:9.4f} s "
                         f"{100 * value / program_s:6.1f}%")
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> Dict:
    """Run one workload and print its metrics; return the result object."""
    specs = PER_LAYER if trace else END_TO_END
    if trace:
        verdict = traced(workload, seed, scale)
    else:
        verdict = end_to_end(workload, seed, seconds, scale)
    print(f"== {workload} (seed {seed}, "
          f"{'traced' if trace else 'untraced'})")
    for spec in specs:
        print(f"  {spec['name']:<36} {verdict['values'][spec['name']]:>14.6g}"
              f" {spec['unit']:<9} better: {spec['better']}")
    for key, value in verdict["extra"].items():
        print(f"  {key:<36} {value}")
    for line in verdict["lines"]:
        print(f"  {line}")
    if trace:
        for line in _share_table(verdict["shares"],
                                 verdict["extra"]["traced_timed_s"]):
            print(line)
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {spec["name"]: {"value": verdict["values"][spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
    }
    if trace:
        result["layer_shares"] = layer_shares(verdict["shares"])
    return result


def append_trajectory(rows: List[Dict]) -> None:
    """Merge results into ``trajectory.json``: one row per commit, workload
    and seed, holding the untraced and traced metrics side by side."""
    path = HERE / "trajectory.json"
    doc = json.loads(path.read_text()) if path.exists() else []
    try:
        commit = subprocess.run(
            ["git", "describe", "--always"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
        # the program measured is src/; benchmark edits do not make it dirty
        if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                          cwd=ROOT).returncode:
            commit += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    host = (f"{platform.machine()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}")
    for row in rows:
        key = (commit, row["workload"], row["seed"])
        entry = next((e for e in doc
                      if (e["commit"], e["workload"], e["seed"]) == key),
                     None)
        if entry is None:
            entry = {"commit": commit, "workload": row["workload"],
                     "seed": row["seed"], "host": host}
            doc.append(entry)
        section = "per_layer" if row["trace"] else "end_to_end"
        entry[section] = {k: v["value"]
                          for k, v in row["result"]["metrics"].items()}
        entry[f"{section}_correct"] = row["result"]["correct"]
        if row["trace"]:
            entry["layer_shares"] = row["result"]["layer_shares"]
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host speed and simulated outcomes of the simulator.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall time of one untraced run, set-ups "
                             "included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced repetition")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count scale (self-test smoke size; "
                             "results are only comparable at 1)")
    parser.add_argument("--trajectory", action="store_true",
                        help="also merge the results into "
                             "perfbench/trajectory.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = []
    try:
        for name in names:
            seed = args.seed if args.seed is not None \
                else WORKLOADS[name]["default"]
            rows.append({"workload": name, "seed": seed,
                         "trace": bool(args.trace),
                         "result": measure(name, seed, args.seconds,
                                           bool(args.trace), args.scale)})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trajectory:
        append_trajectory(rows)
    for row in rows:
        result = {k: row["result"][k]
                  for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
