"""One set-up of one workload, in the fresh interpreter it runs in.

``run.py`` starts this script once per set-up so every set-up begins with
cold process-wide memos, exactly as a user's invocation does.  It sets up
the workload and then runs the timed phase, checks the outputs and prints
one JSON object on its last stdout line.

* ``--timed-seconds T`` (the end-to-end runs): set-up and every timed phase
  run under the host-speed probe (``probe.py``).  The timed phase runs in a
  forked child, again and again until ``T`` seconds have passed (at least
  once).  Each child starts from the same post-set-up state, with every memo
  as cold as in a fresh process, so a later change that adds a memo cannot
  make a second round warm.
* Otherwise the timed phase runs once, in this process, without the probe.
  With ``--spans PATH`` the layer tracer is installed first and the span
  file is written to ``PATH``.

    python3 perfbench/repetition.py --workload fifo-uncached --seed 1 \\
        --timed-seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Tuple

from probe import SpeedProbe


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_record(workload, state, probe: bool, phase=None
                  ) -> Tuple[Dict, object]:
    """Run the timed phase once here; return its record and outcome."""
    import workloads

    timer = SpeedProbe() if probe else None
    with (phase("timed") if phase else nullcontext()):
        start = perf_counter()
        with (timer or nullcontext()):
            outcome = workload.run(state)
        wall_s = perf_counter() - start
    if timer is not None:
        wall_s = timer.wall_s
    p50_us, p99_us = workloads.sim_latency_us(outcome)
    checks = [{"name": n, "ok": bool(ok), "detail": d}
              for n, ok, d in outcome.checks]
    record = {
        "timed_s": timer.scaled_s if timer else wall_s,
        "timed_wall_s": wall_s,
        "timed_speed": timer.speed if timer else 1.0,
        "peak_rss_mb": _rss_mb(),
        "offered": outcome.offered,
        "completed": outcome.completed,
        "failed": 0 if all(c["ok"] for c in checks) else outcome.offered,
        "digest": outcome.digest,
        "sim_p50_us": p50_us,
        "sim_p99_us": p99_us,
        "sim_busy_s": outcome.busy_s,
        "checks": checks,
    }
    return record, outcome


def _forked_record(workload, state) -> Dict:
    """Run the timed phase once in a forked child; return its record.

    Forking is safe here: the set-up process starts no threads (``run.py``
    pins the BLAS runtimes to one thread).
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the child: run, report through the pipe, never return
        code = 1
        try:
            os.close(read_fd)
            try:
                record, _ = _timed_record(workload, state, probe=True)
            except Exception as exc:  # the child's boundary: report it
                traceback.print_exc()
                record = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(record))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"error": f"timed child ended with status {status} and no "
                         "result"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--timed-seconds", type=float, default=None,
                        help="probe the host speed and repeat the timed "
                             "phase in forked children for this long")
    parser.add_argument("--spans", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    import workloads
    from layertrace import LayerTracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        tracer = LayerTracer()
        tracer.install()
    forked = args.timed_seconds is not None and tracer is None
    result = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale, "traced": tracer is not None}
    phase = tracer.phase_span if tracer is not None \
        else (lambda name: nullcontext())
    try:
        timer = SpeedProbe() if forked else None
        with phase("setup"):
            start = perf_counter()
            with (timer or nullcontext()):
                state = workload.setup(args.seed, args.scale)
            setup_wall_s = perf_counter() - start
        if timer is not None:
            setup_wall_s = timer.wall_s
        result["setup_s"] = timer.scaled_s if timer else setup_wall_s
        result["setup_wall_s"] = setup_wall_s
        runs: List[Dict] = []
        if forked:
            start = perf_counter()
            while not runs or perf_counter() - start < args.timed_seconds:
                runs.append(_forked_record(workload, state))
        else:
            record, outcome = _timed_record(workload, state, probe=False,
                                            phase=phase)
            runs.append(record)
    except Exception as exc:  # the repetition's boundary: report, don't die
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(result))
        return 1
    result["runs"] = runs
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, outcome.counters)
        result["self_s"] = tracer.self_by_name("timed")
        tracer.write_spans(args.spans, meta={
            "workload": args.workload, "seed": args.seed,
            "scale": args.scale, "digest": outcome.digest})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
