"""Smoke tests for ``python -m repro serve`` and the serving example."""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main

SERVE_FAST = ["serve", "--dataset", "IB", "--model", "gcn",
              "--requests", "64", "--chips", "2"]


class TestServeCommand:
    def test_serve_prints_slo_report(self, capsys):
        assert main(SERVE_FAST) == 0
        out = capsys.readouterr().out
        for needle in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                       "per-chip utilization", "cache_hit_rate_pct",
                       "slo_violation", "utilization_pct"):
            assert needle in out

    def test_serve_accepts_lowercase_dataset_and_model(self, capsys):
        assert main(["serve", "--dataset", "ib", "--model", "gcn",
                     "--requests", "32", "--chips", "2"]) == 0
        assert "GCN on IB" in capsys.readouterr().out

    def test_dispatch_policies_report_different_utilization(self, capsys):
        outputs = {}
        for dispatch in ("round-robin", "least-loaded"):
            assert main(SERVE_FAST + ["--dispatch", dispatch,
                                      "--requests", "128"]) == 0
            out = capsys.readouterr().out
            table = out.split("per-chip utilization")[1].split("traffic summary")[0]
            outputs[dispatch] = table
        assert outputs["round-robin"] != outputs["least-loaded"]

    def test_batch_policies_selectable(self, capsys):
        for policy in ("size", "timeout", "slo"):
            assert main(SERVE_FAST + ["--batch-policy", policy]) == 0
            assert policy in capsys.readouterr().out

    def test_trace_replay_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 1e-5}\n" for i in range(64)))
        assert main(SERVE_FAST + ["--arrival", "trace",
                                  "--trace-file", str(trace)]) == 0
        assert "throughput_rps" in capsys.readouterr().out

    def test_trace_without_file_fails(self, capsys):
        assert main(SERVE_FAST + ["--arrival", "trace"]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_shape_mix_serve_prints_shape_tables(self, capsys):
        assert main(SERVE_FAST + ["--shape-mix", "mixed",
                                  "--dispatch", "shape-aware"]) == 0
        out = capsys.readouterr().out
        for needle in ("per-shape utilization", "shape-aware dispatch",
                       "agg_heavy", "comb_heavy", "misdispatch_ms"):
            assert needle in out

    def test_fleet_spec_file_overrides_chips(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "balanced", "count": 3}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec)]) == 0
        assert "3 chips" in capsys.readouterr().out

    def test_fleet_spec_and_shape_mix_conflict(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "balanced"}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec),
                                  "--shape-mix", "mixed"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_broken_fleet_spec_is_actionable(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "agg_hevy"}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec)]) == 2
        assert "agg_heavy" in capsys.readouterr().err

    def test_scale_shape_without_arming_flag_errors(self, capsys):
        assert main(SERVE_FAST + ["--scale-shape", "bottleneck-phase"]) == 2
        assert "--scale-shape" in capsys.readouterr().err

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(SERVE_FAST + ["--dispatch", "random"])


ROOT = Path(__file__).resolve().parent.parent.parent

#: A non-finite rate once hung the event loop (NaN arrival times) or ran a
#: meaningless report (infinite rate); each must now exit 2 quickly.
NON_FINITE_RATE_ARGS = [
    ["--rate=nan"], ["--rate=inf"], ["--rate=-inf"],
    ["--update-rate=nan"], ["--update-rate=inf"],
    ["--tenants", str(ROOT / "examples" / "tenants.json"), "--update-rate=nan"],
]


@pytest.mark.parametrize("flags", NON_FINITE_RATE_ARGS, ids=" ".join)
def test_non_finite_rates_exit_2_quickly(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--dataset", "IB",
         "--requests", "40", "--chips", "1", *flags],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 30
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_online_serving_example_runs(capsys):
    path = ROOT / "examples" / "online_serving.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    module.main(num_requests=96)
    out = capsys.readouterr().out
    assert "dispatch-policy comparison" in out
    assert "result-cache effect" in out
