"""Self-tests of the benchmark: toy-size workloads and the span arithmetic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_plain_run_reports_every_end_to_end_metric(name, tmp_path):
    res = workloads.plain_run(workloads.WORKLOADS[name], 3, 0.0, tmp_path,
                              toy=True)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(units) <= set(res.metrics)
    assert all(units[k] for k in units)
    assert all(res.checks.values()), res.checks
    assert res.attempted >= 1 and res.failed == 0
    assert not list(tmp_path.iterdir())   # run directories are removed


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_traced_run_reports_every_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl.gz"
    res = workloads.traced_run(workloads.WORKLOADS[name], 3, tmp_path, spans,
                               toy=True)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(units) <= set(res.metrics)
    assert all(units[k] for k in units)
    assert all(res.checks.values()), res.checks
    assert spans.is_file()


def test_traced_counts_repeat_exactly(tmp_path):
    workload = workloads.WORKLOADS["cartpole-learn"]

    def counts():
        res = workloads.traced_run(workload, 5, tmp_path,
                                   tmp_path / "spans.jsonl.gz", toy=True)
        return {k: v for k, v in res.metrics.items()
                if k.endswith(".calls") or ".status." in k}

    assert counts() == counts()


def test_tracer_restores_every_patched_name():
    from gppi import control, gp, harness, moments, plants
    before = (control.moment_match, moments.predict_increment, gp.log_marginal_likelihood,
              harness.sampling_pi_control, plants.Plant.step,
              plants.CartPole.drift)
    with tracing.Tracer():
        assert control.moment_match is not before[0]
        assert plants.CartPole.drift is not before[5]
    after = (control.moment_match, moments.predict_increment, gp.log_marginal_likelihood,
             harness.sampling_pi_control, plants.Plant.step,
             plants.CartPole.drift)
    assert after == before


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds two c spans [5, 6] and [7, 8.5]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 5.0, 6.0, 3),
        ("c", 7.0, 8.5, 3),
    ]
    self_s, durations = tracing.self_times(spans)
    assert self_s == pytest.approx({"root": 3.0, "a": 2.0, "b": 1.5, "c": 3.5})
    assert durations["c"] == pytest.approx([1.0, 1.0, 1.5])
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_log_counter_matches_templates():
    import logging
    with tracing.LogCounter() as logs:
        log = logging.getLogger("gppi.control")
        log.warning("trial %d aborted: %s", 3, "boom")
        log.warning("inner optimization made no progress")
        logging.getLogger("gppi.gp").warning(
            "shared hyperparameter fit failed to improve")
        logging.getLogger("gppi.gp").info("not counted")
    assert logs.counts == {"learn.trials_aborted_logged": 1,
                           "control.inner_optimize.no_progress_logged": 1,
                           "gp.refit.no_improvement": 1}


def test_environment_block_has_every_field():
    env = workloads.environment(ROOT, 7)
    assert env["seed"] == 7
    for key in ("nproc", "python", "numpy", "scipy", "blas", "git_describe",
                *workloads.BLAS_VARS):
        assert key in env


def test_fails_without_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cartpole-learn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
