"""Smoke tests of the benchmark: tiny inputs through every workload, traced and untraced."""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tmcda.pipeline import leave_one_out
from tmcda.synth import generate_synthetic_network

import run
import tracer as tracer_mod
from workloads import WORKLOADS, _smoke, loo_cv_config

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--smoke", "--work-dir", str(tmp_path)], cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    run_dir = tmp_path / f"{workload}-seed3-trace{trace}-smoke"
    assert (run_dir / "result.json").is_file()
    assert (run_dir / "spans.jsonl").is_file() == bool(trace)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "loo-cv", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_sampler_takes_its_samples_out_and_disarms_the_timer():
    sampler = run.SpeedSampler()
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    out, own, in_ref = sampler.timed(lambda: time.sleep(0.35) or "done")
    wall = time.perf_counter() - start
    assert out == "done"
    assert len(sampler.samples) >= 2
    assert 0.0 < own < wall
    assert in_ref > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_tracer_restores_attributes_and_self_times_add_up():
    data = generate_synthetic_network(4, 3, 1.0, 16)
    configs = [_smoke(replace(loo_cv_config(4, "left"), variant="full"))]
    originals = {(p.owner, p.attr): vars(p.owner)[p.attr] for p in tracer_mod.PROBES}
    untraced = leave_one_out(data, configs)
    with tracer_mod.Tracer() as t:
        traced = [t.call(leave_one_out, data, configs) for _ in range(2)]
    assert all(r.to_long_text() == untraced.to_long_text() for r in traced)
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    assert sum(t.self_times().values()) == pytest.approx(t.root_seconds(), rel=1e-9)
    assert t.counters["dataset.split.calls"] == 6
    assert t.counters["lasso.cv.calls"] == 6
    # Fold ids are split ordinals across calls; root spans are outside any fold.
    assert {s.fold for s in t.spans if s.name != tracer_mod.ROOT} == set(range(6))
    assert [s.fold for s in t.spans if s.name == tracer_mod.ROOT] == [-1, -1]
    for s in t.spans:
        if s.parent is not None:
            parent = t.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    # One config over three folds: no CV or ITML input repeats within a call.
    assert t.distinct["lasso.cv"] == 6 and t.distinct["itml.fit"] == 6


def test_argument_digest_separates_arrays_and_matches_copies():
    a = np.arange(6.0).reshape(2, 3)
    assert tracer_mod.argument_digest((a,), {}) == tracer_mod.argument_digest((a.copy(),), {})
    assert tracer_mod.argument_digest((a,), {}) != tracer_mod.argument_digest((a.T,), {})
    assert tracer_mod.argument_digest((a,), {"k": 1}) != tracer_mod.argument_digest((a,), {"k": 2})
