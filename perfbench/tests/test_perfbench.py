"""The benchmark's own tests, on smoke-sized copies of its workloads.

Run from the repo root:  PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

import calibrate
import drive
import run
from repro.cluster import CrashExperimentSpec, run_experiment
from repro.experiments.sweep import experiment_digest
from repro.ycsb.client import YcsbClient
from tracing import Spans
from workloads import WORKLOADS, sub_seed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _shrink(spec):
    """A smoke-sized copy of one simulation's spec."""
    if isinstance(spec, CrashExperimentSpec):
        return dataclasses.replace(
            spec, num_records=40_000,
            foreground=spec.foreground.scaled(num_records=40_000)
            .throttled(20.0))
    return spec.with_(
        cluster=spec.cluster.with_(num_servers=4, num_clients=3),
        workload=spec.workload.scaled(num_records=500, ops_per_client=20))


def _smoke(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, subruns=2,
        build=lambda seed: _shrink(workload.build(seed)))


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 10)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_run_emits():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, emitted in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        assert listed == list(emitted)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for metric in spec[key]:
            assert UNIT.match(metric["unit"]), metric
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, capsys):
    workload = _smoke(name)
    for outcome, units in ((run.measured_run(workload, 1, 0.0),
                            run.END_TO_END),
                           (run.traced_run(workload, 1), run.PER_LAYER)):
        assert outcome.problems == []
        assert outcome.attempted >= 1 and outcome.failed == 0
        assert outcome.emit(units)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] \
            == list(units)
        for key, value in line["metrics"].items():
            assert math.isfinite(value["value"]), key


@pytest.mark.parametrize("name", ["ycsb-a-rf3", "crash-recovery-rf3"])
def test_self_times_plus_gc_sum_to_the_traced_wall(name):
    metrics = run.traced_run(_smoke(name), 1).metrics
    total = (sum(v for k, v in metrics.items() if k.endswith(".self_s"))
             + metrics["gc.pause_s"])
    assert total == pytest.approx(metrics["trace.wall_s"], rel=0.03)
    assert metrics["trace.overhead_ratio"] > 1.0


def test_speedometer_samples_while_active_and_then_stops():
    previous = signal.getsignal(signal.SIGPROF)
    with calibrate.Speedometer() as speed:
        start = speed.clock()
        while speed.clock() - start < 8 * calibrate.PERIOD_S:
            pass
        end = speed.clock()
    assert len(speed.samples) >= 4
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert all(start <= t and seconds > 0 for t, seconds in speed.samples)
    assert speed.reference_s(start, end) > 0


def test_reference_seconds_scale_with_the_host_speed():
    speed = calibrate.Speedometer()
    ref = calibrate.REFERENCE_S
    # A host twice as slow as the reference for the first stretch, and
    # as fast for the second; a stretch with no pass inside it takes the
    # speed of the next pass.
    speed.samples = [(0.5, 2 * ref), (1.5, 2 * ref), (2.5, ref)]
    assert speed.reference_s(0.0, 2.0) == pytest.approx(1.0)
    assert speed.reference_s(2.0, 3.0) == pytest.approx(1.0)
    assert speed.reference_s(1.6, 1.7) == pytest.approx(0.1)


def test_a_run_cut_short_fails_the_check(monkeypatch):
    original = YcsbClient.run

    def one_op_short(self):
        self.workload = self.workload.scaled(
            ops_per_client=self.workload.ops_per_client - 1)
        return original(self)

    monkeypatch.setattr(YcsbClient, "run", one_op_short)
    outcome = run.measured_run(_smoke("ycsb-c-rf3"), 1, 0.0)
    assert any("attempted" in problem for problem in outcome.problems)


def test_too_few_samples_fails_the_check(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 10_000)
    outcome = run.measured_run(_smoke("ycsb-c-rf3"), 1, 0.0)
    assert any("latency samples" in problem for problem in outcome.problems)


def test_observing_leaves_run_experiment_unchanged():
    spec = _smoke("index-lookup-rf3").build(sub_seed(1, 0))
    spans = Spans()
    observed = drive.simulate(spec, spans)
    assert observed.digest == experiment_digest(run_experiment(spec))
    names = {name for _i, name, _s, _e, _p in spans.records}
    assert {"bench.simulation", "cluster.build", "cluster.create_index",
            "cluster.preload", "ycsb.client_init", "cluster.step_loop",
            "cluster.collect"} <= names
    root = spans.records[0]
    assert root[1] == "bench.simulation" and root[4] is None
    assert all(parent == root[0] for _i, _n, _s, _e, parent
               in spans.records[1:])


def test_without_the_repo_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a-rf3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
