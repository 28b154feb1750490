#!/usr/bin/env python3
"""The repo's benchmark: host and simulated metrics for one workload.

    python3 perfbench/run.py --workload ycsb-a-rf3 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it runs the workload's simulations (see workloads.py)
until ``--seconds`` have passed, at least once each, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the first simulation
twice, plain and then under cProfile with GC and span tracing, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  Either way
it checks the outputs (README.md, "Output checks") and prints, as its last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when the checks pass, 1 when they fail, 2 when the repo
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# At least this many latency samples per run, so p99.9 has ten samples
# beyond it and the slowest 1 % that the tail metric averages has 100.
MIN_SAMPLES = 10_000

# (name, unit) of every metric, in print order.  BENCHMARK.json lists
# the same names; tests/test_perfbench.py keeps the two in step.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_op_ratio", "ratio"),
    ("sim_throughput_kops", "kop/s"),
    ("sim_lat_mean_us", "us"),
    ("sim_lat_slowest1pct_us", "us"),
    ("sim_ops_per_joule", "op/J"),
    ("sim_power_w", "W"),
    ("sim_phase_s", "s"),
    ("sim_phase_j_per_node", "J"),
)

# Modules whose host self-time is reported; the rest of the profile is
# summed into ``other.self_s``.
SELF_TIME_LAYERS = (
    "sim.kernel", "sim.resources", "hardware.cpu", "net.rpc", "net.fabric",
    "ramcloud.server", "ramcloud.client", "ramcloud.tablets",
    "ramcloud.log", "ramcloud.segment", "ramcloud.hashtable",
    "ramcloud.indexing", "ramcloud.coordinator", "ycsb.client",
    "cluster.experiment",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS),
    ("other.self_s", "s"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("cluster.build_s", "s"),
    ("cluster.preload_s", "s"),
    ("cluster.step_loop_s", "s"),
    ("cluster.collect_s", "s"),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("hardware.cpu_util_pct", "%"),
    ("hardware.disk_write_mb", "MiB"),
    ("hardware.disk_read_mb", "MiB"),
    ("hardware.disk_busy_s", "s"),
    ("net.messages_per_op", "count"),
    ("net.mb", "MiB"),
    ("ramcloud.server.index_inserts", "count"),
    ("ramcloud.server.searches_served", "count"),
    ("ramcloud.server.replications_per_write", "count"),
    ("ramcloud.log.bytes_per_user_byte", "ratio"),
    ("ramcloud.server.worker_queue_max", "count"),
    ("ramcloud.client.retries", "count"),
    ("ramcloud.client.timeouts", "count"),
    ("ramcloud.server.requests_dropped", "count"),
    ("ramcloud.recovery.detect_s", "s"),
    ("ramcloud.recovery.replayed_mb", "MiB"),
    ("ramcloud.recovery.repair_s", "s"),
    ("ycsb.stats.samples_kept", "count"),
)

class Outcome:
    """A run's verdict and metrics, printed as the last stdout line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def count(self, sim) -> None:
        """Fold one simulation's operation counts and problems in."""
        self.attempted += sim.attempted
        self.failed += sim.failed
        self.problems.extend(sim.problems)

    def emit(self, units: Sequence[Tuple[str, str]]) -> bool:
        """Print the metrics, the notes and the JSON line; True if the
        output checks passed."""
        for note in self.notes:
            print(f"# {note}")
        for name, unit in units:
            print(f"{name} = {self.metrics[name]!r} {unit}")
        for problem in self.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        correct = not self.problems
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in units},
        }))
        return correct


def _percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def measured_run(workload, seed: int, seconds: float) -> Outcome:
    """The untraced run: every simulation once, then repeats until
    ``seconds`` have passed; host times are medians over all of them,
    in seconds on the reference host (calibrate.py)."""
    from calibrate import Speedometer
    from drive import simulate
    from tracing import Spans
    from workloads import sub_seed

    out = Outcome()
    sims = []
    setup_s: List[float] = []
    run_s: List[float] = []
    setup_wall_s: List[float] = []
    run_wall_s: List[float] = []
    started = time.perf_counter()
    i = 0
    with Speedometer() as speed:
        while (i < workload.subruns
               or time.perf_counter() - started < seconds):
            index = i % workload.subruns
            # Leave no garbage of the last simulation to this one.
            gc.collect()
            sim = simulate(workload.build(sub_seed(seed, index)), Spans(),
                           speed.clock)
            setup_s.append(speed.reference_s(*sim.setup_cpu))
            run_s.append(speed.reference_s(*sim.run_cpu))
            setup_wall_s.append(sim.setup_s)
            run_wall_s.append(sim.run_s)
            if i < workload.subruns:
                sims.append(sim)
                out.count(sim)
            elif sim.reported() != sims[index].reported():
                out.problems.append(f"simulation {index} gave a different "
                                    "result when repeated")
            i += 1
    passes = [pass_s for _t, pass_s in speed.samples]

    latencies = sorted(lat for sim in sims for lat in sim.latencies)
    if len(latencies) < MIN_SAMPLES:
        out.problems.append(f"only {len(latencies)} latency samples, "
                            f"fewer than {MIN_SAMPLES}")
        latencies = latencies or [0.0]
    slowest = latencies[-max(1, len(latencies) // 100):]
    ops = sum(sim.ops for sim in sims)
    phase = sum(sim.phase_s for sim in sims)
    energy = sum(sim.energy_j for sim in sims)
    makespan = sum(sim.makespan for sim in sims)
    out.metrics = {
        "host_run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "completed_op_ratio": ((out.attempted - out.failed) / out.attempted
                               if out.attempted else 0.0),
        "sim_throughput_kops": ops / makespan / 1e3 if makespan else 0.0,
        "sim_lat_mean_us": 1e6 * statistics.fmean(latencies),
        "sim_lat_slowest1pct_us": 1e6 * statistics.fmean(slowest),
        "sim_ops_per_joule": ops / energy if energy else 0.0,
        "sim_power_w": (sum(sim.power_w * sim.phase_s for sim in sims)
                        / phase if phase else 0.0),
        "sim_phase_s": phase / len(sims),
        "sim_phase_j_per_node": (sum(sim.phase_j_per_node for sim in sims)
                                 / len(sims)),
    }
    out.notes = [
        f"{workload.name} seed {seed}: {len(sims)} simulations, "
        f"{len(run_s)} timed runs",
        f"as measured: median run {statistics.median(run_wall_s)!r} s and "
        f"setup {statistics.median(setup_wall_s)!r} s wall; "
        f"{len(passes)} reference passes, median "
        f"{statistics.median(passes or [0.0])!r} s CPU",
        f"sim_lat_p50_us = {1e6 * _percentile(latencies, 50)!r} us, "
        f"sim_lat_p999_us = {1e6 * _percentile(latencies, 99.9)!r} us "
        f"over {len(latencies)} samples",
    ]
    return out


def traced_run(workload, seed: int) -> Outcome:
    """The traced run: the first simulation plain, then again under
    cProfile, GC metering and spans; their digests must match."""
    from drive import simulate
    from tracing import GcMeter, LayerProfile, Spans
    from workloads import sub_seed

    spec = workload.build(sub_seed(seed, 0))
    out = Outcome()
    gc.collect()
    plain = simulate(spec, Spans())
    out.count(plain)
    gc.collect()
    spans = Spans()
    with GcMeter() as gc_meter, LayerProfile() as profile:
        traced = simulate(spec, spans)
    out.count(traced)
    if traced.reported() != plain.reported():
        out.problems.append("the traced simulation's results differ from "
                            "the untraced one's: tracing changed the model")

    own = profile.self_times(gc_meter)
    metrics = {f"{layer}.self_s": own.get(layer, 0.0)
               for layer in SELF_TIME_LAYERS}
    metrics["other.self_s"] = sum(seconds for layer, seconds in own.items()
                                  if layer not in SELF_TIME_LAYERS)
    metrics.update({
        "gc.pause_s": gc_meter.pause_s,
        "gc.collections": gc_meter.collections,
        "trace.wall_s": profile.wall_s,
        "trace.overhead_ratio": traced.run_s / plain.run_s,
        "cluster.build_s": spans.total("cluster.build"),
        "cluster.preload_s": spans.total("cluster.preload"),
        "cluster.step_loop_s": spans.total("cluster.step_loop"),
        "cluster.collect_s": spans.total("cluster.collect"),
        "sim.host_us_per_event": 1e6 * plain.run_s
        / plain.counters["sim.events"],
    })
    metrics.update(plain.counters)
    out.metrics = metrics

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "digest": traced.digest,
                   "untraced_run_s": plain.run_s,
                   "self_s": dict(sorted(own.items())),
                   "gc_by_layer": gc_meter.by_layer,
                   "metrics": metrics,
                   "spans": spans.as_json()}, fh, indent=1)
    out.notes = [f"{workload.name} seed {seed}: spans and the full "
                 f"module table in {os.path.relpath(path)}"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources at {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Measure what users run: the runtime sanitizers off.
    os.environ["REPRO_SIM_DEBUG"] = "0"
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        correct = traced_run(workload, args.seed).emit(PER_LAYER)
    else:
        correct = measured_run(workload, args.seed,
                               args.seconds).emit(END_TO_END)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
