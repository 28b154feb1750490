"""One simulation of a workload, observed from the outside.

The benchmark runs the repo's own entry points, ``run_experiment`` and
``run_crash_experiment``, so it measures exactly the code the paper
reproductions run.  To see inside them it swaps, for the length of one
call, the ``Cluster`` and ``YcsbClient`` names those two modules use for
subclasses that only record: a host span around each call into them, the
setup/run boundary, and a snapshot of the simulated counters when setup
ends.  The subclasses change no simulated behaviour; ``run.py`` checks
that on every traced run by comparing determinism digests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

import repro.cluster.crash as crash_module
import repro.cluster.experiment as experiment_module
from repro.cluster import (Cluster, CrashExperimentSpec, run_crash_experiment,
                           run_experiment)
from repro.experiments.sweep import crash_experiment_digest, experiment_digest
from repro.ycsb.client import YcsbClient

from tracing import Spans

__all__ = ["Sim", "simulate"]

MIB = 1024 * 1024


@dataclass
class Sim:
    """What one simulation measured.

    ``ops``/``latencies``/``makespan``/``energy_j`` cover the clients'
    operations; ``phase_s``/``phase_j_per_node``/``power_w`` cover the
    measured phase (the clients' run, or the crash recovery)."""

    # Host wall seconds (``perf_counter``) of the setup and of the
    # measured run, and the (start, end) of each on the CPU clock given
    # to :func:`simulate`.
    setup_s: float = 0.0
    run_s: float = 0.0
    setup_cpu: Tuple[float, float] = (0.0, 0.0)
    run_cpu: Tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    latencies: List[float] = field(default_factory=list)
    makespan: float = 0.0
    energy_j: float = 0.0
    phase_s: float = 0.0
    phase_j_per_node: float = 0.0
    power_w: float = 0.0
    # Simulated per-layer counters, keyed by their per-layer metric name.
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    # The repo's determinism digest of the run's result
    # (repro.experiments.sweep); it leaves out a crash run's probe
    # clients, which :meth:`reported` covers.
    digest: str = ""

    def reported(self) -> tuple:
        """Every simulated number the benchmark reports from this run."""
        return (self.digest, self.attempted, self.failed, self.ops,
                self.makespan, self.energy_j, self.phase_s,
                self.phase_j_per_node, self.power_w, tuple(self.latencies),
                tuple(sorted(self.counters.items())))


class _Seen:
    """State the observing subclasses fill in during one call."""

    def __init__(self) -> None:
        self.cluster: Optional[Cluster] = None
        self.clients: List[YcsbClient] = []
        self.setup_end = 0.0
        self.run_start = 0.0
        self.setup_end_cpu = 0.0
        self.run_start_cpu = 0.0
        self.collect_start = 0.0
        self.base: Dict[str, float] = {}


def _totals(cluster: Cluster) -> Dict[str, float]:
    """Cumulative simulated counters over the server fleet."""
    servers, nodes = cluster.servers, cluster.server_nodes
    return {
        "disk_read": sum(n.disk.bytes_read for n in nodes),
        "disk_write": sum(n.disk.bytes_written for n in nodes),
        "disk_busy": sum(n.disk.busy_seconds for n in nodes),
        "messages": cluster.fabric.messages_delivered,
        "net_bytes": cluster.fabric.bytes_delivered,
        "log_bytes": sum(s.log.appended_bytes for s in servers),
        "writes": sum(s.writes_completed for s in servers),
        "replications": sum(s.replications_handled for s in servers),
        "index_inserts": sum(s.index_inserts for s in servers),
        "searches": sum(s.searches_served for s in servers),
        "dropped": sum(s.requests_dropped for s in servers),
        "retries": sum(c.retries for c in cluster.clients),
        "timeouts": sum(c.timeouts for c in cluster.clients),
    }


def _observers(spans: Spans, seen: _Seen, clock: Callable[[], float]):
    class ObservedCluster(Cluster):
        def __init__(self, spec):
            with spans.span("cluster.build"):
                super().__init__(spec)
            seen.cluster = self

        def create_table(self, *args, **kwargs):
            with spans.span("cluster.create_table"):
                return super().create_table(*args, **kwargs)

        def create_index(self, *args, **kwargs):
            with spans.span("cluster.create_index"):
                return super().create_index(*args, **kwargs)

        def _loaded(self) -> None:
            seen.setup_end = seen.run_start = time.perf_counter()
            seen.setup_end_cpu = seen.run_start_cpu = clock()
            seen.base = _totals(self)

        def preload(self, *args, **kwargs):
            with spans.span("cluster.preload"):
                counts = super().preload(*args, **kwargs)
            self._loaded()
            return counts

        def preload_indexed(self, *args, **kwargs):
            with spans.span("cluster.preload"):
                counts = super().preload_indexed(*args, **kwargs)
            self._loaded()
            return counts

        def inject_faults(self, schedule):
            seen.run_start = time.perf_counter()
            seen.run_start_cpu = clock()
            with spans.span("cluster.inject_faults"):
                return super().inject_faults(schedule)

        def stop_metering(self) -> None:
            seen.collect_start = time.perf_counter()
            spans.add("cluster.step_loop", seen.run_start, seen.collect_start)
            with spans.span("cluster.stop_metering"):
                super().stop_metering()

    class ObservedYcsbClient(YcsbClient):
        def __init__(self, *args, **kwargs):
            with spans.span("ycsb.client_init"):
                super().__init__(*args, **kwargs)
            seen.clients.append(self)

    return ObservedCluster, ObservedYcsbClient


def simulate(spec, spans: Spans,
             clock: Callable[[], float] = time.process_time) -> Sim:
    """Run one simulation of ``spec`` (an ``ExperimentSpec`` or a
    ``CrashExperimentSpec``) and collect everything the benchmark
    reports about it; ``clock`` is the CPU clock it times with."""
    seen = _Seen()
    cluster_cls, client_cls = _observers(spans, seen, clock)
    crash = isinstance(spec, CrashExperimentSpec)
    module = crash_module if crash else experiment_module
    with spans.span("bench.simulation"):
        start = time.perf_counter()
        start_cpu = clock()
        with mock.patch.object(module, "Cluster", cluster_cls), \
                mock.patch.object(module, "YcsbClient", client_cls):
            if crash:
                result = run_crash_experiment(spec)
            else:
                result = run_experiment(spec)
        end_cpu = clock()
        end = time.perf_counter()
        spans.add("cluster.collect", seen.collect_start, end)
    sim = Sim(setup_s=seen.setup_end - start, run_s=end - seen.run_start,
              setup_cpu=(start_cpu, seen.setup_end_cpu),
              run_cpu=(seen.run_start_cpu, end_cpu))
    if crash:
        user_bytes = _crash_metrics(sim, spec, result, seen)
        sim.digest = crash_experiment_digest(result)
    else:
        user_bytes = _ycsb_metrics(sim, spec, result, seen)
        sim.digest = experiment_digest(result)
    _layer_counters(sim, seen, user_bytes)
    return sim


def _client_ops(sim: Sim, seen: _Seen) -> None:
    for client in seen.clients:
        sim.ops += client.stats.total_ops
        sim.failed += client.stats.errors
        sim.latencies.extend(client.stats.all_latencies().latencies)


def _ycsb_metrics(sim: Sim, spec, result, seen: _Seen) -> int:
    """Fill in a YCSB run's metrics; returns the user bytes written."""
    _client_ops(sim, seen)
    sim.attempted = spec.cluster.num_clients * spec.workload.ops_per_client
    if sim.ops != result.total_ops or sim.failed != result.client_errors:
        sim.problems.append("observed clients disagree with the result")
    if sim.ops + sim.failed != sim.attempted:
        sim.problems.append(
            f"{sim.ops} completed + {sim.failed} failed ops != "
            f"{sim.attempted} attempted")
    if result.clients_gave_up:
        sim.problems.append(f"{result.clients_gave_up} clients gave up")
    sim.makespan = result.makespan
    sim.energy_j = result.total_energy_joules
    sim.phase_s = result.makespan
    sim.phase_j_per_node = (result.total_energy_joules
                            / spec.cluster.num_servers)
    sim.power_w = result.avg_power_per_server
    sim.counters["hardware.cpu_util_pct"] = result.cpu_util_avg
    return sum(len(c.stats.updates) + len(c.stats.inserts)
               for c in seen.clients) * spec.workload.record_size


def _crash_metrics(sim: Sim, spec, result, seen: _Seen) -> int:
    """Fill in a crash run's metrics; its probes write nothing."""
    _client_ops(sim, seen)
    # Probe ops still in flight when the run stops are not counted;
    # the recovery itself counts as one attempted operation.
    sim.attempted = sim.ops + sim.failed + 1
    recovery = result.recovery
    if recovery is None or recovery.finished_at is None:
        sim.failed += 1
        sim.problems.append("the crash recovery did not finish")
        return 0
    if recovery.data_was_lost:
        sim.failed += 1
        sim.problems.append(
            f"recovery lost {recovery.lost_segments} segments")
        return 0
    sim.makespan = seen.cluster.sim.now
    sim.energy_j = seen.cluster.total_energy_joules()
    sim.phase_s = recovery.duration
    sim.phase_j_per_node = result.energy_per_node_during_recovery()
    sim.power_w = result.avg_power_during_recovery()
    sim.counters.update({
        "hardware.cpu_util_pct": result.cluster_cpu.window(
            recovery.started_at, recovery.finished_at).mean(),
        "ramcloud.recovery.detect_s": recovery.detected_at - spec.kill_at,
        "ramcloud.recovery.replayed_mb": recovery.bytes_to_recover / MIB,
        "ramcloud.recovery.repair_s": result.repair_time or 0.0,
    })
    return 0


def _layer_counters(sim: Sim, seen: _Seen, user_bytes: int) -> None:
    cluster = seen.cluster
    now = _totals(cluster)
    delta = {key: now[key] - seen.base.get(key, 0) for key in now}
    ops = max(sim.ops, 1)
    counters = sim.counters
    # The kernel's event counter, which ExperimentResult.sim_events
    # reports for YCSB runs; crash results do not carry it.
    counters["sim.events"] = cluster.sim._seq
    counters["hardware.disk_read_mb"] = delta["disk_read"] / MIB
    counters["hardware.disk_write_mb"] = delta["disk_write"] / MIB
    counters["hardware.disk_busy_s"] = delta["disk_busy"]
    counters["net.messages_per_op"] = delta["messages"] / ops
    counters["net.mb"] = delta["net_bytes"] / MIB
    counters["ramcloud.server.index_inserts"] = delta["index_inserts"]
    counters["ramcloud.server.searches_served"] = delta["searches"]
    counters["ramcloud.server.replications_per_write"] = (
        delta["replications"] / delta["writes"] if delta["writes"] else 0.0)
    counters["ramcloud.log.bytes_per_user_byte"] = (
        delta["log_bytes"] / user_bytes if user_bytes else 0.0)
    counters["ramcloud.server.worker_queue_max"] = max(
        s.worker_queue.max_occupancy for s in cluster.servers)
    counters["ramcloud.client.retries"] = delta["retries"]
    counters["ramcloud.client.timeouts"] = delta["timeouts"]
    counters["ramcloud.server.requests_dropped"] = delta["dropped"]
    counters["ycsb.stats.samples_kept"] = sum(
        len(recorder) for c in seen.clients
        for recorder in (c.stats.reads, c.stats.updates, c.stats.inserts,
                         c.stats.scans, c.stats.index_ops))
    # Zero where the run has no crash recovery (or it failed).
    for key in ("hardware.cpu_util_pct", "ramcloud.recovery.detect_s",
                "ramcloud.recovery.replayed_mb", "ramcloud.recovery.repair_s"):
        counters.setdefault(key, 0.0)
