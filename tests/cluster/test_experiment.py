"""System tests for the experiment harness."""

import pytest

from repro.cluster import (
    Aggregate,
    ClusterSpec,
    CrashExperimentSpec,
    ExperimentSpec,
    run_crash_experiment,
    run_experiment,
)
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C


def tiny_experiment(workload=None, num_servers=2, num_clients=2, rf=0,
                    **cluster_overrides):
    workload = workload or WORKLOAD_C.scaled(num_records=500,
                                             ops_per_client=200)
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=num_servers, num_clients=num_clients,
            server_config=ServerConfig(replication_factor=rf),
            **cluster_overrides),
        workload=workload,
    )


class TestRunExperiment:
    def test_counts_every_operation(self):
        result = run_experiment(tiny_experiment())
        assert result.total_ops == 400
        assert result.throughput == pytest.approx(
            result.total_ops / result.makespan)

    def test_energy_consistent_with_power(self):
        result = run_experiment(tiny_experiment())
        expected = (result.avg_power_per_server * 2 * result.makespan)
        assert result.total_energy_joules == pytest.approx(expected, rel=0.01)
        assert result.energy_efficiency == pytest.approx(
            result.total_ops / result.total_energy_joules)

    def test_cpu_table_has_every_server(self):
        result = run_experiment(tiny_experiment(num_servers=3))
        assert set(result.cpu_util_per_node) == {
            "server0", "server1", "server2"}
        assert result.cpu_util_min <= result.cpu_util_avg <= result.cpu_util_max

    def test_mean_latency_available(self):
        result = run_experiment(tiny_experiment())
        assert 0 < result.mean_latency() < 1e-2

    def test_not_crashed_on_healthy_run(self):
        result = run_experiment(tiny_experiment())
        assert not result.crashed
        assert result.clients_gave_up == 0

    def test_update_heavy_slower_than_read_only(self):
        """Finding 2 in miniature: same op count, update-heavy is slower
        and burns more total energy (it runs much longer)."""
        ro = run_experiment(tiny_experiment(
            workload=WORKLOAD_C.scaled(num_records=500, ops_per_client=200)))
        uh = run_experiment(tiny_experiment(
            workload=WORKLOAD_A.scaled(num_records=500, ops_per_client=200)))
        assert uh.throughput < ro.throughput
        assert uh.total_energy_joules > ro.total_energy_joules


class TestRepeatExperiment:
    """Per-seed aggregation (seed-ordered merging of whole grids lives
    in tests/sweep/test_plan_and_merge.py)."""

    def test_aggregate_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Aggregate.of([])

    def test_aggregate_format(self):
        agg = Aggregate.of([1.0, 2.0, 3.0])
        assert "±" in f"{agg:.1f}"


class TestCrashExperiment:
    def make_spec(self, **overrides):
        defaults = dict(
            cluster=ClusterSpec(
                num_servers=4, num_clients=0,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            num_records=8000,
            record_size=2048,
            kill_at=3.0,
            run_until=90.0,
            # Finer than the ~0.2 s recovery so at least one CPU/disk
            # sample always lands inside the recovery window.
            sample_interval=0.1,
        )
        defaults.update(overrides)
        return CrashExperimentSpec(**defaults)

    def test_recovery_completes_and_timelines_recorded(self):
        result = run_crash_experiment(self.make_spec())
        assert result.recovery is not None
        assert result.recovery.finished_at is not None
        assert result.recovery_time > 0
        assert len(result.cluster_cpu) > 0
        assert len(result.per_node_power) == 4

    def test_cpu_jumps_during_recovery(self):
        """Fig. 9a: idle 25 % → recovery spike."""
        result = run_crash_experiment(self.make_spec())
        start = result.recovery.started_at
        end = result.recovery.finished_at
        before = [v for t, v in result.cluster_cpu.items() if t < result.spec.kill_at]
        during = [v for t, v in result.cluster_cpu.items()
                  if start < t <= end]
        assert before and during
        assert max(during) > max(before) + 10.0

    def test_disk_activity_burst_during_recovery(self):
        """Fig. 12: reads and re-replication writes during recovery."""
        result = run_crash_experiment(self.make_spec())
        assert max(result.disk_read_mbps.values) > 0
        assert max(result.disk_write_mbps.values) > 0
        # No disk traffic before the crash (data preloaded, no clients).
        pre_crash_writes = [v for t, v in result.disk_write_mbps.items()
                            if t < result.spec.kill_at]
        assert max(pre_crash_writes, default=0.0) == 0.0

    def test_victim_can_be_pinned(self):
        result = run_crash_experiment(self.make_spec(victim_index=2))
        assert result.crashed_server == "server2"

    def test_foreground_client_blocked_by_crash(self):
        """Fig. 10: the client pinned to lost data stalls for the whole
        recovery; the live-data client keeps a low latency."""
        spec = self.make_spec(
            cluster=ClusterSpec(
                num_servers=4, num_clients=2,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            foreground=WORKLOAD_C.scaled(num_records=2000,
                                         ops_per_client=1_000_000),
            victim_index=1,
            split_clients_by_victim=True,
            kill_at=3.0,
            run_until=60.0,
        )
        result = run_crash_experiment(spec)
        lost, live = result.client_latencies[0], result.client_latencies[1]
        worst_lost = max(lat for _t, lat in lost)
        worst_live = max(lat for _t, lat in live)
        assert worst_lost > result.recovery_time * 0.5
        assert worst_live < worst_lost / 10
