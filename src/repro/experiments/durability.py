"""Extension — the consistency/durability frontier.

The paper measures RAMCloud's write path only at full synchronous
replication (§VI: every ack waits for RF backups).  The tunable
consistency levels (docs/CONSISTENCY.md) expose the frontier the paper
could not see: what does each notch of relaxed durability buy in
latency, throughput and energy efficiency — and what exactly does a
crash cost at that notch?

Two tables:

* :func:`run_consistency_frontier` — workload A at each level on the
  same cluster: throughput, mean op latency, ops/joule;
* :func:`run_durability_gap_table` — the measured crash-loss guarantee
  per level (the :mod:`repro.cluster.durability` harness): acked
  writes, acked-write loss, observed staleness vs the bound, recovery
  time.

The frontier grid is registered in ``SWEEP_CELLS``/``SWEEP_PLANS`` so
``tools/sweep.py --experiment frontier`` fans it out across workers
with the same determinism digests as every other sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster import (
    ClusterSpec,
    DurabilityGapSpec,
    ExperimentSpec,
    run_durability_gap,
)
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    SweepReport,
    grid_aggregates,
    outcome_from_experiment,
)
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import LEVELS
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["run_consistency_frontier", "run_durability_gap_table",
           "frontier_sweep_plan"]


def _frontier_spec(level: str, rf: int, servers: int, clients: int,
                   scale: Scale) -> ExperimentSpec:
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients,
            server_config=ServerConfig(replication_factor=rf,
                                       default_consistency=level)),
        workload=WORKLOAD_A.scaled(num_records=scale.num_records,
                                   ops_per_client=scale.ops_per_client),
        give_up_after=5.0,
    )


def _frontier_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one (level, rf, seed) frontier point."""
    from repro.cluster import run_experiment
    spec = _frontier_spec(str(params["level"]), int(params["rf"]),
                          int(params["servers"]), int(params["clients"]),
                          scale)
    spec = spec.with_(cluster=spec.cluster.with_(seed=seed))
    return outcome_from_experiment(run_experiment(spec))


def frontier_sweep_plan(scale: Scale = DEFAULT,
                        seeds: Optional[Sequence[int]] = None,
                        levels: Sequence[str] = LEVELS,
                        rfs: Sequence[int] = (2,),
                        servers: int = 10,
                        clients: int = 10) -> SweepPlan:
    """The consistency frontier grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"{level} / RF {rf}",
                      level=level, rf=rf, servers=servers, clients=clients)
        for level in levels for rf in rfs)
    return SweepPlan("frontier", points, tuple(seeds or scale.seeds), scale)


SWEEP_CELLS = {"frontier": _frontier_cell}
SWEEP_PLANS = {"frontier": frontier_sweep_plan}


def run_consistency_frontier(scale: Scale = DEFAULT,
                             levels: Sequence[str] = LEVELS,
                             rf: int = 2,
                             servers: int = 10,
                             clients: int = 10,
                             sweep: Optional[SweepReport] = None,
                             ) -> ComparisonTable:
    """Latency/throughput/ops-per-joule at each consistency level."""
    table = ComparisonTable(
        "Ext. frontier",
        f"workload A per consistency level, {servers} servers / "
        f"{clients} clients / RF {rf}")
    merged = grid_aggregates(
        frontier_sweep_plan(scale, levels=levels, rfs=(rf,), servers=servers,
                            clients=clients), sweep)
    for level in levels:
        metrics = merged[f"{level} / RF {rf}"]
        table.add(f"{level} throughput", None,
                  metrics["throughput"].mean / 1000.0, " Kop/s")
        table.add(f"{level} mean latency", None,
                  metrics["mean_latency"].mean * 1e6, " us")
        table.add(f"{level} efficiency", None,
                  metrics["energy_efficiency"].mean, " op/J")
    table.note("no paper column: the paper only measures the sync_rf "
               "point of this frontier (§VI)")
    table.note("scaling note: relaxed levels buy the most at high RF "
               "and write fraction — the ack path drops RF round trips")
    return table


def run_durability_gap_table(scale: Scale = DEFAULT,
                             levels: Sequence[str] = LEVELS,
                             rf: int = 1,
                             servers: int = 4) -> ComparisonTable:
    """Measured crash-loss per level: what the ack was worth."""
    table = ComparisonTable(
        "Ext. durability gap",
        f"acked-write loss under a master crash, {servers} servers / "
        f"RF {rf}")
    for level in levels:
        spec = DurabilityGapSpec(
            cluster=ClusterSpec(
                num_servers=servers, num_clients=2,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=rf),
                seed=scale.seeds[0]),
            level=level,
            # The stream must still be flowing when the crash lands
            # (default crash_at=0.25, one write per 4 ms ⇒ ≥100 writes
            # span it) or there is no in-flight tail to measure.
            writes_per_client=max(100, scale.ops_per_client // 4),
        )
        result = run_durability_gap(spec)
        table.add(f"{level} acked writes", None,
                  float(result.acked_writes), "")
        table.add(f"{level} acked-write loss", None,
                  float(result.acknowledged_write_loss), "")
        table.add(f"{level} observed staleness", None,
                  result.max_observed_staleness * 1e3, " ms")
        if result.recovery_duration is not None:
            table.add(f"{level} recovery time", None,
                      result.recovery_duration * 1e3, " ms")
    table.note("sync_rf loss must be exactly 0 (enforced by "
               "tests/integration/test_durability_gap.py); relaxed "
               "levels may lose at most the in-flight batch")
    table.note(f"staleness bound: "
               f"{ServerConfig().staleness_bound_seconds * 1e3:.0f} ms "
               f"sim-time / {ServerConfig().staleness_bound_bytes} bytes")
    return table


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    scale = active_scale()
    print(run_consistency_frontier(scale).render())
    print()
    print(run_durability_gap_table(scale).render())


if __name__ == "__main__":  # pragma: no cover
    main()
