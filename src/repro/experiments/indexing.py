"""§X — secondary-index scans and multi-tenant admission.

The paper leaves indexing as future work ("one could think of scans to
assess the indexing mechanism", §X) and never shares a testbed between
tenants, so these tables have no paper column: they characterize the
repro's own log-structured indexlets (ROADMAP item 2) the same way the
§V grids characterize the point workloads.

* :func:`run_fig_index` — throughput/latency of the indexed workload
  mixes (workload E over a secondary index, and a point-lookup-heavy
  mix) as the index is split over 1/2/4 indexlets;
* :func:`run_tenant_mix` — two tenants on one cluster, one throttled by
  per-tenant admission control, with the per-tenant SLA breakout.

Both grids are registered as sweep cells (``fig_index``,
``tenant_mix``): the runners render from a sweep report, so the
parallel runner can fan them out like every other grid.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster import ClusterSpec, ExperimentSpec
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    CellOutcome,
    SweepPlan,
    SweepPoint,
    SweepReport,
    grid_aggregates,
    outcome_from_experiment,
)
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.tenancy import TenantSpec
from repro.ycsb.workload import (WORKLOAD_A, WORKLOAD_E_INDEXED,
                                 WORKLOAD_LOOKUP_HEAVY, WorkloadSpec)

__all__ = ["run_fig_index", "run_tenant_mix", "fig_index_sweep_plan",
           "tenant_mix_sweep_plan"]

INDEXED_WORKLOADS: Dict[str, WorkloadSpec] = {
    "E-indexed": WORKLOAD_E_INDEXED,
    "lookup-heavy": WORKLOAD_LOOKUP_HEAVY,
}

# The tenant-mix defaults: an unthrottled "gold" tenant next to a
# "bronze" tenant admitted at this many ops/s per master.
BRONZE_ADMISSION_RATE = 2000.0


def _index_spec(workload: WorkloadSpec, indexlets: int, servers: int,
                clients: int, scale: Scale) -> ExperimentSpec:
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients,
            server_config=ServerConfig(replication_factor=0)),
        workload=workload.scaled(num_records=scale.num_records,
                                 ops_per_client=scale.ops_per_client,
                                 num_indexlets=indexlets),
    )


def _tenant_spec(servers: int, clients: int, bronze_rate: float,
                 scale: Scale) -> ExperimentSpec:
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients,
            server_config=ServerConfig(replication_factor=0)),
        workload=WORKLOAD_A.scaled(num_records=scale.num_records,
                                   ops_per_client=scale.ops_per_client),
        tenants=(TenantSpec("gold"),
                 TenantSpec("bronze", admission_rate=bronze_rate)),
    )


def run_fig_index(scale: Scale = DEFAULT,
                  indexlet_counts: Sequence[int] = (1, 2, 4),
                  servers: int = 4, clients: int = 4,
                  sweep: Optional[SweepReport] = None) -> ComparisonTable:
    """Indexed workload mixes vs indexlet count (no paper column)."""
    table = ComparisonTable(
        "Fig. index", f"secondary-index mixes, {servers} servers "
                      f"(Kop/s; mean op latency noted)")
    merged = grid_aggregates(
        fig_index_sweep_plan(scale, indexlet_counts=indexlet_counts,
                             servers=servers, clients=clients), sweep)
    for name in INDEXED_WORKLOADS:
        for indexlets in indexlet_counts:
            metrics = merged[f"workload {name} / {indexlets} indexlet(s)"]
            table.add(
                f"workload {name} / {indexlets} indexlet(s)", None,
                metrics["throughput"].mean / 1000.0, "K",
                note=f"mean latency "
                     f"{metrics['mean_latency'].mean * 1e6:.0f} µs")
    table.note("index entries are log records: maintained through the "
               "write path, cleaned and recovered like data (§X future "
               "work in the paper; ROADMAP item 2 here)")
    return table


def run_tenant_mix(scale: Scale = DEFAULT, servers: int = 4,
                   clients: int = 4,
                   bronze_rate: float = BRONZE_ADMISSION_RATE,
                   sweep: Optional[SweepReport] = None,
                   ) -> ComparisonTable:
    """Two tenants on one cluster; bronze is admission-throttled."""
    table = ComparisonTable(
        "Tenant mix", f"workload A split across 2 tenants, {servers} "
                      f"servers (bronze admitted at {bronze_rate:.0f} "
                      f"ops/s per master)")
    metrics = grid_aggregates(
        tenant_mix_sweep_plan(scale, servers=servers, clients=clients,
                              bronze_rate=bronze_rate),
        sweep)["gold + bronze"]
    for tenant in ("gold", "bronze"):
        table.add(f"tenant {tenant} ops", None,
                  metrics[f"tenant[{tenant}].ops"].mean, "")
        table.add(f"tenant {tenant} p99 latency", None,
                  metrics[f"tenant[{tenant}].p99_latency"].mean * 1e6,
                  " µs")
        table.add(f"tenant {tenant} throttle drops", None,
                  metrics[f"tenant[{tenant}].throttle_drops"].mean, "")
    table.note("admission control drops non-admitted requests at the "
               "dispatch path; clients retry with backoff, so bronze "
               "trades p99 latency for the cap")
    return table


# -- sweep cells ---------------------------------------------------------


def _index_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell: one (workload, indexlets, seed) point of fig_index."""
    from repro.cluster import run_experiment
    spec = _index_spec(INDEXED_WORKLOADS[str(params["workload"])],
                       int(params["indexlets"]), int(params["servers"]),
                       int(params["clients"]), scale)
    spec = spec.with_(cluster=spec.cluster.with_(seed=seed))
    return outcome_from_experiment(run_experiment(spec))


def _tenant_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell: one seeded tenant-mix run.  The standard outcome is
    widened with the per-tenant breakout so the merged report carries
    each tenant's SLA columns (the digest already covers them)."""
    from repro.cluster import run_experiment
    spec = _tenant_spec(int(params["servers"]), int(params["clients"]),
                        float(params["bronze_rate"]), scale)
    spec = spec.with_(cluster=spec.cluster.with_(seed=seed))
    result = run_experiment(spec)
    base = outcome_from_experiment(result)
    metrics = dict(base.metrics)
    for tenant in sorted(result.per_tenant_stats):
        stats = result.per_tenant_stats[tenant]
        metrics[f"tenant[{tenant}].ops"] = stats["ops"]
        metrics[f"tenant[{tenant}].p99_latency"] = stats["p99_latency"]
        metrics[f"tenant[{tenant}].throttle_drops"] = (
            stats["throttle_drops"])
    return CellOutcome(metrics=metrics, digest=base.digest,
                       events=base.events, ops=base.ops)


def fig_index_sweep_plan(scale: Scale = DEFAULT,
                         seeds: Optional[Sequence[int]] = None,
                         indexlet_counts: Sequence[int] = (1, 2, 4),
                         servers: int = 4, clients: int = 4) -> SweepPlan:
    """The :func:`run_fig_index` grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"workload {name} / {indexlets} indexlet(s)",
                      workload=name, indexlets=indexlets,
                      servers=servers, clients=clients)
        for name in INDEXED_WORKLOADS for indexlets in indexlet_counts)
    return SweepPlan("fig_index", points, tuple(seeds or scale.seeds),
                     scale)


def tenant_mix_sweep_plan(scale: Scale = DEFAULT,
                          seeds: Optional[Sequence[int]] = None,
                          servers: int = 4, clients: int = 4,
                          bronze_rate: float = BRONZE_ADMISSION_RATE,
                          ) -> SweepPlan:
    """The :func:`run_tenant_mix` cell as a :class:`SweepPlan`."""
    point = SweepPoint.of("gold + bronze", servers=servers,
                          clients=clients, bronze_rate=bronze_rate)
    return SweepPlan("tenant_mix", (point,), tuple(seeds or scale.seeds),
                     scale)


SWEEP_CELLS = {"fig_index": _index_cell, "tenant_mix": _tenant_cell}
SWEEP_PLANS = {"fig_index": fig_index_sweep_plan,
               "tenant_mix": tenant_mix_sweep_plan}


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    scale = active_scale()
    print(run_fig_index(scale).render())
    print()
    print(run_tenant_mix(scale).render())


if __name__ == "__main__":  # pragma: no cover
    main()
