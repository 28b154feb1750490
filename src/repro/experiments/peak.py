"""§IV — the energy footprint of peak performance.

Reproduces Fig. 1a (aggregated read-only throughput), Fig. 1b (average
power per server), Table I (per-node CPU usage) and Fig. 2 (energy
efficiency), with the paper's methodology: replication disabled,
read-only workload, uniform data and request distribution, one client
per machine, Infiniband.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec, ExperimentSpec
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    SweepReport,
    grid_aggregates,
    outcome_from_experiment,
)
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_C

__all__ = ["run_fig1_peak", "run_table1_cpu", "run_fig2_efficiency",
           "fig1_sweep_plan", "table1_sweep_plan"]

# Paper values.  Text-sourced numbers are exact; curve points without a
# number in the text are digitized from the figures (marked ~ in notes).
PAPER_FIG1A_KOPS = {  # (servers, clients) → Kop/s
    (1, 1): 30, (1, 10): 300, (1, 30): 372,
    (5, 1): 30, (5, 10): 310, (5, 30): 900,
    (10, 1): 30, (10, 10): 310, (10, 30): 910,
}
PAPER_FIG1B_WATTS = {  # (servers, clients) → W/server
    (1, 1): 92, (1, 10): 127, (1, 30): 127,
    (5, 1): 93, (5, 10): 124, (5, 30): 124,
    (10, 1): 95, (10, 10): 122, (10, 30): 122,
}
PAPER_TABLE1_CPU = {  # (servers, clients) → average CPU %
    (1, 0): 25.0, (1, 1): 49.81, (1, 2): 74.16, (1, 3): 79.66,
    (1, 4): 89.80, (1, 5): 94.34, (1, 10): 98.35, (1, 30): 99.26,
    (5, 1): 49.7, (5, 5): 85.4, (5, 10): 97.2, (5, 30): 97.0,
    (10, 1): 49.8, (10, 5): 76.4, (10, 10): 92.5, (10, 30): 95.4,
}
PAPER_FIG2_OPS_PER_JOULE = {  # (servers, clients) → op/joule
    (1, 1): 320, (1, 10): 2400, (1, 30): 3000,
    (5, 1): 65, (5, 10): 500, (5, 30): 1450,
    (10, 1): 32, (10, 10): 250, (10, 30): 395,
}


TABLE1_GRID = ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
               (1, 10), (1, 30), (5, 5), (5, 30), (10, 5), (10, 30))


def _peak_spec(servers: int, clients: int, scale: Scale,
               seed: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients,
            server_config=ServerConfig(replication_factor=0),
            seed=seed),
        workload=WORKLOAD_C.scaled(num_records=scale.num_records,
                                   ops_per_client=scale.ops_per_client),
    )


def _fig1_cell(params: Dict[str, object], seed: int,
               scale: Scale):
    """Sweep cell runner: one (servers, clients, seed) point of the
    §IV read-only grid."""
    from repro.cluster import run_experiment
    result = run_experiment(_peak_spec(int(params["servers"]),
                                       int(params["clients"]),
                                       scale, seed=seed))
    return outcome_from_experiment(result)


def _label(servers: int, clients: int) -> str:
    return f"{servers} servers / {clients} clients"


def _peak_plan(grid: Sequence[Tuple[int, int]], scale: Scale,
               seeds: Optional[Sequence[int]]) -> SweepPlan:
    points = tuple(SweepPoint.of(_label(servers, clients),
                                 servers=servers, clients=clients)
                   for servers, clients in grid)
    return SweepPlan("fig1", points, tuple(seeds or scale.seeds), scale)


def fig1_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    server_counts: Sequence[int] = (1, 5, 10),
                    client_counts: Sequence[int] = (1, 10, 30),
                    ) -> SweepPlan:
    """The Fig. 1/Fig. 2 grid as a :class:`SweepPlan` (one sweep feeds
    both runners — they measure the same cells)."""
    return _peak_plan([(servers, clients) for servers in server_counts
                       for clients in client_counts], scale, seeds)


def table1_sweep_plan(scale: Scale = DEFAULT,
                      seeds: Optional[Sequence[int]] = None,
                      grid: Sequence[Tuple[int, int]] = TABLE1_GRID,
                      ) -> SweepPlan:
    """The seeded points of the Table I grid (its idle rows are a
    workload-free measurement, not sweep cells)."""
    return _peak_plan([(servers, clients) for servers, clients in grid
                       if clients], scale, seeds)


SWEEP_CELLS = {"fig1": _fig1_cell}
SWEEP_PLANS = {"fig1": fig1_sweep_plan}


def run_fig1_peak(scale: Scale = DEFAULT,
                  server_counts: Sequence[int] = (1, 5, 10),
                  client_counts: Sequence[int] = (1, 10, 30),
                  sweep: Optional[SweepReport] = None,
                  ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 1a (throughput) and Fig. 1b (average power per server)."""
    throughput = ComparisonTable(
        "Fig. 1a", "read-only aggregated throughput (Kop/s)")
    power = ComparisonTable(
        "Fig. 1b", "average power per server (W)")
    merged = grid_aggregates(
        fig1_sweep_plan(scale, server_counts=server_counts,
                        client_counts=client_counts), sweep)
    for servers in server_counts:
        for clients in client_counts:
            label = _label(servers, clients)
            metrics = merged[label]
            throughput.add(label,
                           PAPER_FIG1A_KOPS.get((servers, clients)),
                           metrics["throughput"].mean / 1000.0, "K")
            power.add(label,
                      PAPER_FIG1B_WATTS.get((servers, clients)),
                      metrics["avg_power_per_server"].mean, "W")
    throughput.note("paper points without an exact number in the text "
                    "are digitized from the figure")
    power.note("power model calibrated on the paper's (CPU%, W) anchors "
               "— DESIGN.md §4")
    return throughput, power


def run_table1_cpu(scale: Scale = DEFAULT,
                   grid: Sequence[Tuple[int, int]] = TABLE1_GRID,
                   sweep: Optional[SweepReport] = None,
                   ) -> ComparisonTable:
    """Table I: average CPU usage per node for the read-only grid."""
    table = ComparisonTable(
        "Table I", "average per-node CPU usage, read-only workload (%)")
    plan = table1_sweep_plan(scale, grid=grid)
    merged = grid_aggregates(plan, sweep) if plan.points else {}
    for servers, clients in grid:
        if clients == 0:
            # Idle measurement: no workload, just the running servers.
            from repro.cluster import Cluster
            cluster = Cluster(ClusterSpec(
                num_servers=servers, num_clients=0,
                server_config=ServerConfig(replication_factor=0)))
            cluster.start_metering()
            cluster.run(until=5.0)
            measured = sum(
                n.cpu.utilization_between(0.0, 5.0)
                for n in cluster.server_nodes) / servers
        else:
            measured = merged[_label(servers, clients)]["cpu_util_avg"].mean
        table.add(_label(servers, clients),
                  PAPER_TABLE1_CPU.get((servers, clients)), measured, "%")
    table.note("the idle row is the pinned dispatch core: 1 of 4 cores "
               "busy-polling = 25 %")
    return table


def run_fig2_efficiency(scale: Scale = DEFAULT,
                        server_counts: Sequence[int] = (1, 5, 10),
                        client_counts: Sequence[int] = (1, 10, 30),
                        sweep: Optional[SweepReport] = None,
                        ) -> ComparisonTable:
    """Fig. 2: energy efficiency (operations per joule).

    The same grid as Fig. 1, so the same ``sweep`` serves both.
    """
    table = ComparisonTable("Fig. 2", "energy efficiency (op/joule)")
    measured_cache: Dict[Tuple[int, int], float] = {}
    merged = grid_aggregates(
        fig1_sweep_plan(scale, server_counts=server_counts,
                        client_counts=client_counts), sweep)
    for servers in server_counts:
        for clients in client_counts:
            eff = merged[_label(servers, clients)]["energy_efficiency"].mean
            measured_cache[(servers, clients)] = eff
            table.add(_label(servers, clients),
                      PAPER_FIG2_OPS_PER_JOULE.get((servers, clients)),
                      eff, " op/J")
    # The paper's headline: 1 server at 30 clients is ≈7.6× more
    # efficient than 10 servers at 30 clients.
    if (1, 30) in measured_cache and (10, 30) in measured_cache:
        table.add("efficiency ratio 1 vs 10 servers (30 clients)",
                  7.6,
                  measured_cache[(1, 30)] / measured_cache[(10, 30)])
    return table


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    scale = active_scale()
    fig1a, fig1b = run_fig1_peak(scale)
    print(fig1a.render())
    print()
    print(fig1b.render())
    print()
    print(run_table1_cpu(scale).render())
    print()
    print(run_fig2_efficiency(scale).render())


if __name__ == "__main__":  # pragma: no cover
    main()
