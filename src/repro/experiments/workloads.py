"""§V — the energy footprint with read-update workloads.

Reproduces Table II (aggregated throughput of 10 servers for workloads
A/B/C at 10–90 clients), Fig. 3 (scalability factors vs the 10-client
baseline), Fig. 4a (average power per node for 20 servers) and Fig. 4b
(total energy at 90 clients).  Replication is disabled throughout, as
in the paper.
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
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WorkloadSpec

__all__ = ["run_table2_throughput", "run_fig3_scalability", "run_fig4_power",
           "fig4_sweep_plan", "table2_sweep_plan"]

WORKLOADS = {"A": WORKLOAD_A, "B": WORKLOAD_B, "C": WORKLOAD_C}

# Table II, exact values from the paper (Kop/s).
PAPER_TABLE2_KOPS = {
    ("A", 10): 98, ("A", 20): 106, ("A", 30): 64, ("A", 60): 63, ("A", 90): 64,
    ("B", 10): 236, ("B", 20): 454, ("B", 30): 622, ("B", 60): 816,
    ("B", 90): 844,
    ("C", 10): 236, ("C", 20): 482, ("C", 30): 753, ("C", 60): 1433,
    ("C", 90): 2004,
}
# Fig. 4a, digitized (W per node, 20 servers).
PAPER_FIG4A_WATTS = {
    ("C", 10): 82, ("C", 30): 82, ("C", 60): 82, ("C", 90): 93,
    ("B", 10): 92, ("B", 30): 92, ("B", 60): 92, ("B", 90): 100,
    ("A", 10): 90, ("A", 30): 95, ("A", 60): 103, ("A", 90): 110,
}
# Fig. 4b, digitized (total energy at 90 clients, kJ): B is +28 % over C,
# A is +492 % over C (both ratios are stated exactly in the text).
PAPER_FIG4B_KILOJOULES = {"C": 25.0, "B": 32.0, "A": 148.0}


def _spec(workload: WorkloadSpec, servers: int, clients: int,
          scale: Scale) -> ExperimentSpec:
    return ExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=clients,
            server_config=ServerConfig(replication_factor=0)),
        workload=workload.scaled(num_records=scale.num_records,
                                 ops_per_client=scale.ops_per_client),
    )


def run_table2_throughput(scale: Scale = DEFAULT,
                          client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                          workload_names: Sequence[str] = ("A", "B", "C"),
                          servers: int = 10,
                          sweep: Optional[SweepReport] = None,
                          ) -> Tuple[ComparisonTable,
                                     Dict[Tuple[str, int], float]]:
    """Table II: throughput of 10 servers for workloads A, B, C."""
    table = ComparisonTable(
        "Table II", f"aggregated throughput, {servers} servers (Kop/s)")
    measured: Dict[Tuple[str, int], float] = {}
    merged = grid_aggregates(
        table2_sweep_plan(scale, client_counts=client_counts,
                          workload_names=workload_names, servers=servers),
        sweep)
    for name in workload_names:
        for clients in client_counts:
            label = f"workload {name} / {clients} clients"
            kops = merged[label]["throughput"].mean / 1000.0
            measured[(name, clients)] = kops
            table.add(label, PAPER_TABLE2_KOPS.get((name, clients)), kops,
                      "K")
    table.note("replication disabled; 100 K records scaled to "
               f"{scale.num_records}")
    return table, measured


def run_fig3_scalability(scale: Scale = DEFAULT,
                         client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                         sweep: Optional[SweepReport] = None,
                         ) -> ComparisonTable:
    """Fig. 3: throughput scaling factor relative to 10 clients.

    The paper's reading: read-only scales perfectly (factor ≈
    clients/10), read-heavy collapses between 30 and 60 clients,
    update-heavy never scales at all.  Table II's grid, so the same
    ``sweep`` serves both.
    """
    _table2, measured = run_table2_throughput(scale, client_counts,
                                              sweep=sweep)
    baseline = client_counts[0]
    table = ComparisonTable(
        "Fig. 3", f"scalability factor vs {baseline}-client baseline")
    for name in ("C", "B", "A"):
        base_paper = PAPER_TABLE2_KOPS.get((name, baseline))
        base_measured = measured[(name, baseline)]
        for clients in client_counts:
            paper_point = PAPER_TABLE2_KOPS.get((name, clients))
            paper_factor = (paper_point / base_paper
                            if paper_point and base_paper else None)
            measured_factor = measured[(name, clients)] / base_measured
            table.add(f"workload {name} / {clients} clients",
                      paper_factor, measured_factor, "x",
                      note=f"perfect = {clients / baseline:.0f}x")
    return table


def _fig4_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one (workload, servers, clients, seed) point
    of the §V grids (Table II, Fig. 3, Fig. 4)."""
    from repro.cluster import run_experiment
    spec = _spec(WORKLOADS[str(params["workload"])],
                 int(params["servers"]), int(params["clients"]), scale)
    spec = spec.with_(cluster=spec.cluster.with_(seed=seed))
    return outcome_from_experiment(run_experiment(spec))


def fig4_sweep_plan(scale: Scale = DEFAULT,
                    seeds: Optional[Sequence[int]] = None,
                    client_counts: Sequence[int] = (10, 30, 60, 90),
                    servers: int = 20,
                    workload_names: Sequence[str] = ("C", "B", "A"),
                    ) -> SweepPlan:
    """The Fig. 4a/4b grid as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"workload {name} / {clients} clients",
                      workload=name, servers=servers, clients=clients)
        for name in workload_names for clients in client_counts)
    return SweepPlan("fig4", points, tuple(seeds or scale.seeds), scale)


def table2_sweep_plan(scale: Scale = DEFAULT,
                      seeds: Optional[Sequence[int]] = None,
                      client_counts: Sequence[int] = (10, 20, 30, 60, 90),
                      workload_names: Sequence[str] = ("A", "B", "C"),
                      servers: int = 10) -> SweepPlan:
    """The Table II / Fig. 3 grid: Fig. 4's cells at 10 servers."""
    return fig4_sweep_plan(scale, seeds, client_counts=client_counts,
                           servers=servers, workload_names=workload_names)


SWEEP_CELLS = {"fig4": _fig4_cell}
SWEEP_PLANS = {"fig4": fig4_sweep_plan}


def run_fig4_power(scale: Scale = DEFAULT,
                   client_counts: Sequence[int] = (10, 30, 60, 90),
                   servers: int = 20,
                   sweep: Optional[SweepReport] = None,
                   ) -> Tuple[ComparisonTable, ComparisonTable]:
    """Fig. 4a (power per node vs clients) and Fig. 4b (total energy at
    90 clients, same total work per configuration)."""
    power = ComparisonTable(
        "Fig. 4a", f"average power per node, {servers} servers (W)")
    energy = ComparisonTable(
        "Fig. 4b", "total energy at 90 clients (kJ, scaled run)")
    energy_measured: Dict[str, float] = {}
    merged = grid_aggregates(
        fig4_sweep_plan(scale, client_counts=client_counts, servers=servers),
        sweep)
    for name in ("C", "B", "A"):
        for clients in client_counts:
            metrics = merged[f"workload {name} / {clients} clients"]
            power.add(f"workload {name} / {clients} clients",
                      PAPER_FIG4A_WATTS.get((name, clients)),
                      metrics["avg_power_per_server"].mean, "W")
            if clients == max(client_counts):
                energy_measured[name] = metrics["total_energy_joules"].mean
    # Our runs are scaled down, so absolute joules are not comparable —
    # compare the paper's stated ratios instead.
    c_joules = energy_measured.get("C")
    for name in ("C", "B", "A"):
        joules = energy_measured.get(name)
        if joules is None or c_joules is None:
            continue
        energy.add(f"workload {name} energy ratio vs C",
                   PAPER_FIG4B_KILOJOULES[name] / PAPER_FIG4B_KILOJOULES["C"],
                   joules / c_joules, "x")
        energy.add(f"workload {name} total energy (this run)",
                   None, joules / 1000.0, " kJ")
    energy.note("paper ratios: B consumes 28 % more than C, A consumes "
                "4.92x C (§V)")
    return power, energy


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    scale = active_scale()
    table2, _measured = run_table2_throughput(scale)
    print(table2.render())
    print()
    print(run_fig3_scalability(scale).render())
    print()
    fig4a, fig4b = run_fig4_power(scale)
    print(fig4a.render())
    print()
    print(fig4b.render())


if __name__ == "__main__":  # pragma: no cover
    main()
