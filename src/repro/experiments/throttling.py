"""§IX — request throttling (Fig. 13).

"while limiting the throughput at client level we could run the
scenario with 10 servers presented in Section VI while avoiding crashes
and having linear throughput increase."
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import ClusterSpec, ExperimentSpec, run_experiment
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_A

__all__ = ["run_fig13_throttling"]

# Fig. 13: perfectly linear — clients × rate (op/s).
PAPER_FIG13_OPS = {
    (200, 10): 2_000, (200, 30): 6_000, (200, 60): 12_000,
    (500, 10): 5_000, (500, 30): 15_000, (500, 60): 30_000,
}


def run_fig13_throttling(scale: Scale = DEFAULT,
                         rates: Sequence[float] = (200.0, 500.0),
                         client_counts: Sequence[int] = (10, 30, 60),
                         servers: int = 10, rf: int = 2) -> ComparisonTable:
    """Fig. 13: throttled update-heavy clients on 10 servers at RF 2."""
    table = ComparisonTable(
        "Fig. 13", f"throttled workload A throughput "
        f"({servers} servers, RF {rf})")
    for rate in rates:
        for clients in client_counts:
            # Each client must run long enough to establish the rate:
            # ops_per_client / rate seconds of pacing.
            ops = max(50, min(scale.ops_per_client, 300))
            spec = ExperimentSpec(
                cluster=ClusterSpec(
                    num_servers=servers, num_clients=clients,
                    server_config=ServerConfig(replication_factor=rf),
                    seed=scale.seeds[0]),
                workload=WORKLOAD_A.scaled(
                    num_records=scale.num_records, ops_per_client=ops,
                ).throttled(rate),
            )
            table.add(f"rate {rate:.0f}/s / {clients} clients",
                      PAPER_FIG13_OPS.get((rate, clients)),
                      run_experiment(spec).throughput, " op/s")
    table.note("linear in clients at both rates = the cluster is never "
               "saturated, so no timeouts/crashes (§IX)")
    return table


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    print(run_fig13_throttling(active_scale()).render())


if __name__ == "__main__":  # pragma: no cover
    main()
