"""The benchmark's workloads: which simulated cluster each one builds.

Every workload uses the paper machine (``GRID5000_NANCY_NODE``), uniform
keys and the default ``ServerConfig`` (RF 3).  One benchmark run pools
``subruns`` simulations, each with its own seed derived from the run's
``--seed``; see README.md for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

from repro.cluster import ClusterSpec, CrashExperimentSpec, ExperimentSpec
from repro.ycsb.workload import (WORKLOAD_A, WORKLOAD_C,
                                 WORKLOAD_LOOKUP_HEAVY, WorkloadSpec)

__all__ = ["Workload", "WORKLOADS", "sub_seed"]

Spec = Union[ExperimentSpec, CrashExperimentSpec]

YCSB_SERVERS = 20
YCSB_CLIENTS = 30
YCSB_RECORDS = 20_000

CRASH_SERVERS = 9
CRASH_RECORD_SIZE = 8 * 1024
CRASH_BYTES_PER_SERVER = 256 * 1024 * 1024
CRASH_KILL_AT = 10.0
# Two read-only probe clients (Fig. 10's methodology), throttled so the
# idle Fig. 11 cluster stays idle: they only sample what a client sees.
CRASH_PROBES = 2
CRASH_PROBE_RATE = 250.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    # Simulations pooled per run, each on its own derived seed.
    subruns: int
    # seed → the spec of one simulation.
    build: Callable[[int], Spec]


def sub_seed(seed: int, index: int) -> int:
    """The seed of simulation ``index`` of a run started with ``seed``."""
    return 1000 * seed + index


def _ycsb(base: WorkloadSpec, ops_per_client: int) -> Callable[[int], Spec]:
    workload = base.scaled(num_records=YCSB_RECORDS,
                           ops_per_client=ops_per_client)

    def build(seed: int) -> Spec:
        return ExperimentSpec(
            cluster=ClusterSpec(num_servers=YCSB_SERVERS,
                                num_clients=YCSB_CLIENTS, seed=seed),
            workload=workload)
    return build


def _crash(seed: int) -> Spec:
    num_records = CRASH_BYTES_PER_SERVER * CRASH_SERVERS // CRASH_RECORD_SIZE
    probes = WORKLOAD_C.scaled(num_records=num_records,
                               ops_per_client=10_000_000,
                               record_size=CRASH_RECORD_SIZE,
                               ).throttled(CRASH_PROBE_RATE)
    return CrashExperimentSpec(
        cluster=ClusterSpec(num_servers=CRASH_SERVERS,
                            num_clients=CRASH_PROBES, seed=seed),
        num_records=num_records,
        record_size=CRASH_RECORD_SIZE,
        kill_at=CRASH_KILL_AT,
        # The Fig. 11 cap for RF 3; the run stops 10 s after recovery.
        run_until=CRASH_KILL_AT + 60.0 + 90.0 * 3,
        foreground=probes)


# Why each workload exists: README.md, "Workloads".
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ycsb-a-rf3", subruns=24, build=_ycsb(WORKLOAD_A, 100)),
    Workload("ycsb-c-rf3", subruns=4, build=_ycsb(WORKLOAD_C, 500)),
    Workload("index-lookup-rf3", subruns=6,
             build=_ycsb(WORKLOAD_LOOKUP_HEAVY, 200)),
    Workload("crash-recovery-rf3", subruns=3, build=_crash),
)}
