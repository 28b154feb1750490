"""Cluster deployment and experiment orchestration.

Builds simulated testbeds shaped like the paper's (§III-B): one
coordinator node, N server nodes running collocated master+backup
services (the PDU-metered nodes), and M client nodes; then runs
workloads and collects the paper's metrics.
"""

from repro.cluster.deployment import Cluster, ClusterSpec
from repro.cluster.experiment import (
    Aggregate,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.cluster.crash import (
    CrashExperimentResult,
    CrashExperimentSpec,
    run_crash_experiment,
)
from repro.cluster.durability import (
    DurabilityGapResult,
    DurabilityGapSpec,
    durability_gap_digest,
    run_durability_gap,
)
from repro.cluster.powercap import AdmissionThrottle, PowerCapController

__all__ = [
    "AdmissionThrottle",
    "Aggregate",
    "Cluster",
    "ClusterSpec",
    "PowerCapController",
    "CrashExperimentResult",
    "CrashExperimentSpec",
    "DurabilityGapResult",
    "DurabilityGapSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "durability_gap_digest",
    "run_crash_experiment",
    "run_durability_gap",
    "run_experiment",
]
