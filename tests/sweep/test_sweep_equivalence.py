"""Satellite 1 + the acceptance property: for every experiment module,
a serial and a parallel sweep of the same ``SweepPlan`` yield identical
determinism digests and bit-identical merged statistics.

Parallel workers are spawn-context processes (fresh interpreters), so
any hidden dependency on parent-process state — module-level RNG, env
mutation mid-suite, import order — would fork the digests here.
"""

import pytest

from repro.experiments.scale import SMOKE
from repro.experiments.sweep import plan_for, run_sweep

pytestmark = pytest.mark.sweep

TINY = SMOKE.with_(num_records=500, ops_per_client=60, seeds=(1, 2),
                   recovery_bytes_per_server=24 * 1024 * 1024,
                   crash_timeline_bytes_per_server=24 * 1024 * 1024)

# One reduced grid per experiment module: peak, workloads, replication,
# recovery, energy — 2 seeds each.
PLANS = {
    "fig1": lambda: plan_for("fig1", TINY, server_counts=(2,),
                             client_counts=(2,)),
    "fig4": lambda: plan_for("fig4", TINY, client_counts=(2,), servers=2,
                             workload_names=("A",)),
    "fig5": lambda: plan_for("fig5", TINY, client_counts=(2,), rfs=(1,),
                             servers=2),
    "fig11": lambda: plan_for("fig11", TINY, rfs=(1,), servers=4,
                              seeds=(1, 2)),
    "energy": lambda: plan_for("energy", TINY, seeds=(1, 2),
                               governors=("static", "poll-adaptive"),
                               servers=2, clients=2, fractions=(0.5,)),
    "frontier": lambda: plan_for("frontier", TINY, rfs=(1,), servers=3,
                                 clients=2),
    "fig_index": lambda: plan_for("fig_index", TINY, indexlet_counts=(2,),
                                  servers=2, clients=2),
    "tenant_mix": lambda: plan_for("tenant_mix", TINY, servers=2,
                                   clients=2),
}


def _snapshot(report):
    """Everything that must be bit-identical across execution modes."""
    return (
        report.digests(),
        report.merged_digest(),
        {label: {metric: (agg.mean, agg.stddev, agg.values)
                 for metric, agg in metrics.items()}
         for label, metrics in report.aggregates().items()},
    )


@pytest.mark.parametrize("experiment", sorted(PLANS))
def test_serial_and_parallel_sweeps_are_bit_identical(experiment):
    plan = PLANS[experiment]()
    serial = run_sweep(plan, parallel=False)
    parallel = run_sweep(plan, workers=2)
    assert not serial.failed() and not parallel.failed()
    assert _snapshot(serial) == _snapshot(parallel)


def test_fig4_acceptance_four_seeds_parallel_equals_serial():
    # The ISSUE acceptance criterion: a parallel fig4 sweep across >=4
    # seeds produces digests identical to the serial run, and the
    # in-process serial-equivalence check passes on top.
    plan = plan_for("fig4", TINY, seeds=(1, 2, 3, 4), client_counts=(2,),
                    servers=2, workload_names=("A",))
    serial = run_sweep(plan, parallel=False)
    parallel = run_sweep(plan, workers=2, serial_check=2)  # must not raise
    assert len(parallel.results) == 4
    assert not parallel.failed()
    assert _snapshot(serial) == _snapshot(parallel)
    assert len(parallel.serial_checked) == 2
    # Different seeds genuinely diverge — the equality above is not
    # comparing constants.
    digests = set(parallel.digests().values())
    assert len(digests) == 4


def test_serial_check_catches_environment_dependent_results():
    # A cell whose digest depends on the execution environment (here:
    # the worker's PID) is exactly the fork serial_check exists to
    # catch — the in-process rerun sees a different digest and raises.
    from repro.experiments.sweep import (
        SerialEquivalenceError,
        SweepPlan,
        SweepPoint,
    )
    plan = SweepPlan("_selftest", (
        SweepPoint.of("salted", servers=2, clients=1, pid_salt=True),),
        (1,), TINY)
    with pytest.raises(SerialEquivalenceError, match="diverged"):
        run_sweep(plan, workers=1, serial_check=1)
