"""Fast sweep-runner unit tests: plans, merging, reports — no
subprocesses (the multi-process properties live in the ``-m sweep``
files next door)."""

import json

import pytest

import repro.experiments.sweep as sweep_module
from repro.cluster.experiment import Aggregate
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import SMOKE
from repro.experiments.sweep import (
    CellOutcome,
    CellResult,
    SweepCell,
    SweepPlan,
    SweepPoint,
    SweepReport,
    cell_registry,
    list_experiments,
    plan_for,
    run_sweep,
)


def test_sweep_point_canonical_param_order():
    a = SweepPoint.of("p", servers=2, clients=3)
    b = SweepPoint.of("p", clients=3, servers=2)
    assert a == b
    assert a.as_dict() == {"servers": 2, "clients": 3}


def test_plan_cells_are_points_times_seeds_in_plan_order():
    points = (SweepPoint.of("a"), SweepPoint.of("b"))
    plan = SweepPlan("_selftest", points, (1, 2), SMOKE)
    keys = [cell.key for cell in plan.cells()]
    assert keys == [("_selftest", "a", 1), ("_selftest", "a", 2),
                    ("_selftest", "b", 1), ("_selftest", "b", 2)]


def test_registry_lists_every_experiment_and_hides_selftest():
    names = list_experiments()
    assert {"fig1", "fig4", "fig5", "fig11", "energy"} <= set(names)
    assert not any(name.startswith("_") for name in names)
    # ...but the cell registry still resolves the hidden test runner.
    assert "_selftest" in cell_registry()
    for name in names:
        assert name in cell_registry()


def test_plan_for_unknown_experiment_raises():
    with pytest.raises(ValueError, match="unknown sweep experiment"):
        plan_for("nope", SMOKE)


def test_plan_factories_default_to_scale_seeds():
    assert plan_for("fig4", SMOKE).seeds == SMOKE.seeds
    assert plan_for("fig4", SMOKE, seeds=(5, 6)).seeds == (5, 6)
    # fig11 pins seed 3, the seed run_fig11_recovery_rf renders from.
    assert plan_for("fig11", SMOKE).seeds == (3,)


# Every metric a runner reads from a merged report, with dummy values.
_RENDER_METRICS = {
    "throughput": 1.0, "avg_power_per_server": 1.0,
    "total_energy_joules": 1.0, "energy_efficiency": 1.0,
    "cpu_util_avg": 1.0, "mean_latency": 1.0, "crashed": 0.0,
    "recovery_time": 1.0, "energy_per_node_joules": 1.0,
    **{f"tenant[{t}].{m}": 1.0 for t in ("gold", "bronze")
       for m in ("ops", "p99_latency", "throttle_drops")},
}


def _rendering_cases():
    """(runner, plan, runner kwargs): each runner renders from a report
    of exactly this plan."""
    from repro.experiments import (durability, indexing, peak, recovery,
                                   replication, workloads)
    return [
        (peak.run_fig1_peak, peak.fig1_sweep_plan(
            SMOKE, server_counts=(1, 2), client_counts=(3,)),
         dict(server_counts=(1, 2), client_counts=(3,))),
        (peak.run_fig2_efficiency, peak.fig1_sweep_plan(
            SMOKE, server_counts=(1, 10), client_counts=(30,)),
         dict(server_counts=(1, 10), client_counts=(30,))),
        (peak.run_table1_cpu, peak.table1_sweep_plan(
            SMOKE, grid=((1, 1), (5, 30))), dict(grid=((1, 1), (5, 30)))),
        (workloads.run_table2_throughput, workloads.table2_sweep_plan(
            SMOKE, client_counts=(2, 4)), dict(client_counts=(2, 4))),
        (workloads.run_fig3_scalability, workloads.table2_sweep_plan(
            SMOKE, client_counts=(2, 4)), dict(client_counts=(2, 4))),
        (workloads.run_fig4_power, workloads.fig4_sweep_plan(
            SMOKE, client_counts=(2, 4), servers=3),
         dict(client_counts=(2, 4), servers=3)),
        (replication.run_fig5_replication, replication.fig5_sweep_plan(
            SMOKE, client_counts=(4,), rfs=(1, 2), servers=3),
         dict(client_counts=(4,), rfs=(1, 2), servers=3)),
        (replication.run_fig6_replication_scale, replication.fig6_sweep_plan(
            SMOKE, server_counts=(4, 6), rfs=(1, 2), clients=5),
         dict(server_counts=(4, 6), rfs=(1, 2), clients=5)),
        (replication.run_fig7_power_rf, replication.fig6_sweep_plan(
            SMOKE, server_counts=(6,), rfs=(1, 2), clients=5),
         dict(servers=6, rfs=(1, 2), clients=5)),
        (replication.run_fig8_efficiency_rf, replication.fig6_sweep_plan(
            SMOKE, server_counts=(4, 6), rfs=(1, 2), clients=5),
         dict(server_counts=(4, 6), rfs=(1, 2), clients=5)),
        (recovery.run_fig11_recovery_rf, recovery.fig11_sweep_plan(
            SMOKE, rfs=(1, 2), servers=4), dict(rfs=(1, 2), servers=4)),
        (durability.run_consistency_frontier, durability.frontier_sweep_plan(
            SMOKE, rfs=(3,), servers=4, clients=2),
         dict(rf=3, servers=4, clients=2)),
        (indexing.run_fig_index, indexing.fig_index_sweep_plan(
            SMOKE, indexlet_counts=(1, 3), servers=3, clients=2),
         dict(indexlet_counts=(1, 3), servers=3, clients=2)),
        (indexing.run_tenant_mix, indexing.tenant_mix_sweep_plan(
            SMOKE, servers=3, clients=2, bronze_rate=500.0),
         dict(servers=3, clients=2, bronze_rate=500.0)),
    ]


def test_plan_labels_match_grid_runner_labels(monkeypatch):
    plan = plan_for("fig1", SMOKE, server_counts=(1, 5), client_counts=(10,))
    assert [p.label for p in plan.points] == [
        "1 servers / 10 clients", "5 servers / 10 clients"]
    plan = plan_for("fig4", SMOKE, client_counts=(30,),
                    workload_names=("A",))
    assert [p.label for p in plan.points] == ["workload A / 30 clients"]
    plan = plan_for("fig5", SMOKE, client_counts=(10,), rfs=(1, 2))
    assert [p.label for p in plan.points] == [
        "10 clients / RF 1", "10 clients / RF 2"]
    plan = plan_for("fig11", SMOKE, rfs=(1, 2))
    assert [p.label for p in plan.points] == ["RF 1", "RF 2"]
    # Runners index the merged report by point label.  Stub the sweep so
    # each runner renders from a synthetic report of the plan it builds
    # itself (no simulation): a label that drifts between plan and
    # runner fails here (KeyError), and the plan must be the expected
    # factory's, so a shared report (fig6's for fig7/8) serves it too.
    built = []

    def synthetic_sweep(plan, parallel=True):
        built.append(plan)
        return SweepReport(plan, [
            CellResult(cell, CellOutcome(metrics=dict(_RENDER_METRICS),
                                         digest="d"))
            for cell in plan.cells()], parallel=parallel, workers=0)

    monkeypatch.setattr(sweep_module, "run_sweep", synthetic_sweep)
    for runner, plan, kwargs in _rendering_cases():
        tables = runner(SMOKE, **kwargs)
        assert built.pop() == plan, runner.__name__
        if not isinstance(tables, tuple):
            tables = (tables,)
        assert all(table.rows for table in tables
                   if isinstance(table, ComparisonTable)), runner.__name__


def test_run_sweep_validates_inputs():
    plan = SweepPlan("_selftest", (SweepPoint.of("a"),), (1,), SMOKE)
    with pytest.raises(ValueError, match="permutation"):
        run_sweep(plan, schedule=[1])
    with pytest.raises(ValueError, match="retries"):
        run_sweep(plan, retries=-1)
    with pytest.raises(ValueError, match="no cells"):
        run_sweep(SweepPlan("_selftest", (), (1,), SMOKE))


def _report(rows):
    """Build a SweepReport from (label, seed, metrics-or-None) rows."""
    labels = []
    for label, _seed, _metrics in rows:
        if label not in labels:
            labels.append(label)
    points = tuple(SweepPoint.of(label) for label in labels)
    seeds = tuple(sorted({seed for _l, seed, _m in rows}))
    plan = SweepPlan("_selftest", points, seeds, SMOKE)
    results = []
    for label, seed, metrics in rows:
        cell = SweepCell("_selftest", SweepPoint.of(label), seed)
        if metrics is None:
            results.append(CellResult(cell, None, attempts=2, error="boom"))
        else:
            results.append(CellResult(cell, CellOutcome(
                metrics=metrics, digest=f"d-{label}-{seed}")))
    return SweepReport(plan, results, parallel=True, workers=2)


def test_aggregates_match_aggregate_of_in_seed_order():
    report = _report([("a", 1, {"throughput": 10.0}),
                      ("a", 2, {"throughput": 30.0})])
    agg = report.aggregates()["a"]["throughput"]
    assert agg == Aggregate.of([10.0, 30.0])
    assert agg.values == (10.0, 30.0)


def test_aggregates_intersect_metric_keys_and_skip_failures():
    report = _report([
        ("a", 1, {"throughput": 1.0, "recovery_time": 5.0}),
        ("a", 2, {"throughput": 2.0}),          # no recovery_time
        ("b", 1, None), ("b", 2, None),          # every seed failed
    ])
    merged = report.aggregates()
    assert set(merged["a"]) == {"throughput"}
    assert "b" not in merged
    assert [r.cell.point.label for r in report.failed()] == ["b", "b"]


def test_checked_aggregates_refuses_a_partial_sweep():
    # The figure runners render through checked_aggregates(): a table
    # silently missing a failed point would be worse than an error.
    clean = _report([("a", 1, {"m": 1.0})])
    assert clean.checked_aggregates() == clean.aggregates()
    partial = _report([("a", 1, {"m": 1.0}), ("b", 1, None)])
    with pytest.raises(RuntimeError, match="failed cell") as excinfo:
        partial.checked_aggregates()
    # In-process runs report errors only through this message, so it
    # names each failed cell and says why it failed.
    assert "('_selftest', 'b', 1): boom" in str(excinfo.value)


def test_merged_digest_is_order_independent_and_failure_sensitive():
    rows = [("a", 1, {"m": 1.0}), ("a", 2, {"m": 2.0}),
            ("b", 1, {"m": 3.0}), ("b", 2, {"m": 4.0})]
    forward = _report(rows)
    backward = _report(list(reversed(rows)))
    assert forward.merged_digest() == backward.merged_digest()
    failed = _report(rows[:3] + [("b", 2, None)])
    assert failed.merged_digest() != forward.merged_digest()


def test_report_to_json_is_serializable_and_complete():
    report = _report([("a", 1, {"m": 1.0}), ("a", 2, {"m": 2.0}),
                      ("b", 1, None), ("b", 2, None)])
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["experiment"] == "_selftest"
    assert payload["seeds"] == [1, 2]
    assert len(payload["cells"]) == 4
    ok = [c for c in payload["cells"] if c["digest"] is not None]
    bad = [c for c in payload["cells"] if c["digest"] is None]
    assert len(ok) == 2 and len(bad) == 2
    assert bad[0]["error"] == "boom"
    assert payload["aggregates"]["a"]["m"]["values"] == [1.0, 2.0]
    assert payload["merged_digest"] == report.merged_digest()
