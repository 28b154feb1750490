#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every experiment and record
paper-vs-measured tables.

Usage:  REPRO_SCALE=default python tools/generate_experiments_md.py

Every seeded grid is swept once (repro.experiments.sweep) and each
table that reads it renders from that one report: Fig. 1 and Fig. 2
share a grid, as do Table II and Fig. 3, and Fig. 6, 7 and 8.  Grids
run in-process by default; set REPRO_SWEEP_WORKERS=N to fan their
cells over N worker processes instead — the rendered tables are
bit-identical (that equivalence is what `pytest -m sweep` enforces),
only the wall clock changes.
"""

import io
import os
import time
from datetime import date

from repro.experiments.scale import active_scale


HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `tools/generate_experiments_md.py` at scale `{scale}`
on {today}.  Every table below compares the paper's reported value
(exact where the text gives a number, digitized from the figure
otherwise) with this reproduction's measurement.  Absolute joule totals
depend on run length and op-count scaling (DESIGN.md §5); ratios and
shapes are the comparison targets.

Scaling of this run: {records:,} records / {ops:,} ops per client for
YCSB experiments ({seeds} seed(s) per point); crash-recovery
experiments use ≈{recovery_mb} MB per server in {record_kb} KB records.

## Sweep scale

The grids here can also be produced by the parallel multi-seed sweep
runner (`python tools/sweep.py`, docs/BENCH.md "Sweep scale"): one
worker process per (experiment, config-point, seed) cell, merged into
the same aggregates with byte-identical determinism digests.  `--scale
full` is the paper-shaped lane — 100,000 records and 5,000 ops per
client over 5 seeds per point (the paper: 100 K records, 100 K ops per
client, 5 runs per point on a 131-node testbed) — sized for the
nightly `sweep-full` CI lane rather than per-PR runs; `smoke` backs the
per-PR `sweep-smoke` equivalence check.  Every seeded grid below is
swept once and rendered from that report (Fig. 1/2, Table II/Fig. 3
and Fig. 6/7/8 each share one); regenerating this file with
`REPRO_SWEEP_WORKERS=N` runs the grids on N worker processes instead of
in-process and renders bit-identical tables.

"""


def _sweep(plan):
    """Run one grid: in-process, or on REPRO_SWEEP_WORKERS=N workers."""
    from repro.experiments.sweep import run_sweep
    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))  # simlint: disable=DET002 CI entry point reading its own opt-in knob
    return run_sweep(plan, parallel=workers > 0, workers=workers or None)


def main():
    from repro.experiments import (ablations, durability,
                                   energy_proportionality, extensions,
                                   indexing, peak, recovery, replication,
                                   throttling, workloads)
    from repro.experiments.reporting import ComparisonTable
    scale = active_scale()
    sections = []

    def add(title, tables):
        print(f"[{time.strftime('%H:%M:%S')}] {title} done", flush=True)
        if not isinstance(tables, tuple):
            tables = (tables,)
        sections.extend(table.render_markdown() for table in tables
                        if isinstance(table, ComparisonTable))

    fig1 = _sweep(peak.fig1_sweep_plan(scale))
    add("fig1", peak.run_fig1_peak(scale, sweep=fig1))
    add("table1", peak.run_table1_cpu(
        scale, sweep=_sweep(peak.table1_sweep_plan(scale))))
    add("fig2", peak.run_fig2_efficiency(scale, sweep=fig1))

    table2 = _sweep(workloads.table2_sweep_plan(scale))
    add("table2", workloads.run_table2_throughput(scale, sweep=table2))
    add("fig3", workloads.run_fig3_scalability(scale, sweep=table2))
    add("fig4", workloads.run_fig4_power(
        scale, sweep=_sweep(workloads.fig4_sweep_plan(scale))))

    add("fig5", replication.run_fig5_replication(
        scale, sweep=_sweep(replication.fig5_sweep_plan(scale))))
    fig6 = _sweep(replication.fig6_sweep_plan(scale))
    add("fig6", replication.run_fig6_replication_scale(scale, sweep=fig6))
    add("fig7", replication.run_fig7_power_rf(scale, sweep=fig6))
    add("fig8", replication.run_fig8_efficiency_rf(scale, sweep=fig6))

    add("fig9", recovery.run_fig9_crash_timeline(scale))
    add("fig10", recovery.run_fig10_latency_crash(scale))
    add("fig11", recovery.run_fig11_recovery_rf(
        scale, sweep=_sweep(recovery.fig11_sweep_plan(scale))))
    add("fig12", recovery.run_fig12_disk_activity(scale))

    add("fig13", throttling.run_fig13_throttling(scale))

    add("ablation-workers", ablations.run_worker_threads_ablation(scale))
    add("ablation-async", ablations.run_async_replication_ablation(scale))
    add("ablation-segsize", ablations.run_segment_size_ablation(scale))

    add("ext-distributions",
        extensions.run_request_distribution_extension(scale))
    add("ext-transports", extensions.run_transport_extension(scale))
    add("ext-scans", extensions.run_scan_extension(scale))
    add("ext-elastic", extensions.run_elastic_sizing_extension(scale))

    add("ext-energy", energy_proportionality.run_energy_proportionality(scale))
    add("ext-powercap", energy_proportionality.run_power_cap(scale))

    add("ext-frontier", durability.run_consistency_frontier(
        scale, sweep=_sweep(durability.frontier_sweep_plan(scale))))
    add("ext-durability-gap", durability.run_durability_gap_table(scale))

    add("ext-index", indexing.run_fig_index(
        scale, sweep=_sweep(indexing.fig_index_sweep_plan(scale))))
    add("ext-tenants", indexing.run_tenant_mix(
        scale, sweep=_sweep(indexing.tenant_mix_sweep_plan(scale))))

    out = io.StringIO()
    out.write(HEADER.format(
        scale=scale.name, today=date.today().isoformat(),
        records=scale.num_records, ops=scale.ops_per_client,
        seeds=len(scale.seeds),
        recovery_mb=scale.recovery_bytes_per_server // (1024 * 1024),
        record_kb=scale.recovery_record_size // 1024,
    ))
    out.write(FINDINGS)
    out.write("\n\n".join(sections))
    out.write("\n")
    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(out.getvalue())
    print("wrote EXPERIMENTS.md")


FINDINGS = """\
## Findings scorecard

| Paper finding | Status in this reproduction |
|---|---|
| **1** — read-only scales linearly but power is non-proportional (servers hit max CPU before peak throughput; 25 % CPU when idle) | Reproduces: single server saturates ≈375 Kop/s (paper 372 K), idle CPU 25 %, 1-client power 92 W, efficiency falls ≈7x from 1→10 servers at 30 clients |
| **2** — update-heavy loses up to 97 % vs read-only at high concurrency; read-heavy up to 57 %; more updates → more power and up to 4.92x energy | Reproduces: A plateaus at ≈64 Kop/s (97 % below C at 90 clients — the paper's exact gap); B collapses between 30 and 60 clients (our loss ≈70 % vs paper 58 %); A burns several times C's energy |
| **3** — RF 1→4 costs up to 68 % throughput and ≈3.5x energy | Reproduces: 10-client row of Fig. 5 matches point-for-point (78/65/52/43 K paper vs ≈78/67/60/53 K ours); energy multiplies with RF |
| **4** — with update-heavy + replication, more servers are MORE energy-efficient | Partially: scaling out is nearly free in efficiency (unlike read-only's 7.6x penalty) and wins throughput, but the strict op/J ordering is flat-to-slightly-decreasing in our model. Note the paper's own Fig. 6b implies ≈74 op/J for runs Fig. 8 reports as 1500 op/J, so the absolute Fig. 8 scale conflicts with its sibling figures |
| **5** — crash recovery: ≈90 % CPU, ≈8 % more power, lost data blocked for the whole recovery, live data 1.4–2.4x slower | Reproduces: cluster CPU ≈89 % during recovery, power rises on survivors, the pinned client blocks exactly until recovery completes, live-data client slows ≈1.3–2x |
| **6** — recovery time GROWS with RF (10 s → 55 s for RF 1→5 over ≈1.085 GB) | Reproduces: ≈13 s → ≈56 s, linear in RF, same mechanism (replay re-inserts through the replicated write path) |

## Known deviations

* Workload A at 10–20 clients runs ≈30 % below the paper (ours ≈67 K vs
  98–106 Kop/s): our collision-burst tail is heavier than the real
  system's at low concurrency. The plateau (the finding) matches.
* Fig. 6a's missing 10-server RF 3–4 points (the paper's runs "were
  always crashing") now reproduce via dispatch-side admission control:
  with `ServerConfig.overload_queue_limit` set, overload drops client
  requests silently, the caller eats its full 1 s RPC timeout, and
  YCSB's give-up cliff trips (`tests/cluster/test_overload_giveup.py`).
  The default configuration leaves the limit off, so the headline
  figure-6a table still reports smooth degradation.
* Fig. 8's strict efficiency ordering (see scorecard row 4).
* Fig. 10's absolute baseline latency: the paper reads 1 KB records
  (≈15 µs); our recovery-scale dataset uses 8 KB records, so the
  baseline is a few µs higher. The blocked/slowdown behaviour is the
  reproduction target and matches.

## Per-experiment tables

"""


if __name__ == "__main__":
    main()
