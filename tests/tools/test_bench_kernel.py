"""The kernel bench harness: measurement rows, trajectory file, profile
dump, and the regression check.

One real (tiny) bench run is shared across the tests; the trajectory
bookkeeping is exercised on synthetic data so the suite stays fast.
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import bench_kernel  # noqa: E402


@pytest.fixture(scope="module")
def tiny_row():
    """One real smoke-scale run, small enough for CI."""
    return bench_kernel.run_bench("fig4", "smoke", servers=4, clients=4,
                                  ops=5)


def test_run_bench_row_shape(tiny_row):
    assert tiny_row["bench"] == "fig4"
    assert tiny_row["scale"] == "smoke"
    assert tiny_row["ops"] == 20  # 4 clients x 5 ops, none lost
    assert tiny_row["events"] > 0
    assert tiny_row["wall_s"] > 0
    assert tiny_row["events_per_s"] == pytest.approx(
        tiny_row["events"] / tiny_row["wall_s"], rel=0.01)


def test_update_then_check_passes(tiny_row, tmp_path, capsys):
    path = str(tmp_path / "bench.json")
    baseline = bench_kernel.load_baseline(path)
    baseline.setdefault("entries", []).append(
        {"label": "t0", "rows": [tiny_row]})
    with open(path, "w") as fh:
        json.dump(baseline, fh)

    row = dict(tiny_row)
    base = bench_kernel.latest_row(bench_kernel.load_baseline(path),
                                   "fig4", "smoke")
    assert base["events_per_s"] == tiny_row["events_per_s"]
    # At tolerance 0.5 the same measurement is comfortably above floor.
    assert row["events_per_s"] >= 0.5 * base["events_per_s"]


def test_latest_row_picks_most_recent_entry():
    baseline = {"entries": [
        {"label": "old", "rows": [{"bench": "fig4", "scale": "smoke",
                                   "events_per_s": 100.0}]},
        {"label": "new", "rows": [{"bench": "fig4", "scale": "smoke",
                                   "events_per_s": 200.0}]},
    ]}
    row = bench_kernel.latest_row(baseline, "fig4", "smoke")
    assert row["events_per_s"] == 200.0
    assert bench_kernel.latest_row(baseline, "fig4", "full") is None


def test_profile_json_dump(tmp_path):
    out = str(tmp_path / "profile.json")
    bench_kernel.profile_bench("fig4", "smoke", servers=4, clients=4,
                               ops=5, out_path=out)
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["schema"] == 1
    assert payload["total_tottime"] > 0
    assert payload["rows"], "profile captured no rows"
    kernels = [r for r in payload["rows"]
               if r["path"].endswith("repro/sim/kernel.py")]
    assert kernels, "the kernel should appear in its own benchmark profile"
    for row in payload["rows"]:
        assert set(row) == {"path", "func", "line", "ncalls", "tottime",
                            "cumtime"}


def test_debug_bench_sets_and_restores_env(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", "0")
    bench_kernel.run_bench("fig4_debug", "smoke", servers=2, clients=2,
                           ops=2)
    assert os.environ["REPRO_SIM_DEBUG"] == "0"


def test_committed_trajectory_has_before_and_after():
    baseline = bench_kernel.load_baseline()
    labels = [entry["label"] for entry in baseline["entries"]]
    assert "before-perf-pass" in labels
    assert "after-perf-pass" in labels
    before = next(r for e in baseline["entries"]
                  if e["label"] == "before-perf-pass" for r in e["rows"]
                  if r["bench"] == "fig4" and r["scale"] == "default")
    after = next(r for e in baseline["entries"]
                 if e["label"] == "after-perf-pass" for r in e["rows"]
                 if r["bench"] == "fig4" and r["scale"] == "default")
    # The PR's acceptance bar: >= 1.5x events/sec on the canonical cell,
    # measured on the same machine that wrote both entries.
    assert after["events_per_s"] >= 1.5 * before["events_per_s"]
    # Same simulation, byte-for-byte: pure-overhead removal only.
    assert after["events"] == before["events"]


def test_check_fails_without_a_baseline(tmp_path, capsys):
    path = str(tmp_path / "bench.json")
    args = ["--bench", "fig4", "--scale", "smoke", "--servers", "2",
            "--clients", "2", "--ops", "2", "--check", "--json", path]
    assert bench_kernel.main(args) == 1
    assert "no baseline" in capsys.readouterr().out
    # --update records the row even though this check fails; with that
    # baseline in place the same check passes.
    assert bench_kernel.main(args + ["--update", "t0"]) == 1
    assert bench_kernel.main(args + ["--tolerance", "0"]) == 0


def test_committed_baselines_cover_the_gated_cells():
    # The CI gate runs every default bench at smoke scale; each needs a
    # committed baseline there, or --check fails.
    baseline = bench_kernel.load_baseline()
    for bench in ("fig4", "fig4_debug", "fig_index"):
        for scale in ("smoke", "default"):
            assert bench_kernel.latest_row(baseline, bench, scale), \
                (bench, scale)
