"""Golden tables: the rendered output of every seeded-grid runner.

The smoke tests next door only check that each runner produces a
well-formed table, and two runs of the same code always agree, so a
change to how a runner computes its grid could silently move a number.
These pin the text itself: the sha256 of the ``render_markdown()``
output of each runner at a tiny scale on a reduced grid, two seeds per
point where the runner averages over seeds.  A change that keeps them
renders the same tables; one that moves them must say why and update
the constants.
"""

import hashlib

import pytest

from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import SMOKE

TINY = SMOKE.with_(num_records=2_000, ops_per_client=100, seeds=(1, 2),
                   recovery_bytes_per_server=24 * 1024 * 1024)


def _fig1():
    from repro.experiments.peak import run_fig1_peak
    return run_fig1_peak(TINY, server_counts=(1, 2), client_counts=(1, 4))


def _table1():
    from repro.experiments.peak import run_table1_cpu
    return run_table1_cpu(TINY, grid=((1, 0), (1, 1), (2, 4)))


def _fig2():
    from repro.experiments.peak import run_fig2_efficiency
    return run_fig2_efficiency(TINY, server_counts=(1, 2),
                               client_counts=(1, 4))


def _table2():
    from repro.experiments.workloads import run_table2_throughput
    table, _measured = run_table2_throughput(
        TINY, client_counts=(2, 4), workload_names=("A", "C"), servers=2)
    return table


def _fig3():
    from repro.experiments.workloads import run_fig3_scalability
    return run_fig3_scalability(TINY, client_counts=(2, 4))


def _fig4():
    from repro.experiments.workloads import run_fig4_power
    return run_fig4_power(TINY, client_counts=(2, 4), servers=2)


def _fig5():
    from repro.experiments.replication import run_fig5_replication
    return run_fig5_replication(TINY, client_counts=(4,), rfs=(1, 2),
                                servers=4)


def _fig6():
    from repro.experiments.replication import run_fig6_replication_scale
    return run_fig6_replication_scale(TINY, server_counts=(4, 6),
                                      rfs=(1, 2), clients=4)


def _fig7():
    from repro.experiments.replication import run_fig7_power_rf
    return run_fig7_power_rf(TINY, rfs=(1, 2), servers=4, clients=4)


def _fig8():
    from repro.experiments.replication import run_fig8_efficiency_rf
    return run_fig8_efficiency_rf(TINY, server_counts=(4, 6), rfs=(1, 2),
                                  clients=4)


def _fig11():
    from repro.experiments.recovery import run_fig11_recovery_rf
    return run_fig11_recovery_rf(TINY, rfs=(1, 2), servers=4)


def _fig13():
    from repro.experiments.throttling import run_fig13_throttling
    return run_fig13_throttling(TINY, rates=(500.0,), client_counts=(2,),
                                servers=2, rf=1)


def _worker_threads():
    from repro.experiments.ablations import run_worker_threads_ablation
    return run_worker_threads_ablation(TINY, worker_counts=(1, 3),
                                       servers=2, clients=4)


def _async_ablation():
    from repro.experiments.ablations import run_async_replication_ablation
    return run_async_replication_ablation(TINY, rf=2, servers=3, clients=4)


def _distributions():
    from repro.experiments.extensions import (
        run_request_distribution_extension)
    return run_request_distribution_extension(
        TINY, distributions=("uniform", "zipfian"), servers=2, clients=4)


def _transports():
    from repro.experiments.extensions import run_transport_extension
    return run_transport_extension(TINY, servers=2, clients=2)


def _scans():
    from repro.experiments.extensions import run_scan_extension
    return run_scan_extension(TINY, scan_lengths=(10, 50), servers=2,
                              clients=2)


def _frontier():
    from repro.experiments.durability import run_consistency_frontier
    return run_consistency_frontier(TINY, rf=2, servers=3, clients=2)


def _fig_index():
    from repro.experiments.indexing import run_fig_index
    return run_fig_index(TINY, indexlet_counts=(1, 2), servers=2, clients=2)


def _tenant_mix():
    from repro.experiments.indexing import run_tenant_mix
    return run_tenant_mix(TINY, servers=2, clients=2)


RUNNERS = {
    "fig1": _fig1, "table1": _table1, "fig2": _fig2, "table2": _table2,
    "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6,
    "fig7": _fig7, "fig8": _fig8, "fig11": _fig11, "fig13": _fig13,
    "ablation-workers": _worker_threads, "ablation-async": _async_ablation,
    "ext-distributions": _distributions, "ext-transports": _transports,
    "ext-scans": _scans, "frontier": _frontier, "fig_index": _fig_index,
    "tenant_mix": _tenant_mix,
}

GOLDEN = {
    "ablation-async": (
        "0f4c360395cd7fff63b21601e8b062a98dff342514f1c2c0dca6eefe8146c405"),
    "ablation-workers": (
        "26c1c48888c93e97c25b7599f8142eb387b0711b21eff7cda194435df0052de3"),
    "ext-distributions": (
        "4efc1e7937227f0c674176fa22221d4b29c6e5a6b69587ceb15c3ee1c1785ac7"),
    "ext-scans": (
        "3f657b6036d6ece52ee9e09ccbea88319de3b225dc9d8909f9c355fc5360e43a"),
    "ext-transports": (
        "d472906237f38489e6a0215975e49dc80205091b47c3590094b3e2ab07137ace"),
    "fig1": (
        "255b27044f8aba06b5b33f684ea4dfbad3764bcfd9dc3beac21ddf9c77e244cb"),
    "fig11": (
        "88a10f0ea4c95202918cff2944b174819343d6ad064fc33f7a0cb8c38d2e8297"),
    "fig13": (
        "5521ee50b7fb2aa6c8b9527670b671e498a00c65210ef1201bbda926446fc3be"),
    "fig2": (
        "8fe21758d2ea2291310ce13e1b954061f03471c3541d60fe5fe3f7a678929cc4"),
    "fig3": (
        "759a6e3bbcf319c9c4441341643cf22aa7f0bed68f1beb6b181c3593118a14e2"),
    "fig4": (
        "ef3eb0041b93cba261801586f0864d178d15c9928a57609bf872ab5fc7a63e34"),
    "fig5": (
        "4453456d40bee0b585d6f833f02551d1e0b869a98235671dd7461353a8759856"),
    "fig6": (
        "f2aeeb17d17e087f7522ec4487af9e32447476d55890aa2995a763d9e8417cf3"),
    "fig7": (
        "e657b10bc164362a0c8e4c231a0b4be6598e4a8a6d5bfa13f9af0a03215b39fe"),
    "fig8": (
        "32ad27dc3a928ad19b62c1b66b3db3fce1224041013f01b3fc50e2883073bd09"),
    "fig_index": (
        "98f37ede45b0bb843f9b1505d0c0b8a53b8c99439d0ea2a1e1ba2cf56fc5ece4"),
    "frontier": (
        "33b9708d987ed833d2fdeccab4dda244a49a163255474ecb4e0d0b1a0557942b"),
    "table1": (
        "b67b9cd5a51d1784af3f20fbc92c619d327d3fc55f147b3cf2acb9f9050f4e79"),
    "table2": (
        "9d0c4a8a05f90e7f01a6e96c68fa01326c0d83e86fee1d7ed498af8c76d0bfb7"),
    "tenant_mix": (
        "ee2bd1316fe8fbbe99b6ea2a0dc5794c5bee1da8b394a3e2d3b1f32787a0f7d5"),
}


def rendered_digest(tables) -> str:
    """sha256 of the markdown of one runner's table(s), in order."""
    if isinstance(tables, ComparisonTable):
        tables = (tables,)
    text = "\n\n".join(table.render_markdown() for table in tables)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_rendered_table_matches_golden(name):
    assert rendered_digest(RUNNERS[name]()) == GOLDEN[name]
