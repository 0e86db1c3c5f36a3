"""A/B acceptance: timer cancellation is trace-neutral.

The same seeded cluster workload is run on the production kernel and on
the no-op-cancel oracle (every timer fires, the pre-cancellation
baseline) and must produce bit-identical sampler traces, clocks, and
served-byte totals.
"""

import pytest

from repro.bb import ClientConfig, Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.units import GB, MB

from ..oracles import exact_unless


def _run_cluster(*, seed=0, until=6.0, n_servers=3, n_jobs=4, writes=12):
    # rpc_timeout/sync_timeout arm expiry timers on every timed call, so
    # the workload actually exercises the cancel path when replies win.
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        client=ClientConfig(rpc_timeout=5.0),
        server=ServerConfig(bandwidth=1 * GB, n_workers=2,
                            sync_timeout=2.0)))
    cluster.fs.makedirs("/fs/d")
    engine = cluster.engine

    def app(client, idx):
        yield from client.register_all()
        path = f"/fs/d/f{idx}"
        yield from client.create(path)
        for _ in range(writes):
            yield from client.write(path, 0, 1 * MB)

    for idx in range(n_jobs):
        client = cluster.add_client(
            JobInfo(job_id=idx + 1, user=f"u{idx % 2}", size=idx + 1))
        engine.process(app(client, idx))
    cluster.run(until=until)
    return cluster


def _trace(cluster):
    s = cluster.sampler
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes())


def _run(*, cancel, seed):
    with exact_unless(cancel, "cancel"):
        return _run_cluster(seed=seed)


class TestCancellationTraceNeutral:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cancel_on_equals_cancel_off(self, seed):
        on = _trace(_run(cancel=True, seed=seed))
        off = _trace(_run(cancel=False, seed=seed))
        assert on == off

    def test_cancellation_actually_exercised(self):
        """The neutrality claim is vacuous unless the workload cancels."""
        cluster = _run(cancel=True, seed=0)
        assert cluster.engine.stats()["cancelled_total"] > 0

