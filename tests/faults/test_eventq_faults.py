"""Event-queue kernel vs the fault machinery: trace neutrality under
crashes and partitions.

Timeout/retry/failover paths are where cancellation earns its keep —
and where a subtly wrong skip or compaction would shuffle the trace.
The same faulted workload must be digest-identical on the production
kernel and on the no-op-cancel oracle.
"""

from repro.faults import FaultInjector, FaultPlan, LinkFault, ServerCrash
from repro.units import MB

from ..oracles import exact_unless


def _faulted_run(make_cluster, job, *, cancel=True, seed=0):
    with exact_unless(cancel, "cancel"):
        cluster = make_cluster(n_servers=3, seed=seed, rpc_retries=-1)
        plan = FaultPlan([
            ServerCrash("bb1", at=0.4, restart_at=1.2),
            LinkFault(start=1.6, stop=2.2, a="bb0", drop_prob=1.0),
        ])
        FaultInjector(cluster, plan).arm()
        done = []

        def app(client, idx):
            yield from client.register_all()
            path = f"/fs/d/f{idx}"
            yield from client.create(path)
            for k in range(8):
                yield from client.write(path, k * MB, 1 * MB)
            done.append(idx)

        for idx in range(3):
            client = cluster.add_client(job(idx + 1), client_id=f"c{idx}")
            cluster.engine.process(app(client, idx))
        cluster.run(until=6.0)
    return cluster, done


def _digest(cluster, done):
    s = cluster.sampler
    return (sorted(done),
            list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.sync_digest_log(),
            cluster.fault_stats.requests_failed,
            cluster.engine.now,
            cluster.total_served_bytes())


def test_cancel_toggle_neutral_under_faults(make_cluster, job):
    on = _digest(*_faulted_run(make_cluster, job, cancel=True))
    off = _digest(*_faulted_run(make_cluster, job, cancel=False))
    assert on == off


def test_faulted_run_cancels_and_completes(make_cluster, job):
    """Sanity for the test above: the scenario exercises the machinery
    (expiry timers get cancelled) and the workload still finishes."""
    cluster, done = _faulted_run(make_cluster, job)
    assert sorted(done) == [0, 1, 2]
    assert cluster.engine.stats()["cancelled_total"] > 0
