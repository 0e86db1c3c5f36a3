"""The one-level λ-sync round (the default ``sync_tree_fanout=0``):
equivalence with an offline all-gather merge, determinism, hash-skip
trace-neutrality, and its exact message count (2·(N−1) request/response
pairs per epoch)."""

import numpy as np

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.core.fairness import all_gather_merge
from repro.core.jobinfo import JobStatusTable
from repro.units import GB, MB

from ..oracles import exact, exact_unless


def _run_cluster(*, seed=0, until=6.0, n_servers=3, n_jobs=4,
                 writes=12):
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        server=ServerConfig(bandwidth=1 * GB, n_workers=2)))
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


class TestProtocolEquivalence:
    def test_batched_matches_reference_all_gather(self):
        """The converged table equals an offline all-gather merge
        of the same per-server snapshots."""
        cluster = _run_cluster()
        tables = []
        for server in cluster.servers.values():
            table = JobStatusTable(
                server.monitor.table.heartbeat_timeout)
            table.merge(server.monitor.table.snapshot())
            tables.append(table)
        all_gather_merge(tables)
        reference = sorted(j.job_id for j in tables[0].active_jobs())
        for server in cluster.servers.values():
            got = sorted(j.job_id for j in
                         server.monitor.table.active_jobs())
            assert got == reference

    def test_same_seed_same_trace(self):
        a = _trace(_run_cluster(seed=3))
        b = _trace(_run_cluster(seed=3))
        assert a == b

    def test_batched_round_counters(self):
        cluster = _run_cluster()
        coordinated = sum(s.controller.coordinated_rounds
                          for s in cluster.servers.values())
        assert coordinated > 0
        # Rotation: with enough epochs every server has coordinated.
        assert all(s.controller.coordinated_rounds > 0
                   for s in cluster.servers.values())


class TestHashSkip:
    def test_hash_skip_is_trace_neutral(self):
        skipping = _trace(_run_cluster(seed=1))
        with exact("sync_hash_skip"):
            merging = _trace(_run_cluster(seed=1))
        assert skipping == merging

    def test_skips_happen_on_quiescent_tables(self):
        # No clients: the merged table never changes, so after the first
        # scatter every push carries a repeated digest.
        cluster = _sync_only_cluster(until=8.0)
        skips = sum(s.controller.push_hash_skips
                    for s in cluster.servers.values())
        assert skips > 0


def _sync_only_cluster(n_servers=4, until=5.0):
    # No clients: every fabric message is λ-sync traffic.
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1)))
    cluster.run(until=until)
    return cluster


class TestMessageEconomy:
    def test_batched_sends_fewer_sync_messages(self):
        """Exactly 4·(N−1) wire messages per completed epoch — pull,
        reply, push and ack per peer — where an all-pairs exchange
        would send 2·N·(N−1)."""
        n = 4
        cluster = _sync_only_cluster(n_servers=n)
        rounds = sum(s.controller.coordinated_rounds
                     for s in cluster.servers.values())
        assert rounds == 10  # epochs at 0.5 s .. 5.0 s
        # The tenth epoch starts at the t=5 s horizon: only its N−1
        # pulls are on the wire.
        assert (cluster.fabric.messages_sent
                == 4 * (n - 1) * (rounds - 1) + (n - 1))

    def test_fabric_counter_reset(self):
        cluster = _sync_only_cluster()
        assert cluster.fabric.messages_sent > 0
        cluster.fabric.reset_counters()
        assert cluster.fabric.messages_sent == 0
        assert cluster.fabric.bytes_sent == 0


class TestDeltaSync:
    """Delta-encoded scatter pushes: same trace, fewer payload bytes."""

    def test_delta_is_trace_neutral(self):
        delta = _trace(_run_cluster(seed=4, n_servers=4))
        with exact("sync_delta"):
            full = _trace(_run_cluster(seed=4, n_servers=4))
        assert delta == full

    def test_delta_shrinks_payload_bytes_not_wire_size(self):
        def measure(flag):
            with exact_unless(flag, "sync_delta"):
                c = _run_cluster(seed=4, n_servers=4, writes=20)
            pushes = sum(s.controller.delta_pushes
                         for s in c.servers.values())
            return c.fabric.bytes_sent, c.fabric.payload_bytes_sent, pushes

        size_on, payload_on, deltas_on = measure(True)
        size_off, payload_off, deltas_off = measure(False)
        assert deltas_on > 0 and deltas_off == 0
        # Nominal (timing-bearing) traffic is identical; effective
        # payload traffic shrinks by the omitted entries.
        assert size_on == size_off
        assert payload_on < payload_off
        assert payload_off == size_off  # no encoding => payload == wire

    def test_hash_skip_still_functions_with_delta(self):
        cluster = _sync_only_cluster(until=8.0)
        skips = sum(s.controller.push_hash_skips
                    for s in cluster.servers.values())
        assert skips > 0


class TestAllTogglesEquivalence:
    """The acceptance bar: one end-to-end run on the production paths
    vs every exact oracle at once — bit-identical event trace."""

    def test_caches_on_equals_caches_off(self):
        cached = _trace(_run_cluster(seed=2, n_servers=2))
        with exact():
            uncached = _trace(_run_cluster(seed=2, n_servers=2))
        assert cached == uncached

    def test_policy_shares_identical_with_cache_disabled(self):
        from repro.core import Policy
        population = [JobInfo(job_id=i, user=f"u{i % 3}", group=f"g{i % 2}",
                              size=i + 1) for i in range(12)]
        policy = Policy.parse("group-user-size-fair")
        with_cache = policy.shares(population)
        with exact("share_cache"):
            without = Policy.parse("group-user-size-fair").shares(population)
        assert with_cache == without
        assert isinstance(with_cache[0], float)
        assert np.isclose(sum(with_cache.values()), 1.0)
