"""The benchmark's four scenarios and the code that runs one of them.

Each scenario is assembled here from the program's public API (``Cluster``,
``ClusterConfig``, ``FaultPlan``/``FaultInjector``, ``Client``). Every
client is closed-loop: a stream issues its next request when the previous
reply lands. The seed drives every generated input (arrival and departure
offsets, request counts, payload bytes, crash instants) as well as
``ClusterConfig.seed``.

Why these four:

* ``contended_write`` -- three writers on one shared byte range of one
  server: the load sits on ``fs`` range locks and ``sim`` wait/resume,
  the path where the end-to-end write creep lives.
* ``policy_mix`` -- eight jobs, four users, two groups under the composite
  policy on four servers with job churn: ``core`` token draws and share
  rebuilds, ``bb`` lambda-sync, multi-server ``net``/``ucx`` traffic, and
  no lock conflicts.
* ``erasure_repair`` -- 3-of-5 erasure on seven servers, one data-share
  server crashes for good and the repair manager rebuilds its shares:
  degraded ``fs/erasure`` paths, ``bb/repair``, ``faults`` and RPC timer
  cancellation.
* ``outage`` -- journaled metadata over log-structured storage, one
  server crashes and restarts: the only path through ``fs/journal``,
  ``fs/logstore``, restart recovery and the full-table lambda-resync.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Client, Cluster, ClusterConfig, JobInfo, ServerConfig
from repro.bb.client import ClientConfig
from repro.faults import FaultInjector, FaultPlan, ServerCrash
from repro.units import GB, MB

#: op codes in completion records
WRITE, READ = "write", "read"

#: granularity of jittered op sizes
_STEP = 4 * 1024


@dataclass
class Job:
    """One job: who it is, when it runs and what each stream does.

    A stream issues ``n_cycles`` cycles, or cycles until the simulated
    clock passes ``stop``. A cycle is one write of ``size`` bytes at
    offset 0 of the stream's file, followed by a read-back of the same
    range when ``read_back`` is set. Op sizes are drawn uniformly from
    ``size * (1 +- jitter)`` in 4 KiB steps. With ``period`` set the job is
    bulk-synchronous: it issues cycles only in the first ``burst``
    seconds of every period and computes (issues nothing) in the rest.
    """

    info: JobInfo
    start: float
    clients: int = 1
    streams: int = 1
    size: int = 4 * MB
    jitter: float = 0.0
    n_cycles: Optional[int] = None
    stop: Optional[float] = None
    read_back: bool = True
    shared_path: Optional[str] = None
    payload: bool = False
    period: Optional[float] = None
    burst: float = 0.0


@dataclass
class Scenario:
    """A fully generated workload instance (same seed, same instance)."""

    name: str
    seed: int
    config: ClusterConfig
    jobs: List[Job]
    #: hard-coded fair split of steady throughput, from the policy
    split: Dict[int, float]
    #: width of one throughput interval (tput_cv), simulated seconds
    bin_s: float
    max_time: float
    faults: Optional[FaultPlan] = None
    #: Jain index below this fails the correctness gate (None: not gated)
    jain_min: Optional[float] = None
    #: hold the run open until the repair manager has finished
    wait_repair: bool = False
    #: permanent crash instant that must find no client op in flight
    quiet_crash: Optional[float] = None


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * rng.random())


def contended_write(seed: int) -> Scenario:
    rng = np.random.default_rng([seed, 1])
    jobs = [Job(info=JobInfo(job_id=i + 1, user=f"u{i + 1}", size=1),
                start=_uniform(rng, 0.0, 2e-3),
                jitter=0.1, n_cycles=int(rng.integers(1950, 2051)),
                read_back=False,
                shared_path="/fs/data/shared")
            for i in range(3)]
    return Scenario(
        name="contended_write", seed=seed,
        config=ClusterConfig(
            n_servers=1, policy="job-fair", seed=seed,
            server=ServerConfig(bandwidth=1 * GB, n_workers=4)),
        jobs=jobs, split={j.info.job_id: 1 / 3 for j in jobs},
        bin_s=1.0, max_time=600.0, jain_min=0.99)


#: (job id, user, group, nodes) of the composite-policy mix (Figs. 10-11)
_MIX = ((1, "user1", "group1", 1), (2, "user1", "group1", 2),
        (3, "user1", "group1", 1), (4, "user2", "group2", 2),
        (5, "user2", "group2", 3), (6, "user2", "group2", 2),
        (7, "user3", "group2", 2), (8, "user4", "group2", 2))


def _mix_split() -> Dict[int, float]:
    """group-user-size-fair by hand: groups even, users even within a
    group, jobs by node count within a user."""
    groups: Dict[str, Dict[str, Dict[int, int]]] = {}
    for job_id, user, group, nodes in _MIX:
        groups.setdefault(group, {}).setdefault(user, {})[job_id] = nodes
    split = {}
    for users in groups.values():
        for jobs in users.values():
            total = sum(jobs.values())
            for job_id, nodes in jobs.items():
                split[job_id] = nodes / total / len(users) / len(groups)
    return split


def policy_mix(seed: int) -> Scenario:
    rng = np.random.default_rng([seed, 2])
    late, early = (4, 8), (2, 7)
    jobs = []
    for job_id, user, group, nodes in _MIX:
        start = _uniform(rng, 0.3, 0.35) if job_id in late else \
            _uniform(rng, 0.0, 0.01)
        stop = _uniform(rng, 2.25, 2.3) if job_id in early else \
            _uniform(rng, 3.0, 3.03)
        jobs.append(Job(info=JobInfo(job_id=job_id, user=user, group=group,
                                     size=nodes),
                        start=start, stop=stop, clients=nodes, streams=4,
                        jitter=0.25))
    return Scenario(
        name="policy_mix", seed=seed,
        config=ClusterConfig(
            n_servers=4, policy="group-user-size-fair", seed=seed,
            stripe_count=4,
            server=ServerConfig(bandwidth=2 * GB, sync_interval=0.1)),
        jobs=jobs, split=_mix_split(), bin_s=0.025, max_time=10.0,
        jain_min=0.95)


#: erasure stripe unit: small, so the real-byte parity math of every
#: write stays cheap enough for many writes per run
_EC_STRIPE = 16 * 1024


def erasure_repair(seed: int) -> Scenario:
    rng = np.random.default_rng([seed, 3])
    period, burst = 0.2, 0.1
    jobs = [Job(info=JobInfo(job_id=i + 1, user=f"u{i + 1}", size=2),
                start=0.0, stop=5 * period, clients=2, streams=3,
                size=6 * _EC_STRIPE, payload=True, period=period,
                burst=burst)
            for i in range(2)]
    # The server never comes back, so the crash falls in a compute phase:
    # a request in flight to a server that dies for good is retried
    # against it forever, pinned to the pre-crash placement even after
    # repair has moved the shares, and its stream never finishes.
    crash = period + burst + _uniform(rng, 0.03, 0.07)
    return Scenario(
        name="erasure_repair", seed=seed,
        config=ClusterConfig(
            n_servers=7, policy="job-fair", seed=seed, erasure=(3, 5),
            stripe_size=_EC_STRIPE, repair=True, repair_detect_interval=0.05,
            client=ClientConfig(rpc_timeout=0.25, rpc_retries=-1),
            server=ServerConfig(bandwidth=0.0625 * GB, sync_timeout=0.5)),
        jobs=jobs, split={1: 0.5, 2: 0.5}, bin_s=0.02, max_time=30.0,
        faults=FaultPlan([ServerCrash("bb0", at=crash)]), wait_repair=True,
        quiet_crash=crash)


def outage(seed: int) -> Scenario:
    rng = np.random.default_rng([seed, 4])
    stop = 2.5
    jobs = [Job(info=JobInfo(job_id=i + 1, user=f"u{i + 1}", size=1),
                start=_uniform(rng, 0.0, 0.01), stop=stop, streams=4,
                jitter=0.25)
            for i in range(3)]
    crash = _uniform(rng, 0.8, 1.0)
    restart = crash + _uniform(rng, 0.7, 0.8)
    return Scenario(
        name="outage", seed=seed,
        config=ClusterConfig(
            n_servers=2, policy="job-fair", seed=seed, journal=True,
            storage_backend="log",
            client=ClientConfig(rpc_timeout=0.25, rpc_retries=-1),
            server=ServerConfig(sync_timeout=0.5)),
        jobs=jobs, split={j.info.job_id: 1 / 3 for j in jobs}, bin_s=0.05,
        max_time=30.0,
        faults=FaultPlan([ServerCrash("bb0", at=crash, restart_at=restart)]))


BUILDERS: Dict[str, Callable[[int], Scenario]] = {
    "contended_write": contended_write, "policy_mix": policy_mix,
    "erasure_repair": erasure_repair, "outage": outage}


# ------------------------------------------------------------------- run
@dataclass
class Run:
    """What one run of a scenario produced."""

    scenario: Scenario
    cluster: Cluster
    #: (job, op, path, offset, size, issued, completed, bytes returned)
    records: List[tuple] = field(default_factory=list)
    failed: int = 0
    #: problems the correctness gate found (empty = correct)
    errors: List[str] = field(default_factory=list)
    host_run_s: float = 0.0
    finished_at: Optional[float] = None

    @property
    def served(self) -> int:
        return sum(s.served_requests for s in self.cluster.servers.values())

    def digest(self) -> str:
        """Hash of the sorted completion records: job, op, offset, size
        and simulated completion time (exact float repr)."""
        rows = sorted((r[0], r[1], r[2], r[3], r[4], repr(r[6]))
                      for r in self.records)
        return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def build(scenario: Scenario) -> Run:
    """Build the cluster and launch every job; nothing simulated yet."""
    cluster = Cluster(scenario.config)
    if scenario.faults is not None:
        FaultInjector(cluster, scenario.faults).arm()
    run = Run(scenario=scenario, cluster=cluster)
    engine = cluster.engine
    cluster.fs.makedirs("/fs/data")
    #: path -> (payload or None, highest acknowledged end)
    acked: Dict[str, list] = {}

    def stream(client: Client, job: Job, path: str, payload, rng):
        yield from client.create(path)
        cycles = 0
        while True:
            if job.n_cycles is not None and cycles >= job.n_cycles:
                return
            if job.stop is not None and engine.now >= job.stop:
                return
            if job.period is not None:
                phase = (engine.now - job.start) % job.period
                if phase >= job.burst:
                    yield engine.timeout(job.period - phase)
                    continue
            cycles += 1
            size = job.size
            if job.jitter:
                size = _STEP * round(
                    size * (1 + job.jitter * (2 * rng.random() - 1)) / _STEP)
            yield from op(client, job, WRITE, path, size, payload)
            entry = acked.setdefault(path, [payload, 0])
            entry[1] = max(entry[1], size)
            if job.read_back:
                yield from op(client, job, READ, path, size, None)

    def op(client: Client, job: Job, kind: str, path: str, size: int,
           payload):
        """One client op, timed from issue to reply."""
        issued = engine.now
        if kind == WRITE:
            got = yield from client.write(path, 0, size, payload=payload)
        else:
            got = yield from client.read(path, 0, size)
        run.records.append((job.info.job_id, kind, path, 0, size, issued,
                            engine.now, got))
        # A degraded erasure write acknowledges only the bytes it placed
        # on live servers; the read-back gate checks what it stored.
        if kind == READ and got != size:
            run.failed += 1

    def job_proc(job: Job):
        if job.start > 0:
            yield engine.timeout(job.start)
        jid = job.info.job_id
        clients = [cluster.add_client(job.info, client_id=f"j{jid}n{c}")
                   for c in range(job.clients)]
        procs = []
        for c_idx, client in enumerate(clients):
            for s_idx in range(job.streams):
                path = job.shared_path or f"/fs/data/j{jid}c{c_idx}s{s_idx}"
                rng = np.random.default_rng([scenario.seed, jid, c_idx, s_idx])
                payload = (rng.integers(0, 256, job.size, dtype=np.uint8)
                           .tobytes() if job.payload else None)
                procs.append(engine.process(
                    stream(client, job, path, payload, rng)))
        yield engine.all_of(procs)
        for client in clients:
            yield from client.goodbye()

    def finish(procs):
        yield engine.all_of(procs)
        if scenario.wait_repair:
            repair = cluster.repair
            while repair.active or not repair.episodes:
                yield engine.timeout(0.01)
        yield from verify()
        run.finished_at = engine.now
        engine.request_stop()

    def verify():
        """Every acknowledged write reads back at its written size. Real
        bytes must read back as written, and decode as written with the
        first share's server taken away."""
        checker = cluster.add_client(
            JobInfo(job_id=99, user="verify", size=1), client_id="verify")
        fs = cluster.fs
        for path in sorted(acked):
            payload, end = acked[path]
            got = yield from checker.read(path, 0, end)
            if got != end:
                run.errors.append(f"{path}: read back {got} of {end} bytes")
            if payload is None:
                continue
            if fs.read(path, 0, end) != payload[:end]:
                run.errors.append(f"{path}: bytes differ after repair")
            gone = {fs.lookup(path).stripe.server_of_share(0, 0)}
            if fs.read_reconstruct(path, 0, end, gone)[0] != payload[:end]:
                run.errors.append(f"{path}: decode without {gone} differs")
        yield from checker.goodbye()

    procs = [engine.process(job_proc(job)) for job in scenario.jobs]
    engine.process(finish(procs))
    return run


def execute(run: Run, around=None) -> Run:
    """Simulate a built run to its end and apply the correctness gate.

    *around* is a context manager entered for the simulation alone.
    """
    cluster = run.cluster
    with around if around is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        cluster.run(until=run.scenario.max_time)
        run.host_run_s = time.perf_counter() - t0
    if run.finished_at is None:
        run.errors.append(
            f"streams still running at max_time={run.scenario.max_time}")
    stats = cluster.fault_stats
    if stats.requests_failed:
        run.errors.append(f"requests_failed={stats.requests_failed}")
    if run.failed:
        run.errors.append(f"{run.failed} short reads")
    crash = run.scenario.quiet_crash
    if crash is not None and any(r[5] < crash < r[6] for r in run.records):
        run.errors.append(f"a client op was in flight at the crash {crash}")
    if run.scenario.wait_repair:
        if stats.data_lost_groups:
            run.errors.append(f"data_lost_groups={stats.data_lost_groups}")
        summary = cluster.repair.summary()
        if summary["groups_repaired"] == 0 or summary["groups_lost"]:
            run.errors.append(f"repair did not rebuild cleanly: {summary}")
    return run
