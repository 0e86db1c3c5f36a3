"""Metrics of one scenario run: end-to-end figures and per-layer counts.

Simulated-time figures come from the run's completion records and repeat
exactly for a seed; host-time figures are taken by the caller.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


from scenarios import Run

PROGRAM_LAYERS = ("sim", "net", "ucx", "bb", "core", "fs", "faults",
                  "metrics", "workloads")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def steady_window(run: Run) -> Tuple[float, float]:
    """From the last job's first completion to the first job's last one:
    the span in which every job is running. Metrics use the whole
    intervals of ``bin_s`` that fit in it."""
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for rec in run.records:
        job, done = rec[0], rec[6]
        first[job] = min(first.get(job, done), done)
        last[job] = max(last.get(job, done), done)
    return max(first.values()), min(last.values())


def end_to_end(run: Run) -> Dict[str, float]:
    """Simulated-time end-to-end metrics of one run."""
    sc = run.scenario
    t0, t1 = steady_window(run)
    n_bins = max(1, int((t1 - t0) / sc.bin_s))
    span = n_bins * sc.bin_s
    bins = {job: [0] * n_bins for job in sc.split}
    for rec in run.records:
        slot = int((rec[6] - t0) / sc.bin_s)
        if rec[6] >= t0 and slot < n_bins:
            bins[rec[0]][slot] += rec[7]
    tput = {job: sum(b) / span for job, b in bins.items()}
    shares = [tput[job] / sc.split[job] for job in sc.split]
    jain = sum(shares) ** 2 / (len(shares) * sum(x * x for x in shares))
    cvs = [statistics.pstdev(b) / statistics.fmean(b) for b in bins.values()]
    lat = [(rec[6] - rec[5]) * 1e3 for rec in run.records]
    return {
        "sim_gbps": sum(tput.values()) / 1e9,
        "lat_p50_ms": percentile(lat, 50.0),
        "lat_p99_ms": percentile(lat, 99.0),
        "lat_samples": len(lat),
        "jain": jain,
        "tput_cv": statistics.fmean(cvs),
    }


def counters(run: Run) -> Dict[str, float]:
    """Per-layer counts read from the program's own counters."""
    cluster = run.cluster
    served = run.served
    engine = cluster.engine.stats()
    fabric = cluster.fabric
    stats = cluster.fault_stats
    sync = cluster.sync_stats()
    rounds = sync["sync_rounds"]
    lock_waits = sum(w.lock_waits for s in cluster.servers.values()
                     for w in s.workers)
    repair_s = 0.0
    if cluster.repair is not None and cluster.repair.episodes:
        crash = run.scenario.quiet_crash or 0.0
        repair_s = max(e["finished_at"] for e in cluster.repair.episodes) - \
            crash
    recovery_ms = 0.0
    for server in cluster.servers.values():
        if server.first_completion_after_restart is not None:
            recovery_ms = (server.first_completion_after_restart
                           - server.restarted_at) * 1e3
    return {
        # Engine.stats() has no total; the sequence counter is the number
        # of events ever scheduled.
        "sim.events_per_req": cluster.engine._seq / served,
        "sim.cancelled_per_req": engine["cancelled_total"] / served,
        "sim.compactions": engine["compactions"],
        "net.msgs_per_req": fabric.messages_sent / served,
        "net.bytes_per_req": fabric.bytes_sent / served,
        "net.payload_bytes_per_req": fabric.payload_bytes_sent / served,
        "ucx.rpc_timeouts": stats.rpc_timeouts,
        "bb.sync_rounds": rounds,
        "bb.sync_bytes_per_epoch": (sync["coord_gather_payload_bytes"]
                                    + sync["relay_gather_payload_bytes"])
        / max(1, rounds),
        "bb.retries_per_req": stats.retries / served,
        "bb.failovers": stats.failovers,
        "bb.repair_bytes": stats.repair_bytes,
        "bb.repair_s": repair_s,
        "bb.recovery_ms": recovery_ms,
        "fs.lock_waits_per_req": lock_waits / served,
        "fs.degraded_reads": stats.degraded_reads,
        "fs.degraded_writes": stats.degraded_writes,
    }


def traced(tracer, served: int, sync_rounds: int) -> Dict[str, float]:
    """Per-layer host times and simulated-time samples of a traced run."""
    names = tracer.by_name()

    def per_call(*prefixes: str, own: bool = False) -> float:
        calls = total = 0.0
        for name, (n, dur, self_s) in names.items():
            if name.startswith(prefixes):
                calls += n
                total += self_s if own else dur
        return total / calls * 1e6 if calls else 0.0

    def self_us(layer: str) -> float:
        return sum(v[2] for k, v in names.items()
                   if tracer.layer_of[k] == layer) / served * 1e6

    ms = [x * 1e3 for x in tracer.queue_wait]
    lock_ms = [x * 1e3 for x in tracer.lock_wait]
    return {
        "sim.self_us_per_req": self_us("sim"),
        "sim.dead_peak": tracer.dead_peak,
        "net.send_us": per_call("Fabric.send"),
        "ucx.call_us": per_call("RpcClient.call"),
        "bb.self_us_per_req": self_us("bb"),
        "bb.service_ms_p50": percentile(tracer.service, 50.0) * 1e3,
        "bb.sync_us_per_epoch": tracer.outer_time("Controller.")
        / max(1, sync_rounds) * 1e6,
        "core.enqueue_us": per_call("StatisticalTokenScheduler.enqueue"),
        "core.dequeue_us": per_call("StatisticalTokenScheduler.dequeue"),
        "core.share_updates": names.get(
            "StatisticalTokenScheduler.on_jobs_changed", (0,))[0],
        "core.queue_wait_ms_p50": percentile(ms, 50.0),
        "core.queue_wait_ms_p99": percentile(ms, 99.0),
        "fs.lock_us": per_call("RangeLockTable."),
        "fs.lock_wake_useful_frac": (tracer.acquired_after_wait
                                     / tracer.lock_wait_calls
                                     if tracer.lock_wait_calls else 1.0),
        "fs.lock_wait_ms_p50": percentile(lock_ms, 50.0),
        "fs.lock_wait_ms_p99": percentile(lock_ms, 99.0),
        "fs.erasure_us": per_call("erasure."),
        "fs.journal_us": per_call("JournaledFS.", own=True),
        "metrics.record_us": per_call("ThroughputSampler.record"),
    }


def calls(counts, served: int) -> Dict[str, float]:
    """calls_per_req per program layer, plus their sum."""
    out = {f"{layer}.calls_per_req": counts.get(layer, 0) / served
           for layer in PROGRAM_LAYERS}
    program = sum(v for k, v in counts.items() if k != "bench")
    out["program.calls_per_req"] = program / served
    return out
