"""GIFT quiescence forecasting: skipping _allocate on provably-idle
epoch boundaries must change the skip counter and nothing else —
bit-identical dispatch traces, budgets, coupons, and epoch bookkeeping
against the exact oracle that allocates on every boundary."""

from repro.core import JobInfo
from repro.core.baselines import GiftScheduler

from ..oracles import exact_unless


class Req:
    __slots__ = ("job_id", "cost")

    def __init__(self, job_id, cost=1.0):
        self.job_id = job_id
        self.cost = cost


def _job(job_id):
    return JobInfo(job_id=job_id, user=f"u{job_id}")


def _state(sched):
    return (sched.epochs, sched._epoch_end, dict(sched._budgets),
            dict(sched._fair_last), dict(sched._arrived_last),
            dict(sched.coupons), sched.lp_calls)


def _drive_bursty(sched, bursts=6, idle_epochs=50):
    """Bursts of demand separated by long fully-idle stretches; returns
    the dispatch trace. The idle stretches cross many epoch boundaries
    with empty queues — the quiescent regime the skip targets."""
    sched.on_jobs_changed([_job(1), _job(2), _job(3)], 0.0)
    trace = []
    now = 0.0
    for burst in range(bursts):
        for _ in range(30):
            sched.enqueue(Req(1 + burst % 3, 1.0), now)
        for _ in range(20):
            sched.enqueue(Req(2, 2.0), now)
        while sched.queues:
            r = sched.dequeue(now)
            if r is None:
                # Backlogged but throttled: advance to the boundary.
                now += sched.mu
                continue
            trace.append((now, r.job_id, r.cost))
        # Idle stretch: periodic polls (e.g. a server's timer loop)
        # cross one quiescent boundary per call.
        for _ in range(idle_epochs):
            now += sched.mu
            assert sched.dequeue(now) is None
            trace.append((now, None, sched.epochs))
    return trace


def _run(enabled, **kwargs):
    with exact_unless(enabled, "gift_quiescence"):
        sched = GiftScheduler(capacity=100.0, mu=1.0)
        trace = _drive_bursty(sched, **kwargs)
    return trace, sched


def test_quiescent_skip_trace_identical():
    trace_on, on = _run(True)
    trace_off, off = _run(False)
    assert trace_on == trace_off
    assert _state(on) == _state(off)


def test_skips_happen_and_count_boundaries():
    trace_on, on = _run(True)
    _, off = _run(False)
    assert on.quiescent_skips > 0
    assert off.quiescent_skips == 0
    # Every boundary is either a full allocation or a skip; both modes
    # cross the same number of boundaries.
    assert on.epochs == off.epochs


def test_job_set_change_forces_full_allocation():
    sched = GiftScheduler(capacity=100.0, mu=1.0)
    sched.on_jobs_changed([_job(1), _job(2)], 0.0)
    now = 0.0
    assert sched.dequeue(now) is None          # first boundary: full
    for _ in range(5):
        now += 1.0
        sched.dequeue(now)
    assert sched.quiescent_skips == 5
    # A membership change invalidates the standing budgets: the next
    # boundary must re-derive fair shares for the new set.
    sched.on_jobs_changed([_job(1), _job(2), _job(3)], now)
    now += 1.0
    sched.dequeue(now)
    assert sched.quiescent_skips == 5          # no skip on this boundary
    assert len(sched._budgets) == 3
    now += 1.0
    sched.dequeue(now)
    assert sched.quiescent_skips == 6          # skipping resumes


def test_served_traffic_blocks_skip():
    sched = GiftScheduler(capacity=100.0, mu=1.0)
    sched.on_jobs_changed([_job(1)], 0.0)
    assert sched.dequeue(0.0) is None
    sched.dequeue(1.0)
    assert sched.quiescent_skips == 1
    sched.enqueue(Req(1, 3.0), 1.5)            # demand arrives mid-epoch
    r = sched.dequeue(2.0)                     # boundary: must reallocate
    assert r is not None and r.job_id == 1
    assert sched.quiescent_skips == 1
