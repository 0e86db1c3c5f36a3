"""Request schedulers: the abstract interface and ThemisIO's statistical
token scheduler (§3, §4.1).

A scheduler owns the server's pending-request queues and decides which
request an I/O worker serves next. The interface is deliberately small
so the paper's comparators (FIFO, GIFT, TBF — see
:mod:`repro.core.baselines`) plug into the same server:

- ``enqueue(request, now)`` — communicator hands over an arrived request;
- ``dequeue(now)`` — a free worker asks for the next request; ``None``
  means "nothing may run right now" (an idle cycle);
- ``on_jobs_changed(active_jobs, now)`` — controller pushes the merged
  job table whenever membership changes (token reallocation);
- ``next_eligible_time(now)`` — earliest time a blocked backlog could
  become serviceable (lets throttling schedulers tell workers when to
  retry; ``inf`` for work-conserving schedulers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import SchedulerError
from .jobinfo import JobInfo
from .policy import Policy
from .queues import QueueSet
from .sampled import BacklogSampler
from .tokens import TokenAssignment

__all__ = ["Scheduler", "StatisticalTokenScheduler"]

#: Backlogged-job count below which the exact O(n) draw answers instead
#: of the Fenwick sampler. Sampled and exact draws are bit-identical
#: (the sampler's boundary guard falls back to the exact path whenever
#: float association order could matter — see
#: :mod:`repro.core.sampled`). Small populations under membership or
#: reallocation churn spend more on O(log n) tree maintenance and
#: O(n) bulk reloads than the sampled draws save: the 3-job system
#: write benches lose ~8 % end-to-end on the sampled path, and the
#: 16-job enqueue/dequeue kernel ~9 %, while the scale kernels win
#: from 256 jobs up (1.19x, growing with n). Below the threshold the
#: tree is never built or maintained (the version stamps go stale and
#: the first above-threshold draw rebuilds it once), so small
#: populations pay only this comparison. Either path answers any given
#: draw bit-identically, so the cutover cannot change a trace.
_SAMPLED_MIN_JOBS = 64


class Scheduler(ABC):
    """Interface every queueing discipline implements.

    The base declares empty ``__slots__`` so slot-conscious subclasses
    (the statistical token scheduler sits on the bench hot path) do not
    inherit a ``__dict__``; subclasses that declare no slots of their
    own regain one automatically.
    """

    __slots__ = ()

    name: str = "abstract"

    @abstractmethod
    def enqueue(self, request: Any, now: float) -> None:
        """Accept an arrived request."""

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Any]:
        """Pick the next request to serve, or None for an idle cycle."""

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo],
                        now: float) -> None:
        """React to a change in the active-job set (default: ignore)."""

    def set_assignment(self, shares: "dict[int, float]", now: float) -> None:
        """Install an explicit share map (placement-adjusted tokens from
        the controller's λ-sync, Fig. 5). Default: ignore — only the
        statistical token scheduler consumes shares."""

    @property
    @abstractmethod
    def backlog(self) -> int:
        """Number of queued requests."""

    def next_eligible_time(self, now: float) -> float:
        """Earliest time a blocked backlog becomes serviceable (inf = now/never)."""
        return float("inf")

    def drain(self) -> "list":
        """Remove and return every queued request (server crash path).

        The default covers schedulers built on a :class:`QueueSet`
        ``queues`` attribute; others override.
        """
        queues = getattr(self, "queues", None)
        if queues is not None and hasattr(queues, "drain"):
            return queues.drain()
        return []


class StatisticalTokenScheduler(Scheduler):
    """ThemisIO's scheduler: statistical tokens + opportunity fairness.

    Each dequeue draws ``u ~ U[0, 1)`` and serves the job whose token
    segment contains it. With *opportunity_fair* (the ThemisIO design),
    segments are renormalised over jobs that currently have queued
    requests, so no draw is wasted and idle cycles flow to jobs with
    demand; a backlogged job still receives at least its policy share.
    With ``opportunity_fair=False`` (ablation), draws use the full
    assignment and a draw landing on an idle job's segment wastes the
    cycle — the behaviour of a mandatory bandwidth assignment.

    Jobs that have queued requests but are not yet in the token
    assignment (first requests racing the job-table update) are treated
    as holding the mean share until the controller recomputes tokens.

    The restricted (opportunity-fair) assignment is **cached**: building
    a :class:`TokenAssignment` costs numpy allocations, a sort, and a
    cumsum, but its inputs only change when the token assignment itself
    is replaced or the *membership* of the backlogged-job set changes.
    The cache is keyed by ``(assignment version, backlog signature)`` —
    a fast single-entry check against the queue set's membership
    version, backed by a per-assignment-version dict keyed on the exact
    backlogged-job tuple so recurring backlog patterns (a job draining
    and refilling) stay hits. A cached draw is bit-identical to an
    uncached rebuild: the cache stores exactly the object that
    reconstruction from the same inputs would produce.
    """

    name = "themis"

    __slots__ = ("policy", "rng", "opportunity_fair", "cache_draws",
                 "queues", "assignment", "draws", "wasted_draws",
                 "cache_hits", "cache_misses", "reinstalls_skipped",
                 "_assignment_version", "_restricted_cache", "_fast_key",
                 "_fast_restricted", "sampled_draws", "sampled_fallbacks",
                 "_sampler", "_sampler_assign_version", "_sampler_mv")

    #: Cap on distinct backlog signatures cached per assignment version.
    _CACHE_MAX = 256

    def __init__(self, policy: Policy, rng: np.random.Generator,
                 opportunity_fair: bool = True, cache_draws: bool = True):
        self.policy = policy
        self.rng = rng
        self.opportunity_fair = bool(opportunity_fair)
        self.cache_draws = bool(cache_draws)
        self.queues = QueueSet()
        self.assignment: Optional[TokenAssignment] = None
        self.draws = 0
        self.wasted_draws = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.reinstalls_skipped = 0
        self._assignment_version = 0
        self._restricted_cache: dict = {}   # backlog tuple -> TokenAssignment
        self._fast_key: Optional[tuple] = None  # (assign ver, membership ver)
        self._fast_restricted: Optional[TokenAssignment] = None
        # Fenwick-sampled dequeue state (see repro.core.sampled). The
        # sampler mirrors the backlog's weight vector incrementally; the
        # two version stamps detect when it must be rebuilt (assignment
        # replaced, or the queue set mutated behind our back — drain).
        self.sampled_draws = 0
        self.sampled_fallbacks = 0
        self._sampler: Optional[BacklogSampler] = None
        self._sampler_assign_version = -1
        self._sampler_mv = -1

    # -------------------------------------------------------------- interface
    def enqueue(self, request: Any, now: float) -> None:
        queues = self.queues
        if self._sampler_mv < 0:
            # No sampler tree was ever built (small-population regime):
            # nothing to keep in step.
            queues.push(request)
            return
        before = queues.membership_version
        queues.push(request)
        after = queues.membership_version
        if after != before and self._sampler_mv == before:
            # The job just became backlogged: O(log n) weight update
            # keeps the live sampler in step with the queue set.
            self._sampler.set_weight(request.job_id,
                                     self._job_weight(request.job_id))
            self._sampler_mv = after

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo],
                        now: float) -> None:
        self._install_shares(self.policy.shares(active_jobs))

    def set_assignment(self, shares, now: float) -> None:
        self._install_shares({j: s for j, s in shares.items() if s > 0})

    def _install_shares(self, shares: "dict[int, float]") -> None:
        """Install *shares*, skipping the (cache-clearing) reinstall when
        they are identical to the live assignment's constructor input —
        a rebuilt assignment would be bit-identical, so keeping the warm
        restricted-draw caches cannot change any draw."""
        if not shares:
            if self.assignment is not None:
                self._install(None)
            return
        if self.assignment is not None and self.assignment.same_source(shares):
            self.reinstalls_skipped += 1
            return
        self._install(TokenAssignment(shares))

    def _install(self, assignment: Optional[TokenAssignment]) -> None:
        self.assignment = assignment
        self._assignment_version += 1
        self._restricted_cache.clear()
        self._fast_key = None
        self._fast_restricted = None

    def dequeue(self, now: float) -> Optional[Any]:
        queues = self.queues
        if not queues:
            return None
        assignment = self.assignment
        if assignment is None:
            # No token info yet: serve uniformly among backlogged jobs.
            backlogged = queues.nonempty_jobs()
            job_id = backlogged[self._draw_index(len(backlogged))]
            return queues.pop(job_id)

        if not self.opportunity_fair:
            self.draws += 1
            job_id = assignment.draw(float(self.rng.random()))
            if queues.depth(job_id) == 0:
                self.wasted_draws += 1
                return None
            return queues.pop(job_id)

        self.draws += 1
        u = float(self.rng.random())
        # len() on the private list dodges a method call on the
        # per-dequeue hot path (== queues.backlogged_jobs()).
        if len(queues._sorted_jobs) >= _SAMPLED_MIN_JOBS:
            choice = self._sampled_choice(u)
        else:
            choice = self._restricted_assignment().draw(u)
        if self._sampler_mv < 0:
            return queues.pop(choice)
        before = queues.membership_version
        item = queues.pop(choice)
        after = queues.membership_version
        if after != before and self._sampler_mv == before:
            # The job's queue just drained: zero its segment weight.
            self._sampler.set_weight(choice, 0.0)
            self._sampler_mv = after
        return item

    # ---------------------------------------------------------- sampled draws
    def _sampled_choice(self, u: float) -> int:
        """Resolve one opportunity-fair draw via the Fenwick sampler.

        Bit-identical to ``self._restricted_assignment().draw(u)``: the
        sampler's nonzero slots are exactly the backlogged jobs in
        ascending-id order carrying exactly the weights
        :meth:`_build_restricted` would normalise, and its boundary
        guard hands any draw that floating-point association order
        could flip back to the exact path (see :mod:`repro.core.sampled`).
        """
        queues = self.queues
        if (self._sampler is None
                or self._sampler_assign_version != self._assignment_version
                or self._sampler_mv != queues.membership_version):
            self._rebuild_sampler()
        choice = self._sampler.sample(u)
        if choice is None:
            # Guarded draw (boundary-adjacent) or desynced weights:
            # exactly reproduce the O(n) path for this one draw.
            self.sampled_fallbacks += 1
            return self._build_restricted(queues.nonempty_jobs()).draw(u)
        self.sampled_draws += 1
        return choice

    def _rebuild_sampler(self) -> None:
        backlogged = self.queues.nonempty_jobs()
        sampler = self._sampler
        if sampler is None:
            sampler = self._sampler = BacklogSampler()
        sampler.bulk_load(backlogged,
                          [self._job_weight(j) for j in backlogged])
        self._sampler_assign_version = self._assignment_version
        self._sampler_mv = self.queues.membership_version

    def _job_weight(self, job_id: int) -> float:
        """The unnormalised restricted-draw weight of one backlogged job
        (identical to the per-job values in :meth:`_build_restricted`)."""
        assignment = self.assignment
        if assignment is None:
            return 0.0
        i = assignment._index.get(job_id)
        mean_share = 1.0 / max(len(assignment._index), 1)
        if i is None:
            return mean_share
        share = assignment._shares_list[i]
        return share if share > 0 else mean_share

    # ------------------------------------------------------------- draw cache
    def _restricted_assignment(self) -> TokenAssignment:
        """The backlog-restricted assignment, cached across dequeues."""
        queues = self.queues
        if self.cache_draws:
            key = (self._assignment_version, queues.membership_version)
            if key == self._fast_key:
                self.cache_hits += 1
                return self._fast_restricted
            signature = tuple(queues.nonempty_jobs())
            restricted = self._restricted_cache.get(signature)
            if restricted is None:
                self.cache_misses += 1
                restricted = self._build_restricted(signature)
                if len(self._restricted_cache) >= self._CACHE_MAX:
                    self._restricted_cache.clear()
                self._restricted_cache[signature] = restricted
            else:
                self.cache_hits += 1
            self._fast_key = key
            self._fast_restricted = restricted
            return restricted
        return self._build_restricted(queues.nonempty_jobs())

    def _build_restricted(self, backlogged: Sequence[int]) -> TokenAssignment:
        """Renormalise over backlogged jobs, giving not-yet-assigned jobs
        the mean share (identical to the uncached per-dequeue rebuild).

        *backlogged* comes from the queue set already sorted, which lets
        the fast :meth:`TokenAssignment._from_backlog` constructor skip
        sorting and validation."""
        assignment = self.assignment
        index = assignment._index
        shares_list = assignment._shares_list
        mean_share = 1.0 / max(len(index), 1)
        values = []
        for job_id in backlogged:
            i = index.get(job_id)
            if i is None:
                values.append(mean_share)
            else:
                share = shares_list[i]
                values.append(share if share > 0 else mean_share)
        return TokenAssignment._from_backlog(list(backlogged), values)

    @property
    def backlog(self) -> int:
        return self.queues.total

    def next_eligible_time(self, now: float) -> float:
        """``now`` while backlogged in the ablation mode, else ``inf``.

        In the ablation (``opportunity_fair=False``) a dequeue can waste
        its draw on an idle job's segment, so a backlogged queue may
        return ``None`` yet become serviceable on the very next draw —
        the worker should retry on its short timer, exactly as before.
        The opportunity-fair mode never returns ``None`` with backlog,
        so workers park on the work event instead (``inf``).
        """
        if self.queues and not self.opportunity_fair:
            return now
        return float("inf")

    # --------------------------------------------------------------- helpers
    def _draw_index(self, n: int) -> int:
        if n <= 0:
            raise SchedulerError("no backlogged jobs to draw from")
        return int(self.rng.integers(0, n))

    def current_shares(self) -> dict:
        """The live token assignment (job id -> share), {} if none."""
        return self.assignment.as_dict() if self.assignment else {}
