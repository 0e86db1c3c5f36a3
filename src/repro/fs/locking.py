"""Concurrency control mirroring §4.3's rules.

- Concurrent reads of the same file: no locking.
- Concurrent writes: allowed when byte ranges do not conflict.
- Metadata updates: a per-inode mutex.

In the simulator, FS calls execute instantaneously inside a server
worker's service window; the lock table is what decides whether two
*in-flight* requests may be serviced concurrently by different workers.
:class:`RangeLockTable` implements writer-vs-writer range conflicts
(readers never block), :class:`MetadataLockTable` per-key mutexes.
Both are non-blocking try-lock interfaces.

Waiting is **event-driven**: a caller whose ``try_lock`` fails registers
a waiter with :meth:`~RangeLockTable.wait` and parks on it. Waiter
entries are keyed by *owner* and keep their FIFO position across retry
failures: a woken loser that re-registers re-arms its existing entry in
place instead of moving to the back of the queue, so contention
resolution order is deterministic and independent of how many no-op
wakeups happen in between.

Wakeups are **range-indexed**: a write-lock release wakes only the
waiters whose byte ranges overlap a released range, in FIFO order; a
metadata-mutex release wakes only the head waiter. Waiters that could
not possibly acquire are never scheduled, so a release's wakeup cost
scales with the *conflicting* waiters, not the inode's total fan-out.
The traces are bit-identical to waking every waiter on the inode: a
waiter whose range overlaps no released range retries against the same
set of conflicting held locks and deterministically fails, so its
wakeup would be a pure no-op — and because losers keep their queue
position, skipping the no-op leaves the acquisition order unchanged.
The tables stay simulation-agnostic — a waiter is anything with a
``succeed()`` method, which :class:`repro.sim.process.Event` provides.

Conflict candidates are *selected* through a bucket index over each
inode's armed waiter ranges (power-of-two bucket width sized from the
inode's first waited range; entries spanning too many buckets park in
a wildcard list). A release collects candidates from only the buckets
its freed ranges touch plus the wildcards, sorts them by queue
sequence number, and runs the exact overlap check on that shortlist —
identical wake set and FIFO order to scanning the whole queue, without
the O(total waiters) scan on high-fan-in inodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import FSError

__all__ = ["RangeLockTable", "MetadataLockTable"]

#: Minimum bucket width exponent: buckets never get finer than 2^10 B.
_MIN_BUCKET_BITS = 10

#: Bucket width used when an inode's first waiter is unranged.
_DEFAULT_BUCKET_WIDTH = 1 << 12

#: An entry spanning more than this many buckets indexes as a wildcard
#: (always a candidate) instead of bloating per-bucket lists.
_INDEX_SPAN_CAP = 8


class _WaitEntry:
    """One parked waiter: its conflict range and one-shot wake event."""

    __slots__ = ("offset", "end", "event", "woken", "seq")

    def __init__(self, offset: Optional[int], end: Optional[int],
                 event: object, seq: int):
        self.offset = offset   # None = conflicts with any release
        self.end = end
        self.event = event
        self.woken = False
        self.seq = seq         # queue position (stable across re-arms)


class _RangeIndex:
    """Bucket index over one inode's armed waiter ranges.

    Owners are placed into ``offset // width`` buckets (dicts used as
    ordered sets — DET004-safe); unranged or too-wide entries go to the
    wildcard list. Strictly an over-approximation: ``candidates`` may
    return non-overlapping owners (the caller re-checks exactly), but
    never misses an overlapping one — each ranged entry occupies every
    bucket its byte range touches.
    """

    __slots__ = ("width", "buckets", "wildcards", "placed")

    def __init__(self, width: int):
        self.width = width
        # bucket id -> {owner: None}, insertion-ordered.
        self.buckets: Dict[int, Dict[object, None]] = {}
        self.wildcards: Dict[object, None] = {}
        # owner -> (lo_bucket, hi_bucket), or None for wildcard entries.
        self.placed: Dict[object, Optional[Tuple[int, int]]] = {}

    def place(self, owner: object, offset: Optional[int],
              end: Optional[int]) -> None:
        """(Re-)index *owner* under its current conflict range."""
        self.remove(owner)
        if offset is None or end is None:
            self.placed[owner] = None
            self.wildcards[owner] = None
            return
        lo = offset // self.width
        hi = max(lo, (end - 1) // self.width)
        if hi - lo + 1 > _INDEX_SPAN_CAP:
            self.placed[owner] = None
            self.wildcards[owner] = None
            return
        self.placed[owner] = (lo, hi)
        for b in range(lo, hi + 1):
            bucket = self.buckets.get(b)
            if bucket is None:
                bucket = self.buckets[b] = {}
            bucket[owner] = None

    def remove(self, owner: object) -> None:
        """Drop *owner* from every bucket (no-op if absent)."""
        if owner not in self.placed:
            return
        span = self.placed.pop(owner)
        if span is None:
            self.wildcards.pop(owner, None)
            return
        lo, hi = span
        for b in range(lo, hi + 1):
            bucket = self.buckets.get(b)
            if bucket is not None:
                bucket.pop(owner, None)
                if not bucket:
                    del self.buckets[b]

    def candidates(self, ranges: List[Tuple[int, int]]
                   ) -> Dict[object, None]:
        """Owners possibly overlapping *ranges* (plus all wildcards),
        deduplicated; the caller orders them by queue sequence."""
        out: Dict[object, None] = {}
        for owner in self.wildcards:
            out[owner] = None
        for lo, hi in ranges:
            b0 = lo // self.width
            b1 = max(b0, (hi - 1) // self.width)
            for b in range(b0, b1 + 1):
                bucket = self.buckets.get(b)
                if bucket:
                    for owner in bucket:
                        out[owner] = None
        return out


class _WaiterMixin:
    """FIFO waiter queues keyed by inode number, entries keyed by owner.

    Entries are one-shot (a woken waiter is skipped by later wakes) but
    *positional*: re-registering under the same owner re-arms the entry
    where it already sits. An entry leaves the queue when its owner
    acquires the lock (``try_lock*`` success) or on the crash reset.
    """

    __slots__ = ("_waiters", "_index", "_next_seq")

    def __init__(self):
        # ino -> {owner key -> entry}; dicts preserve insertion order.
        self._waiters: Dict[int, Dict[object, _WaitEntry]] = {}
        # ino -> bucket index over the same entries (kept in lock-step).
        self._index: Dict[int, _RangeIndex] = {}
        self._next_seq = 0

    def _index_for(self, ino: int, offset: Optional[int],
                   length: Optional[int]) -> _RangeIndex:
        """The inode's bucket index, created on first wait with a width
        sized to that first range (power of two covering it)."""
        index = self._index.get(ino)
        if index is None:
            if offset is None or length is None or length <= 0:
                width = _DEFAULT_BUCKET_WIDTH
            else:
                width = 1 << max(_MIN_BUCKET_BITS,
                                 (length - 1).bit_length())
            index = self._index[ino] = _RangeIndex(width)
        return index

    def wait(self, ino: int, waiter: object, offset: Optional[int] = None,
             length: Optional[int] = None, owner: object = None) -> None:
        """Register *waiter* to be woken at the next conflicting release
        on *ino*.

        *waiter* needs a ``succeed()`` method (e.g. a sim ``Event``).
        *offset*/*length* scope the wakeup to releases overlapping that
        byte range (``None`` = woken by any release). *owner* keys the
        entry so a retry loser re-arms in place; it defaults to the
        waiter object itself (every call then appends a fresh entry).
        """
        key = waiter if owner is None else owner
        queue = self._waiters.get(ino)
        if queue is None:
            queue = self._waiters[ino] = {}
        end = None if offset is None or length is None else offset + length
        entry = queue.get(key)
        index = self._index_for(ino, offset, length)
        if entry is not None:
            # Re-arm in place: the loser keeps its FIFO position.
            if entry.offset != offset or entry.end != end:
                index.place(key, offset, end)
            entry.offset = offset
            entry.end = end
            entry.event = waiter
            entry.woken = False
        else:
            queue[key] = _WaitEntry(offset, end, waiter, self._next_seq)
            self._next_seq += 1
            index.place(key, offset, end)

    def waiters(self, ino: int) -> int:
        """Number of waiters currently parked (armed) on *ino*."""
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        return sum(1 for entry in queue.values() if not entry.woken)

    def _discard_waiter(self, ino: int, owner: object) -> None:
        """Drop *owner*'s entry on *ino* (called on lock acquisition)."""
        queue = self._waiters.get(ino)
        if queue and queue.pop(owner, None) is not None:
            index = self._index.get(ino)
            if index is not None:
                index.remove(owner)
            if not queue:
                del self._waiters[ino]
                self._index.pop(ino, None)

    def _wake(self, ino: int, ranges: List[Tuple[int, int]]) -> int:
        """Wake the armed waiters on *ino* that overlap a released range
        (unranged waiters always), in FIFO order; returns the count.

        Entries stay queued (one-shot, positional) — the owner either
        acquires (entry discarded) or re-arms. Only owners in buckets
        touched by *ranges* (plus wildcards) are considered, sorted back
        into queue-sequence order before the exact overlap check — the
        same waiters wake in the same order as a full scan.
        """
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        index = self._index.get(ino)
        if index is not None and len(index.placed) == len(queue):
            entries = [queue[owner] for owner in index.candidates(ranges)
                       if owner in queue]
            entries.sort(key=lambda e: e.seq)
        else:
            entries = list(queue.values())
        woken = 0
        for entry in entries:
            if entry.woken:
                continue
            if getattr(entry.event, "cancelled", False):
                # The waiter abandoned the wait (timer-style cancel);
                # succeed() on it would raise. Retire the entry instead.
                entry.woken = True
                continue
            if entry.offset is not None:
                for lo, hi in ranges:
                    if entry.offset < hi and lo < entry.end:
                        break
                else:
                    continue
            entry.woken = True
            woken += 1
            entry.event.succeed()
        return woken

    def _wake_head(self, ino: int) -> int:
        """Wake only the first armed waiter (mutex release fast path)."""
        queue = self._waiters.get(ino)
        if not queue:
            return 0
        for entry in queue.values():
            if entry.woken:
                continue
            if getattr(entry.event, "cancelled", False):
                entry.woken = True  # abandoned wait: retire, try the next
                continue
            entry.woken = True
            entry.event.succeed()
            return 1
        return 0

    def _wake_all(self) -> None:
        """Wake every parked waiter on every inode (crash reset path)."""
        waiters, self._waiters = self._waiters, {}
        self._index = {}
        for queue in waiters.values():
            for entry in queue.values():
                if entry.woken or getattr(entry.event, "cancelled", False):
                    continue
                entry.event.succeed()


class RangeLockTable(_WaiterMixin):
    """Byte-range write locks per file (inode number)."""

    __slots__ = ("_writes",)

    def __init__(self):
        super().__init__()
        self._writes: Dict[int, List[Tuple[int, int, object]]] = {}

    def try_lock_write(self, ino: int, offset: int, length: int,
                       owner: object) -> bool:
        """Acquire a write lock on ``[offset, offset+length)``; False on conflict.

        Per §4.3, concurrent writes proceed "without any limitation if the
        byte ranges do not conflict".
        """
        if offset < 0 or length < 0:
            raise FSError(f"invalid lock range: {offset}+{length}")
        end = offset + length
        held = self._writes.get(ino, [])
        for o, e, _owner in held:
            if offset < e and o < end:
                return False
        self._writes.setdefault(ino, []).append((offset, end, owner))
        if self._waiters:
            self._discard_waiter(ino, owner)
        return True

    def unlock_write(self, ino: int, owner: object) -> int:
        """Release all write locks held by *owner* on *ino*; returns count.

        Releasing wakes the waiters parked on *ino* whose ranges overlap
        a released range.
        """
        held = self._writes.get(ino)
        if not held:
            return 0
        if not self._waiters.get(ino):
            # Nobody parked on this inode: drop the owner's locks without
            # collecting the freed ranges (the wake would be a no-op).
            kept = [t for t in held if t[2] is not owner]
            if kept:
                self._writes[ino] = kept
            else:
                self._writes.pop(ino, None)
            return len(held) - len(kept)
        kept = []
        freed: List[Tuple[int, int]] = []
        for o, e, w in held:
            if w is owner:
                freed.append((o, e))
            else:
                kept.append((o, e, w))
        if kept:
            self._writes[ino] = kept
        else:
            self._writes.pop(ino, None)
        if freed:
            self._wake(ino, freed)
        return len(freed)

    def write_locks_held(self, ino: int) -> int:
        """Number of write locks currently held on *ino*."""
        return len(self._writes.get(ino, []))

    def reset(self) -> None:
        """Drop every lock and wake every waiter (server crash path).

        Woken waiters retry their acquisition; workers on a crashed
        server observe the crash epoch and abandon the request instead,
        so nobody is left parked forever on a lock that will never be
        released.
        """
        self._writes.clear()
        self._wake_all()


class MetadataLockTable(_WaiterMixin):
    """Per-inode mutex for metadata updates (§4.3)."""

    __slots__ = ("_held",)

    def __init__(self):
        super().__init__()
        self._held: Dict[int, object] = {}

    def try_lock(self, ino: int, owner: object) -> bool:
        """Acquire the inode's metadata mutex; False if another owner holds it."""
        current = self._held.get(ino)
        if current is None:
            self._held[ino] = owner
            if self._waiters:
                self._discard_waiter(ino, owner)
            return True
        return current is owner  # re-entrant for the same owner

    def unlock(self, ino: int, owner: object) -> None:
        """Release the mutex (must be the owner) and wake the head waiter.

        A mutex has exactly one next holder, and the head
        deterministically wins the retry, so waking the rest would be a
        no-op.
        """
        if self._held.get(ino) is not owner:
            raise FSError(f"unlocking metadata lock not held by owner: ino={ino}")
        del self._held[ino]
        self._wake_head(ino)

    def unlock_if_held(self, ino: int, owner: object) -> bool:
        """Release the mutex only if *owner* holds it; True if released.

        Crash-tolerant variant of :meth:`unlock`: after a server crash
        wipes the table, the releasing worker may no longer be the
        recorded owner — that is not an error on this path.
        """
        if self._held.get(ino) is not owner:
            return False
        del self._held[ino]
        self._wake_head(ino)
        return True

    def reset(self) -> None:
        """Drop every mutex and wake every waiter (server crash path)."""
        self._held.clear()
        self._wake_all()

    def locked(self, ino: int) -> bool:
        """True if *ino*'s metadata mutex is held."""
        return ino in self._held

    def holders(self) -> Set[int]:
        """The inode numbers currently locked."""
        return set(self._held)
