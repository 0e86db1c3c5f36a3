"""Tests for §4.3 concurrency rules: range write locks + metadata mutexes."""

import pytest

from repro.errors import FSError
from repro.fs import MetadataLockTable, RangeLockTable

from ..oracles import exact_unless


class TestRangeLocks:
    def test_disjoint_writes_proceed(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert t.try_lock_write(1, 100, 100, "w2")

    def test_overlapping_writes_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert not t.try_lock_write(1, 50, 100, "w2")

    def test_different_files_never_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert t.try_lock_write(2, 0, 100, "w2")

    def test_unlock_releases_ranges(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 100, "w1")
        assert t.unlock_write(1, "w1") == 1
        assert t.try_lock_write(1, 0, 100, "w2")

    def test_unlock_only_owner_ranges(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "w1")
        t.try_lock_write(1, 10, 10, "w2")
        assert t.unlock_write(1, "w1") == 1
        assert t.write_locks_held(1) == 1

    def test_unlock_without_locks_is_zero(self):
        t = RangeLockTable()
        assert t.unlock_write(5, "x") == 0

    def test_adjacent_ranges_do_not_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 10, "a")
        assert t.try_lock_write(1, 10, 10, "b")

    def test_invalid_range_rejected(self):
        t = RangeLockTable()
        with pytest.raises(FSError):
            t.try_lock_write(1, -1, 10, "a")


class _Waiter:
    """Stand-in for a sim Event: records wake order."""

    log = None  # shared per-test list, set by the test

    def __init__(self, name):
        self.name = name
        self.woken = False

    def succeed(self):
        self.woken = True
        _Waiter.log.append(self.name)


class TestWaiterQueues:
    """Event-driven lock wakeups: releases wake parked waiters (FIFO)."""

    def setup_method(self):
        _Waiter.log = []

    def test_release_wakes_all_waiters_in_fifo_order(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 100, "holder")
        a, b = _Waiter("a"), _Waiter("b")
        t.wait(1, a)
        t.wait(1, b)
        assert t.waiters(1) == 2
        t.unlock_write(1, "holder")
        assert _Waiter.log == ["a", "b"]
        assert t.waiters(1) == 0

    def test_registration_is_one_shot(self):
        # A woken waiter is gone; the next release must not touch it.
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h1")
        w = _Waiter("w")
        t.wait(1, w)
        t.unlock_write(1, "h1")
        t.try_lock_write(1, 0, 10, "h2")
        t.unlock_write(1, "h2")
        assert _Waiter.log == ["w"]  # woken exactly once

    def test_no_wake_without_release(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h")
        t.wait(1, _Waiter("w"))
        # unlock on an inode with no held locks releases nothing.
        assert t.unlock_write(1, "someone-else") == 0
        assert _Waiter.log == []

    def test_wakeups_scoped_to_inode(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h1")
        t.try_lock_write(2, 0, 10, "h2")
        t.wait(1, _Waiter("on-1"))
        t.wait(2, _Waiter("on-2"))
        t.unlock_write(2, "h2")
        assert _Waiter.log == ["on-2"]
        assert t.waiters(1) == 1

    def test_metadata_unlock_wakes_waiters(self):
        t = MetadataLockTable()
        t.try_lock(7, "owner")
        w = _Waiter("m")
        t.wait(7, w)
        t.unlock(7, "owner")
        assert w.woken
        assert t.try_lock(7, "w")  # lock is free for the woken waiter


class TestWaiterIndex:
    """Bucket-indexed wake candidate selection must be trace-neutral:
    the same waiters wake in the same FIFO order as the full scan."""

    KB = 1024

    def setup_method(self):
        _Waiter.log = []

    def _contended_scenario(self):
        """Holder on [0, 8K); ranged, unranged, and wide waiters parked."""
        t = RangeLockTable()
        t.try_lock_write(1, 0, 8 * self.KB, "holder")
        t.wait(1, _Waiter("in-range"), offset=4 * self.KB,
               length=self.KB, owner="in-range")
        t.wait(1, _Waiter("out-of-range"), offset=64 * self.KB,
               length=self.KB, owner="out-of-range")
        t.wait(1, _Waiter("unranged"), owner="unranged")
        # Spans far more than _INDEX_SPAN_CAP buckets: wildcard entry.
        t.wait(1, _Waiter("wide"), offset=0, length=1 << 22, owner="wide")
        return t

    def _run_release(self, indexed):
        with exact_unless(indexed, "waiter_index"):
            _Waiter.log = []
            t = self._contended_scenario()
            t.unlock_write(1, "holder")
            return list(_Waiter.log)

    def test_index_on_off_produce_identical_wake_trace(self):
        # Overlapping + unranged + wildcard wake, in arrival order; the
        # disjoint waiter stays parked — with or without the index.
        assert self._run_release(True) == \
            self._run_release(False) == ["in-range", "unranged", "wide"]

    def test_rearm_moves_entry_between_buckets(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, self.KB, "holder")
        w = _Waiter("w")
        t.wait(1, w, offset=512 * self.KB, length=self.KB, owner="w")
        # Re-arm onto the held range: the index must follow the move.
        t.wait(1, w, offset=0, length=self.KB, owner="w")
        t.unlock_write(1, "holder")
        assert _Waiter.log == ["w"]

    def test_acquisition_removes_entry_from_index(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, self.KB, "holder")
        t.wait(1, _Waiter("w"), offset=0, length=self.KB, owner="w")
        assert t.try_lock_write(1, 4 * self.KB, self.KB, "w")
        assert t.waiters(1) == 0
        t.unlock_write(1, "holder")
        assert _Waiter.log == []  # discarded entry never wakes

    def test_reset_clears_index_with_queues(self):
        t = self._contended_scenario()
        t.reset()
        assert t._index == {} and t._waiters == {}
        # The table keeps working after the crash path.
        t.try_lock_write(1, 0, self.KB, "h2")
        t.wait(1, _Waiter("again"), offset=0, length=self.KB, owner="again")
        _Waiter.log = []
        t.unlock_write(1, "h2")
        assert _Waiter.log == ["again"]


class TestMetadataLocks:
    def test_exclusive(self):
        t = MetadataLockTable()
        assert t.try_lock(1, "a")
        assert not t.try_lock(1, "b")

    def test_reentrant_for_same_owner(self):
        t = MetadataLockTable()
        assert t.try_lock(1, "a")
        assert t.try_lock(1, "a")

    def test_unlock(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        t.unlock(1, "a")
        assert not t.locked(1)
        assert t.try_lock(1, "b")

    def test_unlock_wrong_owner_raises(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        with pytest.raises(FSError):
            t.unlock(1, "b")

    def test_holders(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        t.try_lock(2, "b")
        assert t.holders() == {1, 2}
