"""Frozen exact reference paths for the production fast paths.

Every fast path in ``src/`` is the only production path of its
mechanism (DESIGN.md §16). The straightforward implementation each one
must stay bit-identical to lives here, frozen, for the equivalence
tests only. :func:`exact` swaps production methods for these twins for
the duration of a ``with`` block:

=====================  ====================================================
name                   exact twin
=====================  ====================================================
``cancel``             ``Event.cancel`` is a no-op: every timer fires
``sampled_dequeue``    opportunity-fair draws never use the Fenwick sampler
``share_cache``        ``Policy.shares`` rebuilds Eq. 1 from scratch
``gift_quiescence``    quiescent GIFT boundaries run the full allocation
``path_cache``         path resolution never consults the cache
``stripe_memo``        stripe layouts are recomputed on every call
``waiter_index``       lock wakeups scan the whole waiter queue
``range_wake``         every release wakes every waiter on the inode
``sync_hash_skip``     λ-sync pushes merge even on an unchanged hash
``sync_delta``         full scatter pushes and full gather replies
``sync_gather_delta``  full gather replies
=====================  ====================================================
"""

import contextlib

from repro.bb import controller as ctlmod
from repro.bb.controller import Controller
from repro.core.baselines.gift import GiftScheduler
from repro.core.matrix import chain_shares
from repro.core.policy import Policy
from repro.core.scheduler import StatisticalTokenScheduler
from repro.errors import SimulationError
from repro.fs import path as pathmod
from repro.fs.filesystem import ThemisFS
from repro.fs.locking import MetadataLockTable, _WaiterMixin
from repro.fs.striping import ErasureSpec, StripeSpec
from repro.sim.process import Event

__all__ = ["ORACLES", "exact", "exact_unless"]


# ------------------------------------------------------------------- sim
def _cancel_noop(self):
    """Cancellation off: the event stays queued and fires as before."""
    if self.triggered or self._processed:
        raise SimulationError(f"cannot cancel {self!r}: already triggered")
    return False


# ------------------------------------------------------------------ core
def _exact_choice(self, u):
    return self._restricted_assignment().draw(u)


def _chain_shares(self, jobs):
    return chain_shares(self.levels, list(jobs))


def _allocate_every_boundary(self, now):
    self._allocate(now)


# -------------------------------------------------------------------- fs
def _find_uncached(self, path):
    norm = pathmod.normalize(path)
    node = self._meta_node(norm)
    ino = node.paths.get(norm)
    return node.inodes.get(ino) if ino is not None else None


def _no_memo(self, kind):
    return {}


def _wake_scan(self, ino, ranges):
    """Wake armed waiters in FIFO order by a full queue scan; with
    *ranges* ``None`` every armed waiter wakes."""
    queue = self._waiters.get(ino)
    if not queue:
        return 0
    woken = 0
    for entry in list(queue.values()):
        if entry.woken:
            continue
        if getattr(entry.event, "cancelled", False):
            entry.woken = True
            continue
        if ranges is not None and entry.offset is not None:
            for lo, hi in ranges:
                if entry.offset < hi and lo < entry.end:
                    break
            else:
                continue
        entry.woken = True
        woken += 1
        entry.event.succeed()
    return woken


def _wake_every(self, ino, ranges=None):
    return _wake_scan(self, ino, None)


# ---------------------------------------------------------------- λ-sync
def _apply_tree_push_merging(self, rpc):
    """``Controller._apply_tree_push`` without the content-hash skip."""
    processing = self.server.config.sync_processing_time
    if processing > 0:
        yield self.server.engine.timeout(processing)
    if self.server.crashed:
        return
    body = rpc.body
    epoch = body["epoch"]
    self.sync_rounds += 1
    if body.get("delta") and body["basis"] != self._sync_basis:
        self.basis_mismatches += 1
        rpc.reply({"ok": True}, size=ctlmod._PROBE_WIRE_BYTES)
        self._needs_full_sync = True
        return
    if not body.get("delta") and self._needs_full_sync:
        self._needs_full_sync = False
        self.full_resyncs += 1
    digest = body["hash"]
    self.server.monitor.table.merge(body["entries"])
    for host, jobs in body["presence"].items():
        if host != self.server.name:
            self.presence[host] = set(jobs)
    self._last_push_hash = digest
    self.refresh_tokens()
    yield from self._forward_tree_push(epoch, digest)
    if self.server.crashed:
        return
    rpc.reply({"ok": True}, size=ctlmod._PROBE_WIRE_BYTES)


def _full_push(self, entries, presence, digest, epoch, edge):
    push = {"kind": "push", "epoch": epoch, "host": self.server.name,
            "entries": entries, "presence": presence, "hash": digest}
    self.full_pushes += 1
    return push, None


def _full_gather_reply(self, requester, have, entries):
    full_map = {e["info"].job_id: e["last_heartbeat"] for e in entries}
    size = ctlmod._ENTRY_WIRE_BYTES * max(1, len(entries))
    self._gather_seq += 1
    token = (self._sync_basis, self._gather_seq)
    self.gather_full_replies += 1
    self._gather_sent[requester] = (token, full_map)
    return {"entries": entries, "gather_basis": token}, size, None


#: name -> [(owner, attribute, exact twin)]. ``range_wake`` follows
#: ``waiter_index`` so that wake-all wins when both are selected.
ORACLES = {
    "cancel": [(Event, "cancel", _cancel_noop)],
    "sampled_dequeue": [(StatisticalTokenScheduler, "_sampled_choice",
                         _exact_choice)],
    "share_cache": [(Policy, "shares", _chain_shares)],
    "gift_quiescence": [(GiftScheduler, "_skip_quiescent",
                         _allocate_every_boundary)],
    "path_cache": [(ThemisFS, "_find", _find_uncached)],
    "stripe_memo": [(StripeSpec, "_memo", _no_memo),
                    (ErasureSpec, "_memo", _no_memo)],
    "waiter_index": [(_WaiterMixin, "_wake", _wake_scan)],
    "range_wake": [(_WaiterMixin, "_wake", _wake_every),
                   (MetadataLockTable, "_wake_head", _wake_every)],
    "sync_hash_skip": [(Controller, "_apply_tree_push",
                        _apply_tree_push_merging)],
    "sync_delta": [(Controller, "_encode_push", _full_push),
                   (Controller, "_encode_gather_reply", _full_gather_reply)],
    "sync_gather_delta": [(Controller, "_encode_gather_reply",
                           _full_gather_reply)],
}


@contextlib.contextmanager
def exact(*names):
    """Run the block on the exact twins of *names* (default: all)."""
    unknown = set(names) - set(ORACLES)
    if unknown:
        raise KeyError(f"unknown oracle(s): {sorted(unknown)}")
    chosen = [name for name in ORACLES if not names or name in names]
    saved = []
    try:
        for name in chosen:
            for owner, attr, twin in ORACLES[name]:
                saved.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, twin)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)  # inherited: uncover the base's
            else:
                setattr(owner, attr, original)


def exact_unless(fast, *names):
    """The production paths when *fast*, else :func:`exact` over *names*."""
    return contextlib.nullcontext() if fast else exact(*names)
