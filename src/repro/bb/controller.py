"""The server controller (§4.1, §3.1).

"The controller synchronizes with other servers to get the global status
of active jobs, and allocates a number of tokens according to the fair
sharing policy."

Token allocation: whenever the job table's active set changes (new job,
expiry, merge), the controller recomputes the statistical token
assignment. With a single server — or before any peer information has
arrived — shares come straight from the policy over the local table.
Once λ-sync has exchanged tables *and placement* (which jobs each server
hosts), every server solves the same placement-constrained assignment
(:func:`repro.core.fairness.placement_shares`, the Fig. 5 adjustment)
and installs its own row, so the cluster-wide split matches the global
policy even when files live on disjoint servers.

λ-delayed fairness: every ``sync_interval`` seconds the servers
synchronise over the server↔server UCP workers (the all-gather of
§3.1) in one gather→merge→scatter round per epoch, run over a
deterministic aggregation tree:

- **shape**: each epoch's members are rotated by epoch index over the
  sorted member names, so the root changes every epoch and no server is
  a single point of coordination. ``ServerConfig.sync_tree_fanout`` sets
  the branching factor; 0 (the default) is the one-level tree, where
  every peer is a direct child of the root (``2·(N-1)`` request/response
  pairs per epoch), and k >= 2 lays the members out as a complete k-ary
  tree, bounding per-node fan-in by k.
- **gather**: the root pulls its children; a child first pulls *its*
  children (in member-name order), merges its subtree's tables, and
  replies the aggregate with the placement (which jobs each server
  hosts) its subtree reported.
- **scatter**: the merged table and placement map walk the same edges
  top-down. Each node forwards to exactly the children that answered
  its gather and acks its parent only once its forwards complete. The
  push carries a content hash; a node whose previous push had the same
  hash skips the merge and token refresh (trace-neutral: the wire
  traffic and simulated timing are identical).

A crash, restart or partition on one edge degrades (and later
full-table-resyncs) only the subtree hanging off that edge.

Delta encoding runs in both directions: scatter pushes omit entries the
receiver echoed with an equal-or-newer heartbeat, and gather replies
omit entries the requester has confirmed applying from this responder
before — the per-peer basis is an opaque token minted with each reply
and echoed back in the next probe, so a lost reply or a crash on either
side falls back to a full snapshot (see DESIGN.md §13). Omitted gather
entries still ship a compact ``(job_id, heartbeat)`` summary so the
requester's scatter deltas keep an exact picture of what the responder
holds.
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import (TYPE_CHECKING, Deque, Dict, List, Optional, Set,
                    Tuple)

from ..core.fairness import placement_shares
from ..errors import RpcTimeout
from ..ucx import Address, RpcClient

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["Controller", "tree_order", "tree_children", "subtree_height"]

#: Estimated wire bytes per job-status-table entry (id, uid, gid, size,
#: priority, status, heartbeat stamp).
_ENTRY_WIRE_BYTES = 64

#: Wire bytes of a pull probe / push acknowledgement (headers only).
_PROBE_WIRE_BYTES = 16

#: Wire bytes of one omitted-entry summary in a delta-encoded gather
#: reply: the job id plus its heartbeat stamp, no status fields.
_SUMMARY_WIRE_BYTES = 12

def _content_hash(entries: List[dict], presence: Dict[str, List[int]]) -> str:
    """Deterministic digest of a merged table + placement map.

    Canonical order (entries by job id, hosts sorted) and exact float
    ``repr`` make the digest a function of content only — two pushes
    hash equal iff applying them is the same no-op.
    """
    h = blake2b(digest_size=16)
    for entry in sorted(entries, key=lambda e: e["info"].job_id):
        info = entry["info"]
        h.update(repr((info.job_id, info.user, info.group, info.size,
                       info.priority, entry["last_heartbeat"],
                       entry["active"])).encode())
    for host in sorted(presence):
        h.update(repr((host, sorted(presence[host]))).encode())
    return h.hexdigest()


# ------------------------------------------------------------- tree shape
def tree_order(members: List[str], epoch: int) -> List[str]:
    """The epoch's member order: root first, rotated by epoch index.

    Rotation (rather than re-sorting under a different key) keeps the
    root schedule independent of the fanout:
    ``tree_order(members, e)[0] == members[e % N]``.
    """
    root = epoch % len(members)
    return members[root:] + members[:root]


def tree_children(order_len: int, fanout: int, pos: int) -> List[int]:
    """Positions of *pos*'s children in a complete k-ary tree laid out
    breadth-first over ``order_len`` members."""
    lo = fanout * pos + 1
    return list(range(lo, min(lo + fanout, order_len)))


def subtree_height(order_len: int, fanout: int, pos: int) -> int:
    """Edge-height of the subtree rooted at *pos* (0 for a leaf).

    Used to scale per-edge RPC timeouts: a pull to a child cannot
    complete before the child's whole subtree has answered, so the
    budget grows linearly with the subtree's depth.
    """
    height = 0
    lo = hi = pos
    while True:
        lo = fanout * lo + 1
        if lo >= order_len:
            return height
        hi = min(fanout * hi + fanout, order_len - 1)
        height += 1


class Controller:
    """Token allocation plus λ-delayed table synchronisation."""

    def __init__(self, server: "Server", sync_interval: float):
        self.server = server
        self.sync_interval = float(sync_interval)
        # Peer wiring is lazy: addresses arrive via connect_peers, RPC
        # clients (and their UCP workers) materialise on first use. At
        # N=1024 eager all-to-all wiring would mint ~N² workers
        # cluster-wide; a k-ary tree only ever touches O(k) edges per
        # node per epoch.
        # Worker creation has no simulation side effects, so laziness
        # is trace-neutral.
        self._peer_addrs: Dict[str, Address] = {}
        self._peers: Dict[str, RpcClient] = {}
        #: sorted member names, self included (the epoch tree's input).
        self._members: List[str] = [server.name]
        #: which jobs each server hosts, learned via sync (self included).
        self.presence: Dict[str, Set[int]] = {}
        self._table_version_seen = -1
        self._presence_seen: Dict[str, frozenset] = {}
        self.sync_rounds = 0
        #: rounds completed on a partial table (some peer timed out).
        self.degraded_rounds = 0
        #: epochs this controller drove as the rotating root.
        self.coordinated_rounds = 0
        #: pushes applied as a no-op via the content-hash short circuit.
        self.push_hash_skips = 0
        self._last_push_hash: Optional[str] = None
        # Delta-encoding state. The basis token identifies one
        # uninterrupted lifetime of this controller's sync state: it is
        # echoed through pull replies into the matching push, and a
        # mismatch at apply time proves the state the delta was computed
        # against is gone (crash/restart in between) — the push is then
        # discarded and a full-table resync requested instead.
        self._sync_basis = 0
        self._needs_full_sync = False
        #: scatter pushes sent delta-encoded vs. as the full table.
        self.delta_pushes = 0
        self.full_pushes = 0
        #: delta pushes discarded because the receiver restarted between
        #: its pull reply and the push's arrival.
        self.basis_mismatches = 0
        #: full-table pushes applied while a resync was pending.
        self.full_resyncs = 0
        # Gather-direction delta state: per requester, the token and
        # content map of the last reply we sent it; per responder, the
        # token of the last reply we applied from it. Tokens carry the
        # minting side's _sync_basis so a crash on either end can never
        # alias a stale confirmation.
        self._gather_sent: Dict[str, Tuple[Tuple[int, int],
                                           Dict[int, float]]] = {}
        self._have_basis: Dict[str, Tuple[int, int]] = {}
        self._gather_seq = 0
        #: gather replies sent delta-encoded vs. as the full snapshot.
        self.gather_delta_replies = 0
        self.gather_full_replies = 0
        #: whole merge rounds skipped because every responder proved
        #: (by content hash) it already holds the merged state.
        self.quiescent_skips = 0
        #: probe-sized "same" replies sent instead of a snapshot.
        self.quiescent_replies = 0
        #: tree pushes forwarded as full tables because the same-epoch
        #: gather basis for that child was lost (subtree resync).
        self.subtree_full_pushes = 0
        #: gather bytes this node absorbed as the epoch's root (the
        #: hotspot metric) vs. as an interior relay.
        self.coord_gather_payload_bytes = 0
        self.relay_gather_payload_bytes = 0
        #: peak number of gather replies awaited at once (one level:
        #: N−1; k-ary: bounded by the branching factor).
        self.max_gather_fanin = 0
        #: (epoch, merged-table digest) per round driven from here.
        self.digest_log: Deque[Tuple[int, str]] = deque(maxlen=4096)
        # Per-epoch gather bookkeeping of an interior tree node:
        # child name -> (edge timeout, (seen map, child basis, child
        # wants full)), consumed when the matching push arrives to forward down.
        self._tree_gather: Dict[int, dict] = {}
        self._sync_process = None

    def reset(self) -> None:
        """Forget peer-derived state (server crash): presence knowledge,
        the refresh memo, and the push-hash memo restart cold. Peer RPC
        clients stay wired — the endpoints are addresses, not
        connections, and the λ loop resumes using them after restart."""
        self.presence.clear()
        self._table_version_seen = -1
        self._presence_seen = {}
        self._last_push_hash = None
        # Invalidate any in-flight delta computed against the old state
        # and ask the next parent for the full table.
        self._sync_basis += 1
        self._needs_full_sync = True
        # Both gather-delta ledgers die with the state they describe:
        # replies we sent (peers may still echo their tokens — the
        # basis component no longer matches) and confirmations we hold.
        self._gather_sent.clear()
        self._have_basis.clear()
        self._tree_gather.clear()

    # ---------------------------------------------------------------- tokens
    def refresh_tokens(self, force: bool = False) -> bool:
        """Recompute the scheduler's tokens if anything relevant changed."""
        server = self.server
        table = server.monitor.table
        self.presence[server.name] = server.monitor.active_local_jobs()
        presence_now = {name: frozenset(jobs)
                        for name, jobs in self.presence.items()}
        if (not force and table.version == self._table_version_seen
                and presence_now == self._presence_seen):
            return False
        self._table_version_seen = table.version
        self._presence_seen = presence_now

        active = table.active_jobs()
        now = server.engine.now
        informative_peers = [name for name, jobs in self.presence.items()
                             if name != server.name and jobs]
        if not informative_peers:
            server.scheduler.on_jobs_changed(active, now)
            return True
        # Placement-aware assignment (Fig. 5): global policy shares,
        # projected onto each server's hosted-job set.
        global_shares = server.policy_shares(active)
        if not global_shares:
            server.scheduler.on_jobs_changed(active, now)
            return True
        rows = placement_shares(
            {name: set(jobs) for name, jobs in presence_now.items()
             if jobs}, global_shares)
        row = rows.get(server.name)
        if row:
            server.scheduler.set_assignment(row, now)
        else:
            server.scheduler.on_jobs_changed(active, now)
        return True

    # ----------------------------------------------------------------- peers
    def connect_peers(self, peers: Dict[str, Address]) -> None:
        """Record the peer sync addresses and start the λ loop. RPC
        clients are created lazily, on the first edge that uses them."""
        engine = self.server.engine
        for name, address in peers.items():
            if name == self.server.name:
                continue
            self._peer_addrs[name] = address
        self._members = sorted([self.server.name, *self._peer_addrs])
        if self._peer_addrs and self.sync_interval > 0 \
                and self._sync_process is None:
            self._sync_process = engine.process(self._sync_loop())

    def _peer(self, name: str) -> RpcClient:
        client = self._peers.get(name)
        if client is None:
            worker = self.server.ctx.create_worker(f"ss-to-{name}")
            client = RpcClient(worker, self._peer_addrs[name])
            self._peers[name] = client
        return client

    @property
    def peer_names(self) -> List[str]:
        return sorted(self._peer_addrs)

    # ------------------------------------------------------------------ sync
    def _sync_loop(self):
        engine = self.server.engine
        epoch = 1
        while True:
            # Epoch-aligned cadence: every server wakes at the same
            # absolute times k·λ, so the epoch index — and with it the
            # rotating root — agrees cluster-wide even when individual
            # rounds overrun.
            target = epoch * self.sync_interval
            if target > engine.now:
                yield engine.timeout(target - engine.now)
            if not self.server.crashed:
                yield from self._tree_round(epoch)
            # Skip past any epochs the round overran (strictly
            # increasing, so the loop can never spin in place).
            epoch = max(epoch + 1, int(engine.now / self.sync_interval) + 1)

    def _children(self, epoch: int) -> List[Tuple[str, Optional[float]]]:
        """Our tree edges in *epoch*: ``(child, rpc_timeout)`` pairs in
        member-name order.

        Each edge's RPC budget scales with the child's subtree depth: a
        pull cannot complete before the child's whole subtree answered.
        """
        order = tree_order(self._members, epoch)
        n = len(order)
        fanout = self.server.config.sync_tree_fanout or max(1, n - 1)
        kids = sorted(tree_children(n, fanout, order.index(self.server.name)),
                      key=order.__getitem__)
        t = self.server.config.sync_timeout
        return [(order[cp], t * (1.0 + subtree_height(n, fanout, cp))
                 if t > 0 else None) for cp in kids]

    def _tree_round(self, epoch: int):
        """One gather→merge→scatter epoch, if we are its rotating root.

        Interior nodes answer the gather through :meth:`_answer_tree_pull`
        and forward the scatter through :meth:`_apply_tree_push`; every
        fan-out reuses :meth:`_gather` and :meth:`_scatter`.
        """
        members = self._members
        if members[epoch % len(members)] != self.server.name:
            return
        self.coordinated_rounds += 1
        # A silent child costs at most its edge timeout and the round
        # proceeds on the partial table (degraded mode).
        qhash, pre_map = self._quiescence_state()
        gather, _, degraded, all_same = yield from self._gather(
            epoch, self._children(epoch), qhash, pre_map, root=True)
        if qhash is not None and all_same:
            # Every subtree proved (by content hash) it already holds
            # exactly the state a merge+scatter would reproduce: skip
            # the whole round. Merged content is by definition qhash.
            self._quiescent_finish(epoch, qhash, degraded)
            return
        entries, presence = self._merged_view()
        digest = _content_hash(entries, presence)
        self.digest_log.append((epoch, digest))
        lost_acks = yield from self._scatter(epoch, gather, entries,
                                             presence, digest)
        if degraded or lost_acks:
            self._note_degraded()
        self._last_push_hash = digest
        self.sync_rounds += 1
        self.refresh_tokens()

    def _gather(self, epoch: int, children, qhash, pre_map, root: bool):
        """Pull every child's subtree aggregate and merge it in.

        Returns ``(gather, subtree, degraded, all_same)``: per answering
        child its edge timeout and the basis of its scatter delta
        ``(seen, basis, wants_full)``, the placement its subtree
        reported, whether any child stayed silent, and whether every
        answer was a quiescent "same".
        """
        self.max_gather_fanin = max(self.max_gather_fanin, len(children))
        pulls = []
        for name, timeout in children:
            probe = {"kind": "pull", "epoch": epoch,
                     "host": self.server.name,
                     "have": self._have_basis.get(name), "qhash": qhash}
            pulls.append((name, timeout, self._peer(name).call(
                "sync", probe, size=_PROBE_WIRE_BYTES, timeout=timeout)))
        gather: Dict[str, tuple] = {}
        subtree: Dict[str, List[int]] = {}
        degraded = False
        all_same = True
        for name, timeout, call in pulls:
            try:
                resp = yield call
            except RpcTimeout:
                degraded = True
                continue
            if resp.get("same"):
                wire = _PROBE_WIRE_BYTES
                gather[name] = (timeout, (pre_map, resp["basis"], False))
            else:
                all_same = False
                seen, wire = self._harvest_reply(name, resp)
                subtree.update(resp["presence"])
                gather[name] = (timeout, (seen, resp["basis"], resp["full"]))
            if root:
                self.coord_gather_payload_bytes += wire
            else:
                self.relay_gather_payload_bytes += wire
        return gather, subtree, degraded, all_same

    def _scatter(self, epoch: int, gather, entries, presence, digest: str):
        """Push the merged state down the edges in *gather* (child ->
        ``(timeout, delta basis)``); True if an ack was lost.

        A child that never answered this epoch's pull (crash/partition
        on the edge) is not in *gather*: it holds no basis for a delta
        and a full push would race its recovery, so it is skipped — a
        later epoch's reshaped tree resyncs it. With delta encoding the
        nominal wire size — and so all simulated timing — still covers
        the full table; the saving shows up only in the fabric's payload
        accounting.
        """
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        acks = []
        for name, (timeout, edge) in gather.items():
            push, wire = self._encode_push(entries, presence, digest,
                                           epoch, edge)
            acks.append(self._peer(name).call(
                "sync", push, size=size, timeout=timeout,
                payload_bytes=wire))
        lost = False
        for call in acks:
            try:
                yield call
            except RpcTimeout:
                lost = True
        return lost

    def _merged_view(self):
        """``(entries, presence)``: our table and placement map as a
        push carries them."""
        monitor = self.server.monitor
        self.presence[self.server.name] = monitor.active_local_jobs()
        presence = {host: sorted(jobs)
                    for host, jobs in self.presence.items()}
        return monitor.table.snapshot(), presence

    def _note_degraded(self) -> None:
        self.degraded_rounds += 1
        if self.server.fault_stats is not None:
            self.server.fault_stats.degraded_sync_rounds += 1

    def _quiescence_state(self):
        """``(qhash, pre_map)`` when this round is allowed to quiesce.

        A round may quiesce only if our own current content still
        hashes to the last merged digest we scattered/applied — any
        local traffic since then voids the guard and the round runs in
        full. ``pre_map`` doubles as the exact ``seen`` map for scatter
        deltas to peers that answer "same".
        """
        if not self.server.config.sync_quiescence_skip:
            return None, None
        if self._last_push_hash is None or self._needs_full_sync:
            return None, None
        entries = self.server.monitor.table.snapshot()
        view = {h: sorted(j) for h, j in self.presence.items()}
        view[self.server.name] = sorted(
            self.server.monitor.active_local_jobs())
        if _content_hash(entries, view) != self._last_push_hash:
            return None, None
        pre_map = {e["info"].job_id: e["last_heartbeat"] for e in entries}
        return self._last_push_hash, pre_map

    def _quiescent_match(self, qhash) -> bool:
        """Responder side of the quiescence guard: may we answer a
        probe carrying *qhash* with a probe-sized "same" instead of a
        snapshot? Only if our own content provably hashes to it."""
        if qhash is None or self._needs_full_sync:
            return False
        if self._last_push_hash != qhash:
            return False
        entries = self.server.monitor.table.snapshot()
        view = {h: sorted(j) for h, j in self.presence.items()}
        view[self.server.name] = sorted(
            self.server.monitor.active_local_jobs())
        return _content_hash(entries, view) == qhash

    def _quiescent_finish(self, epoch: int, qhash: str,
                          degraded: bool) -> None:
        """Close out a round whose merge+scatter was skipped."""
        self.quiescent_skips += 1
        self.digest_log.append((epoch, qhash))
        if degraded:
            self._note_degraded()
        self._last_push_hash = qhash
        self.sync_rounds += 1
        self.refresh_tokens()

    def _harvest_reply(self, name: str, resp: dict):
        """Merge one gather reply into our table and presence map.

        Returns ``(seen, wire)``: the exact content map the responder
        holds — delta entries plus the omitted-entry summaries, the
        basis for this responder's scatter delta — and the reply's
        effective wire bytes for the fan-in accounting (mirroring the
        payload_bytes the responder attached).
        """
        entries = resp["entries"]
        self.server.monitor.table.merge(entries)
        for host, jobs in resp["presence"].items():
            if host != self.server.name:
                self.presence[host] = set(jobs)
        seen = {e["info"].job_id: e["last_heartbeat"] for e in entries}
        if resp.get("gather_delta"):
            omitted = resp["omitted"]
            seen.update(omitted)
            wire = max(_PROBE_WIRE_BYTES,
                       _ENTRY_WIRE_BYTES * len(entries)
                       + _SUMMARY_WIRE_BYTES * len(omitted))
        else:
            wire = _ENTRY_WIRE_BYTES * max(1, len(entries))
        self._have_basis[name] = resp["gather_basis"]
        return seen, wire

    def _encode_gather_reply(self, requester, have, entries):
        """Build the entry part of a pull reply for *requester*.

        Returns ``(reply_fields, nominal_size, payload_bytes)``. The
        nominal size always covers the full snapshot (timing-neutral;
        the saving is reported through ``payload_bytes``). When the
        requester echoes the token of the last reply it applied from
        us, entries it provably holds — heartbeats only move forward,
        so a confirmed entry merges as a no-op forever after — are
        demoted to ``(job_id, heartbeat)`` summary pairs in
        ``omitted``.
        """
        full_map = {e["info"].job_id: e["last_heartbeat"] for e in entries}
        size = _ENTRY_WIRE_BYTES * max(1, len(entries))
        self._gather_seq += 1
        token = (self._sync_basis, self._gather_seq)
        stored = self._gather_sent.get(requester)
        wire = None
        if (have is not None and stored is not None
                and stored[0] == have
                and any(stored[1].get(e["info"].job_id, -1.0)
                        >= e["last_heartbeat"] for e in entries)):
            # Only take the delta form when it actually omits
            # something: a delta that re-ships every entry (all
            # heartbeats moved) costs the summary bookkeeping for
            # zero wire savings.
            base = stored[1]
            absent = float("-inf")
            delta = [e for e in entries
                     if base.get(e["info"].job_id,
                                 absent) < e["last_heartbeat"]]
            delta_ids = {e["info"].job_id for e in delta}
            omitted = {jid: hb for jid, hb in full_map.items()
                       if jid not in delta_ids}
            reply = {"entries": delta, "omitted": omitted,
                     "gather_delta": True, "gather_basis": token}
            wire = max(_PROBE_WIRE_BYTES,
                       _ENTRY_WIRE_BYTES * len(delta)
                       + _SUMMARY_WIRE_BYTES * len(omitted))
            self.gather_delta_replies += 1
        else:
            reply = {"entries": entries, "gather_basis": token}
            self.gather_full_replies += 1
        self._gather_sent[requester] = (token, full_map)
        return reply, size, wire

    def _encode_push(self, entries, presence, digest, epoch: int, edge):
        """The push body for one child, plus its effective wire bytes
        (``None`` = nominal).

        *edge* is the child's ``(seen, basis, wants_full)`` from this
        epoch's gather, or ``None`` when there is none to delta against.
        The delta keeps exactly the entries whose merge at the child
        would do something: the merge updates on strictly-newer
        heartbeats, so an entry the child reported with an equal-or-newer
        heartbeat is provably a no-op there (local heartbeats only move
        forward, so the proof survives the reply→push latency) and is
        omitted. The push's nominal ``size`` (and hence all simulated
        timing) still reflects the full table.
        """
        push = {"kind": "push", "epoch": epoch, "host": self.server.name,
                "entries": entries, "presence": presence, "hash": digest}
        if edge is None or edge[2]:
            self.full_pushes += 1
            return push, None
        seen, basis, _ = edge
        absent = float("-inf")
        delta = [e for e in entries
                 if seen.get(e["info"].job_id, absent) < e["last_heartbeat"]]
        push = dict(push, entries=delta, delta=True, basis=basis)
        self.delta_pushes += 1
        return push, _ENTRY_WIRE_BYTES * max(1, len(delta))

    def _answer_tree_pull(self, rpc):
        """A tree parent probed us: after the controller's processing
        time (serialisation cost, §5.6) gather our subtree, merge it,
        and reply the aggregate (delta-encoded against what the parent
        has confirmed from us). Leaves skip straight to the reply."""
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: the reply is lost
        body = rpc.body
        epoch = body["epoch"]
        qhash = body.get("qhash")
        quiet = self._quiescent_match(qhash)
        pre_map = None
        if quiet:
            pre_map = {e["info"].job_id: e["last_heartbeat"]
                       for e in self.server.monitor.table.snapshot()}
        gather, subtree, degraded, all_same = yield from self._gather(
            epoch, self._children(epoch), qhash if quiet else None,
            pre_map, root=False)
        if self.server.crashed:
            return
        # Remember this epoch's gather so the matching push can reuse
        # the same edges with exact per-child deltas.
        self._tree_gather[epoch] = gather
        for old in [e for e in self._tree_gather if e < epoch - 1]:
            del self._tree_gather[old]
        if degraded:
            self._note_degraded()

        if quiet and all_same:
            # Our content and every responding child's subtree hash to
            # the probe's digest: the aggregate is provably "no news".
            self.quiescent_replies += 1
            rpc.reply({"same": True, "basis": self._sync_basis},
                      size=_PROBE_WIRE_BYTES)
            return
        monitor = self.server.monitor
        reply, size, wire = self._encode_gather_reply(
            body["host"], body.get("have"), monitor.table.snapshot())
        # Placement only for our own subtree: our view of any other
        # host is older than what the parent hears from that host.
        presence = {self.server.name: sorted(monitor.active_local_jobs())}
        presence.update(subtree)
        reply.update(presence=presence, basis=self._sync_basis,
                     full=self._needs_full_sync)
        rpc.reply(reply, size=size, payload_bytes=wire)

    def _apply_tree_push(self, rpc):
        """A tree parent scattered the merged state: apply it, forward
        it down our gather edges, then ack (the ack therefore covers
        the whole subtree — the root's round ends when every reachable
        descendant holds the merged table).

        When the push's content hash matches the last one we applied,
        the merge would be a byte-for-byte no-op (entries merge by
        strictly-newer heartbeat) and the token refresh would hit its
        memo — both are skipped without touching the trace.
        """
        processing = self.server.config.sync_processing_time
        if processing > 0:
            yield self.server.engine.timeout(processing)
        if self.server.crashed:
            return  # crashed mid-processing: stale merge + ack lost
        body = rpc.body
        epoch = body["epoch"]
        self.sync_rounds += 1
        if body.get("delta") and body["basis"] != self._sync_basis:
            # Restarted between our subtree reply and this push: the
            # delta was computed against state we no longer hold, so
            # applying it could leave silently-omitted entries missing
            # forever. Drop it, request a full resync, and forward
            # nothing — our children heal on a later epoch's edges (the
            # tree reshapes every epoch).
            self.basis_mismatches += 1
            rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)
            self._needs_full_sync = True
            return
        if not body.get("delta") and self._needs_full_sync:
            self._needs_full_sync = False
            self.full_resyncs += 1
        digest = body["hash"]
        if digest == self._last_push_hash:
            self.push_hash_skips += 1
        else:
            self.server.monitor.table.merge(body["entries"])
            for host, jobs in body["presence"].items():
                if host != self.server.name:
                    self.presence[host] = set(jobs)
            self._last_push_hash = digest
            self.refresh_tokens()
        yield from self._forward_tree_push(epoch, digest)
        if self.server.crashed:
            return
        rpc.reply({"ok": True}, size=_PROBE_WIRE_BYTES)

    def _forward_tree_push(self, epoch: int, digest: str):
        """Scatter the merged state down this epoch's gather edges."""
        gather = self._tree_gather.pop(epoch, None)
        if gather is None:
            # Our bookkeeping for this epoch is gone (we restarted in
            # between and the parent pushed full): resync the whole
            # subtree with full tables.
            gather = {name: (timeout, None)
                      for name, timeout in self._children(epoch)}
            self.subtree_full_pushes += len(gather)
        if not gather:
            return
        entries, presence = self._merged_view()
        if (yield from self._scatter(epoch, gather, entries, presence,
                                     digest)):
            self._note_degraded()

    def handle_sync(self, rpc) -> None:
        """Dispatch an inbound sync message by its kind."""
        if self.server.crashed:
            return  # a dead server neither merges nor answers
        kind = rpc.body.get("kind")
        if kind == "pull":
            self.server.engine.process(self._answer_tree_pull(rpc))
        elif kind == "push":
            self.server.engine.process(self._apply_tree_push(rpc))
