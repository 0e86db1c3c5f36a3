"""Spans around the program's public entry points.

:class:`Tracer` is installed from the benchmark's own files for one run
and removed afterwards; the program carries no instrumentation of its
own. It wraps the entry points named in ``ENTRY_POINTS`` and keeps one
span per call in memory: name, host start and end, simulated ``now``,
parent span and the id of the client op the work belongs to. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import time
from typing import Dict, List, Optional

from repro.bb.client import Client
from repro.bb.controller import Controller
from repro.bb.server import Server
from repro.core.scheduler import StatisticalTokenScheduler
from repro.fs import erasure
from repro.fs.filesystem import ThemisFS
from repro.fs.journal import JournaledFS
from repro.fs.locking import RangeLockTable
from repro.metrics.sampler import ThroughputSampler
from repro.net.fabric import Fabric
from repro.sim.engine import Engine
from repro.ucx.rpc import RpcClient

_FS_OPS = ("create", "mkdir", "lookup", "stat", "readdir", "unlink", "write",
           "read", "write_accounting", "read_accounting", "rebuild_parity",
           "read_reconstruct", "repair_group", "restripe")

#: (owner, attribute names, layer); owners are classes or modules
ENTRY_POINTS = (
    (Engine, ("run",), "sim"),
    (Fabric, ("send",), "net"),
    (RpcClient, ("call",), "ucx"),
    (Client, ("write", "read"), "bb"),
    (Controller, ("refresh_tokens", "handle_sync"), "bb"),
    (Server, ("service_time",), "bb"),
    (StatisticalTokenScheduler, ("enqueue", "dequeue", "on_jobs_changed"),
     "core"),
    (RangeLockTable, ("try_lock_write", "unlock_write", "wait"), "fs"),
    (ThemisFS, _FS_OPS, "fs"),
    (JournaledFS, ("mkdir", "create", "unlink", "write", "write_accounting",
                   "restripe"), "fs"),
    (erasure, ("encode", "decode", "reconstruct_share"), "fs"),
    (ThroughputSampler, ("record",), "metrics"),
)

# span fields
NAME, T0, T1, SIM, PARENT, RID, CHILD = range(7)


def _owner_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans plus the simulated-time samples taken at them."""

    def __init__(self):
        self.spans: List[list] = []
        self.layer_of: Dict[str, str] = {}
        self.engine: Optional[Engine] = None
        self._stack: List[int] = []
        self._rids = itertools.count(1)
        self._proc_rid: Dict[object, int] = {}
        self._body_rid: Dict[int, tuple] = {}
        self._enqueued: Dict[int, tuple] = {}
        self._waiting: Dict[tuple, float] = {}
        self._saved: List[tuple] = []
        #: simulated-time samples, seconds
        self.queue_wait: List[float] = []
        self.lock_wait: List[float] = []
        self.service: List[float] = []
        self.lock_wait_calls = 0
        self.acquired_after_wait = 0
        self.dead_peak = 0

    # ------------------------------------------------------------ install
    def install(self) -> None:
        after = {
            "StatisticalTokenScheduler.enqueue": self._after_enqueue,
            "StatisticalTokenScheduler.dequeue": self._after_dequeue,
            "RpcClient.call": self._after_call,
            "Server.service_time": self._after_service,
            "RangeLockTable.wait": self._after_wait,
            "RangeLockTable.try_lock_write": self._after_try_lock,
        }
        for owner, attrs, layer in ENTRY_POINTS:
            for attr in attrs:
                name = f"{_owner_name(owner)}.{attr}"
                self.layer_of[name] = layer
                own = vars(owner).get(attr)
                orig = getattr(owner, attr)
                self._saved.append((owner, attr, own))
                if inspect.isgeneratorfunction(orig):
                    wrapped = self._wrap_gen(name, orig)
                else:
                    wrapped = self._wrap(name, orig, after.get(name))
                setattr(owner, attr, wrapped)
        # Not a span: a process spawned inside a client op (its per-server
        # requests) works for that op.
        spawn = Engine.process
        self._saved.append((Engine, "process", spawn))

        def process(engine, generator):
            proc = spawn(engine, generator)
            rid = self._rid()
            if rid is not None:
                self._proc_rid[proc] = rid
            return proc
        Engine.process = process

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    # -------------------------------------------------------------- spans
    def _rid(self) -> Optional[int]:
        engine = self.engine
        return None if engine is None else \
            self._proc_rid.get(engine.active_process)

    def _open(self, name: str, rid: Optional[int]) -> int:
        idx = len(self.spans)
        engine = self.engine
        self.spans.append([name, 0.0, 0.0,
                           0.0 if engine is None else engine.now,
                           self._stack[-1] if self._stack else -1, rid, 0.0])
        self._stack.append(idx)
        self.spans[idx][T0] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        t1 = time.perf_counter()
        span = self.spans[idx]
        span[T1] = t1
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += t1 - span[T0]

    def _wrap(self, name, orig, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "Engine.run":
                tracer.engine = args[0]
            idx = tracer._open(name, tracer._rid())
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    def _wrap_gen(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._drive(name, orig(*args, **kwargs),
                                 next(tracer._rids))
        return wrapper

    def _drive(self, name, gen, rid):
        """Run generator *gen* step by step, one span per step, with every
        span opened inside a step attributed to client op *rid*."""
        value, exc = None, None
        while True:
            proc = self.engine.active_process if self.engine else None
            prev = self._proc_rid.get(proc)
            self._proc_rid[proc] = rid
            idx = self._open(name, rid)
            try:
                step = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                self.dead_peak = max(self.dead_peak,
                                     self.engine.stats()["dead_pending"])
                return stop.value
            finally:
                self._close(idx)
                if prev is None:
                    self._proc_rid.pop(proc, None)
                else:
                    self._proc_rid[proc] = prev
            try:
                value, exc = (yield step), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # re-raised into gen next step
                value, exc = None, err

    # --------------------------------------------- simulated-time samples
    def _after_call(self, idx, args, kwargs, result) -> None:
        body = args[2] if len(args) > 2 else kwargs.get("body")
        rid = self.spans[idx][RID]
        if rid is not None and isinstance(body, dict):
            self._body_rid[id(body)] = (body, rid)

    def _request_rid(self, request) -> Optional[int]:
        """The client op a server-side request was sent for."""
        rpc = getattr(request, "rpc", None)
        entry = self._body_rid.get(id(getattr(rpc, "body", None)))
        return None if entry is None else entry[1]

    def _after_enqueue(self, idx, args, kwargs, result) -> None:
        request, now = args[1], args[2]
        rid = self._request_rid(request)
        self.spans[idx][RID] = rid
        self._enqueued[id(request)] = (request, now)

    def _after_dequeue(self, idx, args, kwargs, result) -> None:
        # The worker that dequeued works for the request's op until its
        # next dequeue.
        proc = self.engine.active_process
        rid = None if result is None else self._request_rid(result)
        self.spans[idx][RID] = rid
        if rid is None:
            self._proc_rid.pop(proc, None)
        else:
            self._proc_rid[proc] = rid
        if result is not None:
            entry = self._enqueued.pop(id(result), None)
            if entry is not None:
                self.queue_wait.append(args[1] - entry[1])

    def _after_service(self, idx, args, kwargs, result) -> None:
        self.spans[idx][RID] = self._request_rid(args[1])
        self.service.append(result)

    def _after_wait(self, idx, args, kwargs, result) -> None:
        ino, waiter = args[1], args[2]
        owner = args[5] if len(args) > 5 else kwargs.get("owner")
        if owner is None:
            owner = waiter
        self.lock_wait_calls += 1
        self._waiting.setdefault((ino, id(owner)), self.engine.now)

    def _after_try_lock(self, idx, args, kwargs, result) -> None:
        if result:
            owner = args[4] if len(args) > 4 else kwargs["owner"]
            since = self._waiting.pop((args[1], id(owner)), None)
            if since is not None:
                self.acquired_after_wait += 1
                self.lock_wait.append(self.engine.now - since)

    # ------------------------------------------------------------ results
    def by_name(self) -> Dict[str, tuple]:
        """name -> (calls, total seconds, self seconds)."""
        out: Dict[str, list] = {}
        for span in self.spans:
            dur = span[T1] - span[T0]
            acc = out.setdefault(span[NAME], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - span[CHILD]
        return {k: tuple(v) for k, v in out.items()}

    def outer_time(self, prefix: str) -> float:
        """Seconds spent in spans named *prefix*..., not counting those
        nested in another such span."""
        spans = self.spans
        return sum(span[T1] - span[T0] for span in spans
                   if span[NAME].startswith(prefix)
                   and (span[PARENT] < 0
                        or not spans[span[PARENT]][NAME].startswith(prefix)))

    def export_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto,
        chrome://tracing)."""
        base = self.spans[0][T0] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "perfbench"}}]
        for i, span in enumerate(self.spans):
            events.append({
                "name": span[NAME], "cat": self.layer_of[span[NAME]],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((span[T0] - base) * 1e6, 3),
                "dur": round((span[T1] - span[T0]) * 1e6, 3),
                "args": {"id": i, "parent": span[PARENT], "rid": span[RID],
                         "sim_now": span[SIM]}})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
