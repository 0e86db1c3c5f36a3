"""Python calls per package of ``src/repro``, counted with ``sys.setprofile``.

Builtins are included. A builtin or library call counts against the
package of its caller; a call into the program counts against the
callee's package. Calls made by the benchmark's own code count as
``bench``.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Dict


class CallCounter:
    """Python calls per ``src/repro`` package, from ``sys.setprofile``."""

    def __init__(self, src_root: str):
        self._repro = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self._bench = os.path.dirname(os.path.abspath(__file__)) + os.sep
        self._bucket: Dict[object, str] = {}
        self.counts: Counter = Counter()

    def _package(self, code) -> str:
        bucket = self._bucket.get(code)
        if bucket is None:
            path = code.co_filename
            if path.startswith(self._repro):
                head = path[len(self._repro):].split(os.sep, 1)[0]
                bucket = "repro" if head.endswith(".py") else head
            elif path.startswith(self._bench):
                bucket = "bench"
            else:
                bucket = ""
            self._bucket[code] = bucket
        return bucket

    def profile(self, frame, event, arg) -> None:
        if event == "call":
            bucket = self._package(frame.f_code)
            if not bucket:
                caller = frame.f_back
                bucket = (self._package(caller.f_code)
                          if caller is not None else "") or "lib"
            self.counts[bucket] += 1
        elif event == "c_call":
            self.counts[self._package(frame.f_code) or "lib"] += 1

    def __enter__(self):
        sys.setprofile(self.profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
