"""In-memory span recorder for the benchmark's traced runs.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Spans are appended to
flat typed arrays while the run is timed and only summarised after it
ends, so recording one costs a few appends.  A span's self time is its
duration minus the durations of its direct children.

Wrapping is done from outside the package: ``replace`` rebinds a
function under every name any loaded module bound it to (``from .spaces
import space_norm`` also binds ``multiplier.space_norm``), and
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open one."""
        if len(self._stack) < 2:
            return None
        return self.names[self._name[self._stack[-2]]]

    def enclosing(self, name: str) -> int:
        """Index of the innermost open span called ``name``, or -1."""
        nid = self._ids.get(name)
        for idx in reversed(self._stack):
            if self._name[idx] == nid:
                return idx
        return -1

    def wrap(self, name: str, fn, hook=None):
        """Return fn recording one span per call.

        hook(args, kwargs, result) runs inside the span after a normal
        return; a raised exception is counted as ``<name>.raised``.
        """
        nid = self.name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock, counts = self._stack, self._clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, original, replacement, package: str) -> int:
        """Rebind ``original`` to ``replacement`` in every loaded module of
        ``package``; returns the number of bindings replaced."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)
                    n += 1
        return n

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self._start)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(own[i])}
                for i in range(k) if calls[i]}

    def parents_with_children(self, child: str, at_least: int) -> int:
        """Number of spans with at least ``at_least`` direct children named
        ``child``."""
        cid = self._ids.get(child)
        if cid is None:
            return 0
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        owners = parent[(name == cid) & (parent >= 0)]
        return int(np.sum(np.bincount(owners) >= at_least)) if owners.size else 0
