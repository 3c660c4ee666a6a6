"""Span recorder that wraps graphnls functions from outside the package.

Each wrapped call appends one span (name, parent, run id, start, end)
to flat typed arrays, so a saddle-escape run with ~5e5 calls costs
~28 bytes per span instead of a Python object each.  Spans are kept in
memory and written out once, when the traced run ends.

The package imports by name (``from .operators import energy``), so a
function is bound in several module namespaces.  ``install`` replaces
every binding inside ``graphnls`` that is the original object, which
also catches calls a module makes to its own functions through its
globals.  ``uninstall`` puts the originals back, so untraced work runs
the unmodified functions.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory spans and counters for one traced child process."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._name_col = array("i")
        self._parent_col = array("i")
        self._run_col = array("i")
        self._start_col = array("d")
        self._end_col = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, func, on_return=None):
        """Return a wrapper of ``func`` that records a span named ``name``.

        ``on_return(result, counters)`` runs after a call that returns.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_col, parent_col, run_col = self._name_col, self._parent_col, self._run_col
        start_col, end_col, stack = self._start_col, self._end_col, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            run_col.append(tracer.run_id)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
            if on_return is not None:
                on_return(result, tracer.counters)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def install(self, targets) -> None:
        """Wrap every ``graphnls`` binding of each target.

        A target is ``(name, owner, attribute, on_return)``: the
        original is ``getattr(owner, attribute)``.  A classmethod on a
        class is wrapped in place on the class, which every module
        shares.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "graphnls" or key.startswith("graphnls."))]
        for name, owner, attr, on_return in targets:
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, on_return))
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, on_return)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name}: no graphnls module binds {attr}")

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start_col)

    def columns(self) -> dict[str, np.ndarray]:
        """The span table as arrays; parent -1 marks a root span."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return {
            "name": np.frombuffer(self._name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent_col, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end_col, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (the program is single
    threaded), so the covered time is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def descendants(start: np.ndarray, end: np.ndarray, index: int) -> slice:
    """Index range of the spans nested inside span ``index``.

    Spans are numbered in the order they start, so the spans nested in
    one span are exactly those numbered after it that start before it
    ends.
    """
    stop = int(np.searchsorted(start, end[index], side="left"))
    return slice(index + 1, max(stop, index + 1))
