"""Spans and counts recorded around calls into the program's layers.

The tracer patches public attributes (a module function or a class
method, at the attribute its callers resolve) with wrappers that record
a span per call: name, start, end and the enclosing span. Spans live in
flat arrays, so a few million of them cost tens of megabytes, and are
written out when the run ends. :meth:`Tracer.restore` puts every patched
attribute back, so code measured afterwards runs unpatched.

Forked workers (the sharded zoned driver) inherit the patches; an
after-fork hook empties the inherited spans and writes the worker's own
spans to ``<out_dir>/spans-<pid>.bin`` when the worker exits.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

from perfbench.stats import self_times

#: ``measure(args, result)`` hook run after a wrapped call returns.
Measure = Callable[[Tuple[Any, ...], Any], None]


class Tracer:
    """In-memory span recorder plus named counters and maxima."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = out_dir
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        #: 1 where no enclosing span belongs to the same family, so summing
        #: these durations counts recursion and nested helpers once.
        self.tops = array("b")
        self._stack: List[int] = []
        self._family_depth: Dict[str, int] = {}
        self.counts: DefaultDict[str, float] = defaultdict(float)
        self.maxima: DefaultDict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def traced(
        self,
        func: Callable[..., Any],
        name: str,
        family: Optional[str] = None,
        measure: Optional[Measure] = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped so that every call records a span."""
        name_id = self._name_id(name)
        family = family or name
        ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, tops, stack = self.parents, self.tops, self._stack
        depth_of = self._family_depth
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            depth = depth_of.get(family, 0)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tops.append(depth == 0)
            ends.append(0.0)
            depth_of[family] = depth + 1
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth_of[family] = depth
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    def counted(
        self,
        func: Callable[..., Any],
        name: str,
        measure: Optional[Measure] = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped so that every call bumps ``counts[name]``."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            counts[name] += 1
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        own = vars(owner)
        had_own = attr in own
        raw = own.get(attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is a {type(raw).__name__}")
        self._patches.append((owner, attr, had_own, raw))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        family: Optional[str] = None,
        measure: Optional[Measure] = None,
    ) -> None:
        """Record a span for every call of ``owner.attr``."""
        current = getattr(owner, attr)
        self.replace(owner, attr, self.traced(current, name, family, measure))

    def count(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Measure] = None,
    ) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        current = getattr(owner, attr)
        self.replace(owner, attr, self.counted(current, name, measure))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total, self and family-top calls and time."""
        return summarize(self.names, self.name_ids, self.starts, self.ends,
                         self.parents, self.tops)

    def dump(self, path: Path) -> None:
        """Write spans, counts and maxima; :func:`load` reads them back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "pid": os.getpid(),
            "names": self.names,
            "spans": len(self.starts),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        with open(path, "wb") as out:
            blob = json.dumps(header).encode()
            out.write(len(blob).to_bytes(8, "little"))
            out.write(blob)
            for column in (self.name_ids, self.starts, self.ends,
                           self.parents, self.tops):
                column.tofile(out)

    def _after_fork(self) -> None:
        for column in (self.name_ids, self.starts, self.ends, self.parents,
                       self.tops):
            del column[:]
        self._stack.clear()
        self._family_depth.clear()
        self.counts.clear()
        self.maxima.clear()
        if self.out_dir is not None:
            path = self.out_dir / f"spans-{os.getpid()}.bin"
            mp_util.Finalize(self, self.dump, args=(path,), exitpriority=10)


def load(path: Path) -> Dict[str, Any]:
    """Read a :meth:`Tracer.dump` file into columns plus its header."""
    with open(path, "rb") as src:
        size = int.from_bytes(src.read(8), "little")
        header = json.loads(src.read(size))
        count = header["spans"]
        columns = []
        for code in ("H", "d", "d", "l", "b"):
            column = array(code)
            column.fromfile(src, count)
            columns.append(column)
    header["columns"] = columns
    return header


def summarize(
    names: List[str],
    name_ids: "array[int]",
    starts: "array[float]",
    ends: "array[float]",
    parents: "array[int]",
    tops: "array[int]",
) -> Dict[str, Dict[str, float]]:
    selfs = self_times(starts, ends, parents)
    out = {name: {"calls": 0, "top_calls": 0, "total_s": 0.0, "self_s": 0.0,
                  "top_s": 0.0} for name in names}
    for index, name_id in enumerate(name_ids):
        row = out[names[name_id]]
        duration = ends[index] - starts[index]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += selfs[index]
        if tops[index]:
            row["top_calls"] += 1
            row["top_s"] += duration
    return out
