"""Spans recorded from outside the program.

A :class:`Tracer` wraps functions so that each call records one
:class:`Span` (name, start, end, parent span, op id, pid); spans stay in
memory and are written out once, when the run (or a forked fleet worker)
ends.  :class:`Patches` installs wrappers by replacing attributes and puts
the originals back afterwards.  The arithmetic the per-layer metrics rest
on — interval unions, self time, outermost busy time — lives here too, so
it can be tested on synthetic spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, NamedTuple

#: attribute set on every wrapper, so a leftover one can be found
MARKER = "__perfbench_traced__"


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None
    pid: int
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for calls made through its wrappers.

    ``op`` tags every span recorded while it is set, so the spans of one
    benchmark operation can be told apart.  Span ids embed the pid, so
    spans recorded in forked children never collide with the parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        #: where forked fleet workers write their spans (see layers.py)
        self.flush_dir: Path | None = None
        self._stack: list[int] = []
        self._seq = itertools.count(1)

    def _open(self) -> tuple[int, int | None]:
        sid = os.getpid() * 1_000_000_000 + next(self._seq)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(
            Span(sid, parent, name, start, end, self.op, os.getpid(), attrs)
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, attrs or None)

    def wrap(
        self,
        fn: Callable,
        name: str | None = None,
        *,
        label: Callable[[tuple], str] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
        attrs: Callable[[tuple, dict, Any, Any], dict | None] | None = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records a span.

        The span is called ``name``, or ``label(args)`` when the name
        depends on the call (a method labelled by its receiver's class).
        ``attrs(args, kwargs, result, pre)`` adds attributes after a call
        that returned; ``pre`` is what ``before(args, kwargs)`` saw before
        the call ran.  The wrapper returns and raises exactly what ``fn``
        does.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label(args) if label is not None else name
            pre = before(args, kwargs) if before is not None else None
            sid, parent = tracer._open()
            start = time.perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result, pre)
                return result
            finally:
                tracer._close(sid, parent, span_name, start, extra)

        setattr(traced, MARKER, True)
        return traced


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# span files: one per process, written once at the end
# ----------------------------------------------------------------------
def dump(path: Path, spans: Iterable[Span], **header: Any) -> None:
    """Write ``spans`` (plus a header object) as one JSON document."""
    doc = {**header, "spans": [list(s) for s in spans]}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    # os.rename, not os.replace: the traced run wraps os.replace
    os.rename(tmp, path)


def load(path: Path) -> tuple[dict[str, Any], list[Span]]:
    """``(header, spans)`` from a file :func:`dump` wrote."""
    doc = json.loads(path.read_text())
    spans = [Span(*row) for row in doc.pop("spans")]
    return doc, spans


def merge_dir(directory: Path) -> tuple[list[dict[str, Any]], list[Span]]:
    """Read and delete every per-pid span file in ``directory``."""
    headers, spans = [], []
    for path in sorted(directory.glob("spans-*.json")):
        header, found = load(path)
        headers.append(header)
        spans.extend(found)
        path.unlink()
    return headers, spans


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: max(0.0, s.duration - union_length(children.get(s.sid, ()), s.start, s.end))
        for s in spans
    }


def outermost(spans: Iterable[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``.

    Summing their durations counts a recursive or nested call of the same
    layer once, not twice.
    """
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    found = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            found.append(s)
    return found
