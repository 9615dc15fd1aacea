"""In-memory spans recorded around library calls, from outside the library.

A :class:`Tracer` replaces a function at the module attribute through
which callers reach it (``sparsedl.denoise.learn``, say) with a wrapper
that records a span: name, start, end, parent span and optional counts
taken from the call's result.  The library itself is not modified; the
originals are put back when the tracer's ``installed`` block exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Hook:
    """One module attribute to wrap, with the span name it records under.

    ``counts(result)`` returns a dict of numbers attached to the span.
    """

    module: str
    attr: str
    name: str
    counts: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields the :class:`Span`."""
        record = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(hook.name) as record:
                result = fn(*args, **kwargs)
            if hook.counts is not None:
                record.counts = hook.counts(result)
            return result

        return traced

    @contextmanager
    def installed(self, hooks):
        """Wrap every hook's attribute for the duration of the block."""
        saved = []
        try:
            for hook in hooks:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
                saved.append((module, hook.attr, original))
                setattr(module, hook.attr, self._wrap(original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        """Summed count ``key`` over every span called ``name``."""
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``.

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                total += s.duration - covered(s, children.get(i, []))
        return total

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
            for s in self.spans
        ]


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    total = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
