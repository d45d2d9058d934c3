"""Hierarchical timing spans: where the trace budget's wall clock goes.

``span("prune")`` opens a timed region; spans opened inside it become
children, so one per-coefficient attack reconstructs the full stage
tree of the paper's pipeline — capture → extend / prune / sign /
exponent → (globally) repair → NTRU rebuild → forgery — with measured
seconds at every node.

Workers run each target inside :func:`detached` so their span tree is
always rooted at the target (never silently grafted onto whatever the
forked parent had open); the parent re-attaches the returned root with
:func:`attach`. Span objects are plain picklable dataclasses with a
JSON round-trip, so they travel across the pool boundary and into the
:class:`~repro.obs.journal.RunJournal` unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "span", "collect_spans", "detached", "attach"]


@dataclass
class Span:
    """One timed region of the attack, with nested children."""

    name: str
    started_at: float = 0.0          # wall-clock (time.time) for journal ordering
    duration_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def stage_seconds(self) -> dict[str, float]:
        """Seconds per direct-child stage name (same-name spans summed)."""
        out: dict[str, float] = {}
        for child in self.children:
            out[child.name] = out.get(child.name, 0.0) + child.duration_s
        return out

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first, self included) with ``name``."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_jsonable() for c in self.children]
        return out

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "Span":
        return cls(
            name=str(obj["name"]),
            started_at=float(obj.get("started_at", 0.0)),
            duration_s=float(obj.get("duration_s", 0.0)),
            attrs=dict(obj.get("attrs", {})),
            children=[cls.from_jsonable(c) for c in obj.get("children", [])],
        )


class _SpanState:
    __slots__ = ("open", "collectors")

    def __init__(self) -> None:
        self.open: list[Span] = []
        self.collectors: list[list[Span]] = []


_STATE = _SpanState()


def _reset_state() -> None:
    """Fresh process-wide state (pool-worker initializers, tests)."""
    _STATE.open.clear()
    _STATE.collectors.clear()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:  # sast: declassify(rules=CC001, reason=span stack is intentionally per-process context; worker span trees are serialized back and merged)
    """Time a region; nests under any currently open span.

    The yielded :class:`Span` can be annotated further (``s.attrs``)
    while open. On close the duration is final and — if the span was a
    root — it is delivered to every active :func:`collect_spans` list.
    """
    s = Span(name=name, started_at=time.time(), attrs=dict(attrs))
    parent = _STATE.open[-1] if _STATE.open else None
    if parent is not None:
        parent.children.append(s)
    _STATE.open.append(s)
    t0 = time.perf_counter()
    try:
        yield s
    finally:
        s.duration_s = time.perf_counter() - t0
        _STATE.open.pop()
        if parent is None:
            for collector in _STATE.collectors:
                collector.append(s)


@contextmanager
def collect_spans() -> Iterator[list[Span]]:
    """Yield a list that accumulates every root span closed in the block."""
    roots: list[Span] = []
    _STATE.collectors.append(roots)
    try:
        yield roots
    finally:
        _STATE.collectors.remove(roots)


@contextmanager
def detached() -> Iterator[list[Span]]:
    """Run the block with an empty span context, collecting its roots.

    Inside the block no span has an implicit parent — exactly the view a
    pool worker has — so the same instrumentation produces the same
    trees whether a target runs in-process or in a worker. Yields the
    list of root spans closed inside the block.
    """
    saved_open, saved_collectors = _STATE.open, _STATE.collectors
    roots: list[Span] = []
    _STATE.open, _STATE.collectors = [], [roots]
    try:
        yield roots
    finally:
        _STATE.open, _STATE.collectors = saved_open, saved_collectors


def attach(s: Span) -> None:
    """Graft a finished (detached/worker) span into the current context.

    Becomes a child of the innermost open span, or is delivered to the
    active collectors when nothing is open.
    """
    if _STATE.open:
        _STATE.open[-1].children.append(s)
    else:
        for collector in _STATE.collectors:
            collector.append(s)
