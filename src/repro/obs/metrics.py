"""Process-wide metrics: counters in mergeable snapshots.

A Section-IV campaign fans per-coefficient attacks out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, so a single in-process
registry cannot see the whole run: each worker process accumulates into
its own registry and the parent merges the returned snapshots. The
design here makes that the *only* model — every unit of work (one
per-coefficient attack, one full campaign) runs inside
:func:`scoped_registry`, the instrumented code writes through the
module-level :func:`inc` helper into whatever registry is innermost,
and the finished scope's
:class:`MetricsSnapshot` is merged into the enclosing registry by
whoever launched it (same-process caller or pool parent — the merged
totals are identical either way, which is what the cross-process
equivalence test pins down).

Snapshots are plain dataclasses of dicts: picklable (workers return
them), JSON-able (the :class:`~repro.obs.journal.RunJournal` emits
them), and additive (counters sum).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "MetricsSnapshot",
    "MetricsRegistry",
    "current_registry",
    "scoped_registry",
    "inc",
]


@dataclass
class MetricsSnapshot:
    """A frozen view of one registry — additive across workers.

    ``merge`` mutates and returns ``self`` so parents can fold a stream
    of per-worker snapshots in without intermediate copies; counters are
    disjoint-partition additive.
    """

    counters: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def to_jsonable(self) -> dict[str, Any]:
        return {"counters": dict(self.counters)}

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "MetricsSnapshot":
        """Load a snapshot; keys other than ``counters`` are ignored.

        Older journals also carry ``gauges``/``histograms`` keys; such
        a payload loads as its counters alone.
        """
        return cls(counters=dict(obj.get("counters", {})))


class MetricsRegistry:
    """One process's (or one scope's) accumulation point."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(counters=dict(self._counters))

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a finished scope's (or worker's) snapshot into this registry."""
        for name, value in snap.counters.items():
            self.inc(name, value)

    def reset(self) -> None:
        self._counters.clear()

    def __repr__(self) -> str:
        return f"MetricsRegistry(counters={len(self._counters)})"


# The innermost registry receives every write; the bottom entry is the
# process-wide default so instrumentation is always collected somewhere.
_STACK: list[MetricsRegistry] = [MetricsRegistry()]


def current_registry() -> MetricsRegistry:
    """The registry module-level writes currently land in."""
    return _STACK[-1]


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:  # sast: declassify(rules=CC001, reason=registry stack is intentionally per-process; workers return snapshots the parent merges)
    """Collect every metric written inside the block into a fresh registry.

    Writes go *only* to the scoped registry — the caller is responsible
    for merging ``registry.snapshot()`` into its own scope afterwards
    (that responsibility is what makes serial and multi-process runs
    account identically: in both cases exactly one merge happens, in the
    parent).
    """
    reg = registry if registry is not None else MetricsRegistry()
    _STACK.append(reg)
    try:
        yield reg
    finally:
        _STACK.remove(reg)


def _reset_state() -> None:
    """Fresh process-wide state (pool-worker initializers, tests)."""
    del _STACK[1:]
    _STACK[0].reset()


def inc(name: str, value: float = 1) -> None:
    _STACK[-1].inc(name, value)
