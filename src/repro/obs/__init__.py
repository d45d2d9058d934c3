"""Observability: structured telemetry for long attack campaigns.

Three zero-dependency pieces, designed to survive the engine's
``ProcessPoolExecutor`` fan-out:

* :mod:`repro.obs.metrics` — counters with mergeable
  :class:`MetricsSnapshot`\\ s; each worker accumulates into a scoped
  registry and the parent merges, so parallel totals equal serial
  totals.
* :mod:`repro.obs.spans` — :func:`span` timing context manager building
  the hierarchical stage tree (capture → extend / prune / sign /
  exponent → repair → rebuild → forge).
* :mod:`repro.obs.journal` — :class:`RunJournal`, a JSONL event sink
  unifying the ProgressEvent stream, finished span trees, and metric
  snapshots; console progress is a journal subscriber on stderr.

See ``docs/observability.md`` for the journal schema and metric names.
"""

from repro.obs.journal import (
    RunJournal,
    console_subscriber,
    format_progress,
    progress_event_to_payload,
    read_journal,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    current_registry,
    scoped_registry,
)
from repro.obs.spans import Span, attach, collect_spans, detached, span

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "current_registry",
    "scoped_registry",
    "Span",
    "span",
    "collect_spans",
    "detached",
    "attach",
    "RunJournal",
    "read_journal",
    "console_subscriber",
    "format_progress",
    "progress_event_to_payload",
]
