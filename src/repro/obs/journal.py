"""The run journal: one JSONL stream for progress, spans, and metrics.

Before this module the attack engine had three disjoint outputs — a
``print``-based progress callback, per-coefficient timing buried in
:class:`~repro.attack.key_recovery.CoefficientRecord`, and nothing at
all for metrics. A :class:`RunJournal` unifies them: every event is one
JSON object on its own line (``{"ts": ..., "seq": ..., "event": ...,
...}``), appended (and flushed) to the sink file, and simultaneously
fanned out to in-process subscribers. The stock console progress
renderer is just such a subscriber writing to *stderr*, so piping the
JSONL (or any other stdout consumer) never sees progress chatter
interleaved into machine-readable output.

Event vocabulary (see ``docs/observability.md`` for the full schema):

``run_start`` / ``run_end``
    campaign parameters, then outcome + wall clock.
``progress``
    one :class:`~repro.attack.key_recovery.ProgressEvent`, flattened
    (``stage``/``completed``/``total``/``message`` + the per-coefficient
    ``record`` fields when present).
``span``
    a finished :class:`~repro.obs.spans.Span` tree (nested).
``metrics``
    a :class:`~repro.obs.metrics.MetricsSnapshot`.

``read_journal`` parses a sink back into the list of event dicts, which
is the round-trip the tests pin down.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import Any, Callable, TextIO

from repro.obs.metrics import MetricsSnapshot
from repro.obs.spans import Span

__all__ = [
    "RunJournal",
    "read_journal",
    "progress_event_to_payload",
    "format_progress",
    "console_subscriber",
]


def _json_default(obj: Any) -> Any:
    """Last-resort encoder: numpy scalars/arrays, dataclasses, bytes."""
    if hasattr(obj, "item"):          # numpy scalar
        return obj.item()
    if hasattr(obj, "tolist"):        # numpy array
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, bytes):
        return obj.decode("utf-8", "replace")
    return str(obj)


def progress_event_to_payload(event: Any) -> dict[str, Any]:
    """Flatten a ProgressEvent (duck-typed) into journal payload fields."""
    payload: dict[str, Any] = {
        "stage": event.stage,
        "completed": int(event.completed),
        "total": int(event.total),
    }
    if getattr(event, "message", ""):
        payload["message"] = event.message
    record = getattr(event, "record", None)
    if record is not None:
        payload["record"] = {
            "target_index": int(record.target_index),
            "elapsed_seconds": float(record.elapsed_seconds),
            "n_traces_requested": int(record.n_traces_requested),
            "n_traces_used": int(record.n_traces_used),
            "correct": record.correct,
            "sign_margin": float(record.sign_margin),
            "exponent_margin": float(record.exponent_margin),
            "mantissa_margin": float(record.mantissa_margin),
        }
    return payload


def format_progress(payload: dict[str, Any]) -> str | None:
    """Human one-liner for a ``progress`` payload (None = nothing to say)."""
    record = payload.get("record")
    if record is not None:
        correct = record.get("correct")
        status = "ok " if correct else ("?? " if correct is None else "BAD")
        line = (
            f"  [{payload['completed']:4d}/{payload['total']}] "
            f"coefficient {record['target_index']:4d}: {status} "
            f"{record['elapsed_seconds']:6.2f}s "
            f"traces={record['n_traces_used']} "
            f"margin={record['exponent_margin']:.3f}"
        )
        if payload.get("message"):
            line += f" ({payload['message']})"
        return line
    if payload.get("message"):
        return f"  {payload['stage']}: {payload['message']}"
    return None


def console_subscriber(record: dict[str, Any], stream: TextIO | None = None) -> None:
    """Journal subscriber rendering ``progress`` events to stderr.

    Console progress and the JSONL sink thus come from one event
    stream — there is no second ``print`` path to fall out of sync (or
    to corrupt piped stdout).
    """
    if record.get("event") != "progress":
        return
    line = format_progress(record)
    if line:
        print(line, file=stream if stream is not None else sys.stderr, flush=True)


class RunJournal:
    """Append-only JSONL event sink with in-process fan-out.

    ``path=None`` makes a pure pub/sub hub (subscribers only), which is
    how ``--progress`` without ``--log-json`` runs. The file is opened
    in append mode and flushed per event, so a crashed campaign's
    journal is readable up to the last completed event.
    """

    def __init__(
        self,
        path: str | None = None,
        subscribers: tuple[Callable[[dict[str, Any]], None], ...] = (),
    ) -> None:
        self.path = path
        self._fh: TextIO | None = None
        if path:
            self._fh = open(path, "a")
            if not _ends_with_newline(path):
                # a crashed run left a torn last line; start this run's
                # events on a fresh line so read_journal keeps them
                self._fh.write("\n")
                self._fh.flush()
        self._subscribers: list[Callable[[dict[str, Any]], None]] = list(subscribers)
        self._seq = 0

    def subscribe(self, fn: Callable[[dict[str, Any]], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, event: str, **payload: Any) -> dict[str, Any]:
        """Record one event; returns the full record dict."""
        record: dict[str, Any] = {"ts": round(time.time(), 6), "seq": self._seq, "event": event}
        record.update(payload)
        self._seq += 1
        if self._fh is not None:
            self._fh.write(json.dumps(record, default=_json_default) + "\n")
            self._fh.flush()
        for fn in self._subscribers:
            fn(record)
        return record

    # -- typed emitters ----------------------------------------------------

    def emit_progress(self, event: Any) -> dict[str, Any]:
        """One ProgressEvent from the attack engine (duck-typed)."""
        return self.emit("progress", **progress_event_to_payload(event))

    def emit_span(self, s: Span, **extra: Any) -> dict[str, Any]:
        return self.emit("span", span=s.to_jsonable(), **extra)

    def emit_metrics(self, snapshot: MetricsSnapshot, scope: str = "run") -> dict[str, Any]:
        return self.emit("metrics", scope=scope, metrics=snapshot.to_jsonable())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunJournal(path={self.path!r}, events={self._seq})"


def _ends_with_newline(path: str) -> bool:
    """True for an empty file or one whose last byte is a newline."""
    with open(path, "rb") as fh:
        if fh.seek(0, 2) == 0:
            return True
        fh.seek(-1, 2)
        return fh.read(1) == b"\n"


def read_journal(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL journal back into event dicts (in emission order).

    A torn final line (crash mid-write) is tolerated and dropped, both at
    the end of the file and where a later :class:`RunJournal` appended a
    new run after it (the next event has ``seq`` 0). Every complete line
    is a complete JSON object by construction, so an undecodable line
    anywhere else is corruption and raises :class:`json.JSONDecodeError`.
    """
    events: list[dict[str, Any]] = []
    torn: json.JSONDecodeError | None = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                if torn is not None:
                    raise torn
                torn = exc
                continue
            if torn is not None and event.get("seq") != 0:
                raise torn
            torn = None
            events.append(event)
    return events
