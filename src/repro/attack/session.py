"""Resumable attack sessions: per-coefficient checkpoints on disk.

A full-key campaign is embarrassingly parallel but long: n independent
per-coefficient DEMA attacks, each minutes-scale at paper trace counts.
An :class:`AttackSession` makes the campaign interruptible at
coefficient granularity — every finished target's evidence (the
:class:`~repro.attack.coefficient.CoefficientRecovery` with its
recovered pattern and the :class:`~repro.attack.key_recovery.
CoefficientRecord` with timing and score margins) is checkpointed
atomically the moment it completes, in the serial path and in the
ProcessPoolExecutor fan-out alike. Kill the process — Ctrl-C, OOM,
power — relaunch with the same session directory, and the engine
replays the finished targets from disk and attacks only the missing
ones. The final report is bit-identical to an uninterrupted run,
because every target's work is deterministic given
(device.seed, campaign.seed, target_index) and checkpoints store the
*finished* artifacts, never partial state.

Layout (one directory per session)::

    <path>/
      session.json            # fingerprint manifest, written first
      coeff_00007.pkl         # one atomic pickle per finished target

The fingerprint binds the session to the campaign and configuration
that produced it: resuming against a different trace source, seed,
device, or attack config is refused with :class:`SessionError` rather
than silently mixing incompatible evidence.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from pathlib import Path

from repro.attack.config import AttackConfig
from repro.obs import metrics
from repro.utils.io import atomic_write_bytes

__all__ = ["AttackSession", "SessionError"]

_FORMAT = "falcon-down-attack-session"
#: 2: checkpointed exponent recoveries carry their tie-break centre.
#: 3: the ladder scores a row prefix; its results carry ``n_rows``.
_VERSION = 3


class SessionError(RuntimeError):
    """The session directory does not match the requested campaign."""


def _jsonable_config(config: AttackConfig) -> dict:
    out = dataclasses.asdict(config)
    # JSON has no tuples; normalize for comparison.
    return json.loads(json.dumps(out))


def session_fingerprint(source, config: AttackConfig) -> dict:
    """What a checkpoint set is only valid for.

    ``source`` is any :class:`~repro.leakage.store.TraceSource`; the
    fingerprint captures everything that influences a per-coefficient
    result: the campaign identity (surface, targets, trace count, mode,
    seed), the device model, and the full attack configuration
    (distinguisher included).
    """
    from repro.leakage.store import _device_to_jsonable

    device = getattr(source, "device", None)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "target": getattr(source, "target", "fpr-mul"),
        "n_targets": int(source.n_targets),
        "n_traces": int(source.n_traces),
        "mode": getattr(source, "mode", None),
        "seed": getattr(source, "seed", None),
        "device": _device_to_jsonable(device) if device is not None else None,
        "config": _jsonable_config(config),
    }


class AttackSession:
    """Checkpoint directory for one resumable full-key campaign."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._manifest: dict | None = None
        manifest_path = self.path / "session.json"
        if manifest_path.exists():
            self._manifest = json.loads(manifest_path.read_text())
            if self._manifest.get("format") != _FORMAT:
                raise SessionError(f"{self.path} is not an attack session directory")

    # -- lifecycle ---------------------------------------------------------

    def bind(self, source, config: AttackConfig) -> "AttackSession":
        """Create the manifest, or verify it matches on resume.

        First call on a fresh directory writes the fingerprint; later
        calls (the resume path) compare and refuse mismatches, so stale
        checkpoints can never leak into a different campaign's report.
        """
        fp = session_fingerprint(source, config)
        if self._manifest is None:
            self.path.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.path / "session.json",
                json.dumps(fp, indent=1, sort_keys=True).encode(),
            )
            self._manifest = fp
            return self
        if self._manifest != fp:
            diffs = [
                k
                for k in sorted(set(fp) | set(self._manifest))
                if fp.get(k) != self._manifest.get(k)
            ]
            raise SessionError(
                f"session {self.path} was recorded for a different campaign "
                f"(mismatched: {', '.join(diffs)}); use a fresh --session "
                "directory or rerun with the original parameters"
            )
        return self

    # -- checkpoints -------------------------------------------------------

    def _coeff_path(self, target_index: int) -> Path:
        return self.path / f"coeff_{target_index:05d}.pkl"

    def record(self, target_index: int, recovery, record) -> None:
        """Atomically checkpoint one finished per-coefficient attack."""
        blob = pickle.dumps((recovery, record), protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(self._coeff_path(target_index), blob)
        metrics.inc("session.checkpoints_written", 1)

    def completed(self) -> dict[int, tuple]:
        """All finished targets: {target_index: (recovery, record)}.

        A checkpoint either exists completely (os.replace is atomic) or
        not at all, so everything loadable here is trustworthy; a
        truncated/corrupt file (e.g. torn by a dying filesystem) is
        treated as absent and its target re-attacked.
        """
        out: dict[int, tuple] = {}
        for p in sorted(self.path.glob("coeff_*.pkl")):
            try:
                j = int(p.stem.split("_")[1])
                rec, record = pickle.loads(p.read_bytes())
            except (ValueError, IndexError, pickle.UnpicklingError, EOFError):
                continue
            out[j] = (rec, record)
        return out

    def __repr__(self) -> str:
        n = len(list(self.path.glob("coeff_*.pkl"))) if self.path.exists() else 0
        return f"AttackSession(path={str(self.path)!r}, checkpoints={n})"
