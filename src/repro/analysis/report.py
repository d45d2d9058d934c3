"""Plain-text reporting helpers for benches and examples."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_ranking", "describe_store"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with auto-sized columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_ranking(
    guesses: Sequence[int],
    scores: Sequence[float],
    correct: int | None = None,
    top: int = 10,
    value_format: str = "#x",
) -> str:
    """Best-first guess ranking with the correct guess flagged."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])[:top]
    rows = []
    for rank, i in enumerate(order, start=1):
        mark = "  <-- correct" if correct is not None and guesses[i] == correct else ""
        rows.append(f"  {rank:3d}. {format(guesses[i], value_format):>16} corr={scores[i]:+.5f}{mark}")
    return "\n".join(rows)


def describe_store(store) -> str:
    """Human-readable summary of a :class:`~repro.leakage.store.CampaignStore`.

    Used by ``repro-falcon store-info`` and handy in notebooks: campaign
    identity, device parameters, and shard completeness at a glance.
    """
    dev = store.device
    entries = store.manifest["targets"]
    complete = len(store.targets())
    skipped = sum(1 for v in entries.values() if v.get("skipped"))
    lines = [
        f"campaign store at {store.path}",
        f"  FALCON n={store.n}: {store.n_targets} targets, "
        f"{store.n_traces} requested signings each (mode={store.mode}, seed={store.seed})",
        f"  device: gain={dev.gain} offset={dev.offset} noise_sigma={dev.noise_sigma} "
        f"samples_per_step={dev.samples_per_step} jitter={dev.jitter} seed={dev.seed:#x}",
        # legacy manifests predate the field; the store property defaults
        f"  capture: target={store.target}",
        f"  shards: {complete}/{store.n_targets} complete"
        + (f", {skipped} skipped (non-normal secret doubles)" if skipped else ""),
    ]
    return "\n".join(lines)
