"""Finding model, rule catalog, and renderers for ``repro.sast``.

Every pass emits :class:`Finding` dataclasses; the runner sorts them,
checks them against the leakage contract under ``verify``, and renders
them either as ruff-style text (``path:line:col: RULE message``) or as
JSON (one object per finding with the full ``taint_chain``). Exit codes are part of the contract so
CI and shell scripts can tell outcomes apart:

* ``EXIT_CLEAN`` (0) — analysis ran, no unsuppressed findings;
* ``EXIT_FINDINGS`` (1) — analysis ran, at least one finding (or
  contract violation under ``verify``);
* ``EXIT_ERROR`` (2) — usage or internal error (bad flags, unreadable
  root, malformed contract file).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "RULES",
    "Finding",
    "render_text",
    "render_json",
    "sort_findings",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Rule catalog: id -> one-line description (documented in
#: ``docs/static-analysis.md``).
RULES: dict[str, str] = {
    # -- secret-flow taint (SF) -------------------------------------------
    "SF001": "secret-dependent branch (if/while/ternary/assert condition is tainted)",
    "SF002": "secret-indexed subscript (a tainted value selects the element)",
    "SF003": "secret operand reaches a variable-time operation (div/mod/pow/exp/log/sqrt)",
    "SF004": "tainted value reaches a '# sast: sink' annotated line",
    "SF005": "masking violation (mask reuse across values, or share recombination "
    "that re-exposes a secret)",
    "SF006": "secret-bounded loop in a '# sast: constant-time' module (iteration "
    "count depends on a secret)",
    # -- determinism (DT) -------------------------------------------------
    "DT001": "unseeded randomness outside repro.utils.rng (random module, legacy "
    "np.random, seedless default_rng, os.urandom)",
    "DT002": "wall-clock time in a result-bearing path (time.time/datetime.now "
    "outside the telemetry layer)",
    "DT003": "iteration order of a set/dict/filesystem listing flows into a "
    "digest, manifest, or fingerprint without sorted()",
    # -- concurrency / durability (CC) ------------------------------------
    "CC001": "mutation of module-level state in code reachable from "
    "ProcessPoolExecutor workers",
    "CC002": "file write bypasses repro.utils.io atomic_write_* (raw open/Path "
    "write modes, non-atomic np.save)",
    # -- annotations (meta) -----------------------------------------------
    "AN001": "malformed sast annotation (unknown kind, declassify without a "
    "reason, or a bad rule list)",
    # -- leakage contract (CT) --------------------------------------------
    "CT001": "finding not covered by the leakage contract (new leak chain)",
    "CT002": "stale contract entry (matches no current finding)",
    "CT003": "contract entry whose oracle verdict is UNREACHED or REFUTED",
    "CT004": "refuted contract entry contradicted by a fresh CONFIRMED verdict",
    "CT005": "dead declassify scope (annotated code never ran under the oracle workload)",
    "CT006": "contract entry whose recorded leak class disagrees with the "
    "dataflow-inferred class",
    "CT007": "countermeasure variant drift (a claimed leak-class reduction no "
    "longer holds statically or dynamically)",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, why, and how taint got there."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Propagation evidence, source first, sink last. Empty for the
    #: determinism / concurrency / meta rules.
    taint_chain: tuple[str, ...] = ()
    #: Qualified name of the enclosing function ("" at module level);
    #: part of the contract fingerprint so entries survive line drift.
    function: str = ""
    #: Normalized source text of the flagged line (fingerprint component).
    source_line: str = ""
    #: Disambiguates identical (rule, path, function, source_line) tuples.
    occurrence: int = 0
    #: Dataflow-inferred leak class ("" when the taint component lattice
    #: could not resolve one; the keyword heuristic is the fallback then).
    #: Not part of the fingerprint: class drift is surfaced as CT006, not
    #: as a stale entry.
    leak_class: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.taint_chain:
            out["taint_chain"] = list(self.taint_chain)
        if self.function:
            out["function"] = self.function
        if self.leak_class:
            out["leak_class"] = self.leak_class
        return out


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable presentation order: path, then line/col, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message))


def render_text(findings: list[Finding], verbose_chains: bool = True) -> str:
    """Ruff-style text: one line per finding, taint chains indented."""
    lines: list[str] = []
    for f in sort_findings(findings):
        lines.append(f"{f.location()}: {f.rule} {f.message}")
        if verbose_chains and f.taint_chain:
            for i, hop in enumerate(f.taint_chain):
                marker = "source" if i == 0 else ("sink" if i == len(f.taint_chain) - 1 else "via")
                lines.append(f"    {marker:>6}: {hop}")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report: ``{"findings": [...], "count": N}``."""
    payload = {
        "findings": [f.to_jsonable() for f in sort_findings(findings)],
        "count": len(findings),
    }
    return json.dumps(payload, indent=1, sort_keys=True)
