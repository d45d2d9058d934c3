"""Leakage contract: the reviewed, machine-verified set of accepted findings.

The contract (``leakage-contract.json``) records every finding the
reproduction keeps on purpose; each accepted finding must carry:

* a **leak class** tying it to the paper's taxonomy (``sign``,
  ``exponent``, ``mantissa-mul``, ``mantissa-add`` of the
  ``FFT(c) ⊙ FFT(f)`` product, or ``ancillary`` for supporting
  arithmetic such as keygen-time NTRU solving and NTT reductions);
* a **reviewed reason** explaining why the flow is accepted;
* an **oracle verdict** from :mod:`repro.sast.oracle` — ``CONFIRMED``
  entries are live leak chains the repro intentionally models, a
  ``refuted`` section records findings whose operand streams were
  proven secret-independent at runtime.

``repro-sast verify`` enforces the contract (rules CT001–CT007): new
findings must be triaged in, stale entries must be removed, recorded
leak classes must agree with the dataflow-inferred class when the
taint engine produced one (CT006), countermeasure variants must honor
their recorded ``classes_absent``/``residual`` claims (CT007), and —
when the dynamic oracle runs — recorded verdicts must still hold and
declassify scopes inside the declared coverage must still execute.
Entries are matched by a fingerprint that survives line drift:
``(rule, root-relative path, enclosing function, normalized source
line, occurrence index)`` — moving a function around the file keeps its
entry valid, while editing the flagged line invalidates it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.sast.findings import Finding
from repro.sast.oracle import CONFIRMED, LIVE, REFUTED, UNREACHED, OracleReport
from repro.sast.variants import (
    VariantSpec,
    check_variants_static,
    normalize_line,
    parse_variants,
    render_variants,
)

__all__ = [
    "LEAK_CLASSES",
    "DEFAULT_COVERAGE",
    "HEURISTIC_FALLBACK_RULES",
    "Contract",
    "ContractEntry",
    "assign_occurrences",
    "build_contract",
    "fingerprint",
    "infer_leak_class",
    "load_contract",
    "render_contract",
    "verify_contract",
]

#: files are written as v2 and v1 files still load; the parser reads
#: only the keys below and ignores any other per-entry key
_FORMAT_VERSION = 2
_ACCEPTED_VERSIONS = (1, 2)

#: the paper's leak taxonomy plus the bucket for supporting arithmetic
LEAK_CLASSES = ("sign", "exponent", "mantissa-mul", "mantissa-add", "ancillary")

#: oracle verdicts a contract entry may record; ``N/A`` is reserved for
#: non-secret-flow rules (DT/CC/AN), where differential replay proves nothing
_ENTRY_VERDICTS = (CONFIRMED, UNREACHED, REFUTED, "N/A")

#: path prefixes the oracle workload exercises — declassify liveness and
#: verdict enforcement apply only inside this boundary
DEFAULT_COVERAGE = ("falcon/", "fpr/", "math/")

Fingerprint = tuple[str, str, str, str, int]


def _relpath(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:
        return path.replace(os.sep, "/")
    return rel.replace(os.sep, "/")


def fingerprint(finding: Finding, root: str) -> Fingerprint:
    return (
        finding.rule,
        _relpath(finding.path, root),
        finding.function,
        normalize_line(finding.source_line),
        finding.occurrence,
    )


def assign_occurrences(findings: list[Finding]) -> list[Finding]:
    """Number findings that share a fingerprint prefix, in line order."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    counts: dict[tuple[str, str, str, str], int] = {}
    out: list[Finding] = []
    for f in ordered:
        key = (f.rule, f.path, f.function, normalize_line(f.source_line))
        n = counts.get(key, 0)
        counts[key] = n + 1
        out.append(replace(f, occurrence=n))
    return out


@dataclass(frozen=True)
class ContractEntry:
    """One accepted (or refuted) finding."""

    rule: str
    path: str                # root-relative, forward slashes
    function: str
    line_text: str           # whitespace-normalized source line
    occurrence: int
    leak_class: str
    reason: str
    verdict: str
    #: how the leak class was derived: "dataflow" entries are machine-
    #: checked against the taint component lattice on every verify
    #: (CT006); "heuristic" entries came from the keyword fallback.
    leak_class_source: str = "heuristic"

    @property
    def fingerprint(self) -> Fingerprint:
        return (self.rule, self.path, self.function, self.line_text, self.occurrence)

    def describe(self) -> str:
        where = f" in {self.function}()" if self.function else ""
        return f"{self.rule} at {self.path}{where} ({self.line_text!r})"


@dataclass
class Contract:
    """Parsed ``leakage-contract.json``."""

    entries: list[ContractEntry] = field(default_factory=list)
    refuted: list[ContractEntry] = field(default_factory=list)
    coverage_prefixes: tuple[str, ...] = DEFAULT_COVERAGE
    oracle_meta: dict[str, Any] = field(default_factory=dict)
    variants: dict[str, VariantSpec] = field(default_factory=dict)

    def entry_map(self) -> dict[Fingerprint, ContractEntry]:
        return {e.fingerprint: e for e in self.entries}

    def refuted_map(self) -> dict[Fingerprint, ContractEntry]:
        return {e.fingerprint: e for e in self.refuted}

    def covers(self, rel_path: str) -> bool:
        return any(rel_path.startswith(p) for p in self.coverage_prefixes)


# -- (de)serialization -----------------------------------------------------


def _parse_entry(raw: Any, path: str, section: str) -> ContractEntry:
    if not isinstance(raw, dict):
        raise ValueError(f"contract {path!r}: non-object entry in {section!r}")
    entry = ContractEntry(
        rule=str(raw.get("rule", "")),
        path=str(raw.get("path", "")),
        function=str(raw.get("function", "")),
        line_text=str(raw.get("line_text", "")),
        occurrence=int(raw.get("occurrence", 0)),
        leak_class=str(raw.get("leak_class", "")),
        reason=str(raw.get("reason", "")),
        verdict=str(raw.get("verdict", "")),
        leak_class_source=str(raw.get("leak_class_source", "heuristic")),
    )
    if not entry.rule or not entry.path:
        raise ValueError(f"contract {path!r}: entry missing rule/path in {section!r}")
    if entry.leak_class not in LEAK_CLASSES:
        raise ValueError(
            f"contract {path!r}: {entry.describe()} has leak_class "
            f"{entry.leak_class!r}; expected one of {', '.join(LEAK_CLASSES)}"
        )
    if not entry.reason.strip():
        raise ValueError(f"contract {path!r}: {entry.describe()} has no reason")
    if entry.leak_class_source not in ("dataflow", "heuristic"):
        raise ValueError(
            f"contract {path!r}: {entry.describe()} has leak_class_source "
            f"{entry.leak_class_source!r}; expected 'dataflow' or 'heuristic'"
        )
    expected = (REFUTED,) if section == "refuted" else _ENTRY_VERDICTS
    if entry.verdict not in expected:
        raise ValueError(
            f"contract {path!r}: {entry.describe()} has verdict "
            f"{entry.verdict!r}; expected one of {', '.join(expected)}"
        )
    return entry


def load_contract(path: str) -> Contract:
    """Read and validate a contract file (ValueError when malformed)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("version") not in _ACCEPTED_VERSIONS:
        raise ValueError(f"unsupported contract format in {path!r}")
    if not isinstance(data.get("entries"), list):
        raise ValueError(f"contract {path!r} has no 'entries' list")
    coverage = data.get("coverage_prefixes", list(DEFAULT_COVERAGE))
    if not isinstance(coverage, list) or not all(isinstance(c, str) for c in coverage):
        raise ValueError(f"contract {path!r}: 'coverage_prefixes' must be strings")
    contract = Contract(
        coverage_prefixes=tuple(coverage),
        oracle_meta=dict(data.get("oracle", {})),
    )
    for raw in data["entries"]:
        contract.entries.append(_parse_entry(raw, path, "entries"))
    for raw in data.get("refuted", []):
        contract.refuted.append(_parse_entry(raw, path, "refuted"))
    contract.variants = parse_variants(data.get("variants", {}), path, LEAK_CLASSES)
    return contract


def render_contract(contract: Contract) -> str:
    def encode(entry: ContractEntry) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": entry.rule,
            "path": entry.path,
            "function": entry.function,
            "line_text": entry.line_text,
            "leak_class": entry.leak_class,
            "leak_class_source": entry.leak_class_source,
            "reason": entry.reason,
            "verdict": entry.verdict,
        }
        if entry.occurrence:
            out["occurrence"] = entry.occurrence
        return out

    def order(entry: ContractEntry) -> tuple[str, str, str, str, int]:
        return (entry.path, entry.rule, entry.function, entry.line_text, entry.occurrence)

    doc: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "coverage_prefixes": list(contract.coverage_prefixes),
        "entries": [encode(e) for e in sorted(contract.entries, key=order)],
    }
    if contract.refuted:
        doc["refuted"] = [encode(e) for e in sorted(contract.refuted, key=order)]
    if contract.oracle_meta:
        doc["oracle"] = contract.oracle_meta
    if contract.variants:
        doc["variants"] = render_variants(contract.variants)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# -- leak-class inference --------------------------------------------------

_SIGN_TOKENS = ("sx", "sy", "s_b", "s_s", "sign", "coeff < 0")
_EXP_TOKENS = ("be", "exp", "drop", "shift", "e >= 0", "e & 1", "e // 2", "extra")

#: rules the keyword fallback still serves. The component lattice fully
#: covers the other SF rules — SF002/SF005 findings carry lattice- or
#: masking-derived evidence by construction, SF004/SF006 fire on
#: annotated/pragma'd lines whose class the annotation review settles —
#: so the keyword heuristic is retired for them: a new finding there
#: defaults straight to ``ancillary`` until the lattice or review
#: refines it, instead of guessing from line tokens.
HEURISTIC_FALLBACK_RULES = frozenset({"SF001", "SF003"})


def infer_leak_class(rule: str, rel_path: str, function: str, line_text: str) -> str:
    """Default paper leak class for a finding (review can override)."""
    if rule not in HEURISTIC_FALLBACK_RULES:
        return "ancillary"
    short = function.rsplit(".", 1)[-1]
    if rel_path.startswith("fpr/"):
        tokens = f"{line_text} {short}"
        if any(t in line_text for t in _SIGN_TOKENS) or line_text.strip() in ("if s:", "s,"):
            return "sign"
        if short in ("decompose", "_unpack_normal", "compose"):
            return "exponent"
        if any(t in tokens for t in _EXP_TOKENS):
            return "exponent"
        if "mul" in short:
            return "mantissa-mul"
        if short in ("fpr_add", "fpr_sub", "fpr_add_trace"):
            return "mantissa-add"
        return "ancillary"
    if rel_path == "falcon/sign.py" and short == "sign_target":
        return "mantissa-mul"      # the FFT(c) ⊙ FFT(f) product itself
    if rel_path == "falcon/compress.py" and "coeff < 0" in line_text:
        return "sign"
    return "ancillary"


_REASON_TEMPLATES: tuple[tuple[str, str], ...] = (
    ("fpr/", "faithful model of the leaky double-precision path the paper attacks"),
    ("falcon/ntru_solve.py", "keygen-time NTRU solving on secret (f, g); out of the signing-time threat model but kept as honest inventory"),
    ("falcon/keygen.py", "keygen-time arithmetic on freshly sampled secrets; reached once per key"),
    ("math/ntt.py", "modular reduction on secret polynomial coefficients; Python % is variable-time"),
    ("math/poly.py", "polynomial arithmetic over secret coefficients during keygen"),
    ("math/fft.py", "FFT butterflies over secret-derived floats"),
    ("falcon/", "signing-path arithmetic over secret-derived values; the leakage the repro intentionally models"),
    ("", "accepted secret-dependent flow in the modeled attack surface"),
)


def _default_reason(rel_path: str) -> str:
    for prefix, reason in _REASON_TEMPLATES:
        if rel_path.startswith(prefix):
            return reason
    return _REASON_TEMPLATES[-1][1]


# -- construction ----------------------------------------------------------


def build_contract(
    findings: Iterable[Finding],
    root: str,
    report: OracleReport | None = None,
    previous: Contract | None = None,
    coverage_prefixes: tuple[str, ...] = DEFAULT_COVERAGE,
) -> Contract:
    """Triaged contract for the current findings.

    Leak classes and reasons are carried over from ``previous`` when the
    fingerprint still matches, otherwise inferred (and meant to be
    reviewed). With an oracle ``report``, REFUTED findings move to the
    ``refuted`` section; UNREACHED ones stay in ``entries`` with their
    failing verdict so ``verify`` flags them until triaged.
    """
    prev_entries: dict[Fingerprint, ContractEntry] = {}
    if previous is not None:
        prev_entries.update(previous.entry_map())
        prev_entries.update(previous.refuted_map())
    contract = Contract(coverage_prefixes=tuple(coverage_prefixes))
    if previous is not None:
        # variant claims are hand-authored; a rebuild must not drop them
        contract.variants = dict(previous.variants)
    if report is not None:
        contract.oracle_meta = {
            "backend": report.backend,
            "python": report.python,
            "n": report.n,
            "seeds": list(report.seeds),
        }
    for f in assign_occurrences(list(findings)):
        fp = fingerprint(f, root)
        rule, rel, function, line_text, occurrence = fp
        prev = prev_entries.get(fp)
        if report is not None and rule.startswith("SF"):
            site = f"{rel}:{f.line}"
            verdict = report.verdict(site)
        elif rule.startswith("SF"):
            # static-only refresh: carry the recorded verdict (a rebuild
            # without the oracle must not resurrect a refuted chain as
            # CONFIRMED), default to CONFIRMED only for new findings
            verdict = prev.verdict if prev is not None else CONFIRMED
        else:
            verdict = "N/A"
        if f.leak_class:
            leak_class, leak_source = f.leak_class, "dataflow"
        elif prev is not None:
            leak_class, leak_source = prev.leak_class, "heuristic"
        else:
            leak_class = infer_leak_class(rule, rel, function, line_text)
            leak_source = "heuristic"
        entry = ContractEntry(
            rule=rule,
            path=rel,
            function=function,
            line_text=line_text,
            occurrence=occurrence,
            leak_class=leak_class,
            reason=prev.reason if prev else _default_reason(rel),
            verdict=verdict,
            leak_class_source=leak_source,
        )
        if verdict == REFUTED:
            contract.refuted.append(entry)
        else:
            contract.entries.append(entry)
    return contract


# -- enforcement -----------------------------------------------------------


def _violation(rule: str, path: str, message: str, line: int = 0) -> Finding:
    return Finding(rule=rule, path=path, line=line, col=0, message=message)


def verify_contract(
    findings: Iterable[Finding],
    contract: Contract,
    root: str,
    contract_path: str = "leakage-contract.json",
    report: OracleReport | None = None,
) -> list[Finding]:
    """Contract violations (CT001–CT007) for the current findings.

    Without an oracle ``report`` the recorded verdicts are enforced;
    with one, fresh verdicts override recorded ones and declassify
    liveness inside the coverage boundary is checked too.
    """
    violations: list[Finding] = []
    entry_map = contract.entry_map()
    refuted_map = contract.refuted_map()
    matched: set[Fingerprint] = set()
    numbered = assign_occurrences(list(findings))

    def check_leak_class(entry: ContractEntry, f: Finding) -> None:
        """CT006: the recorded class must match the inferred one."""
        if not f.rule.startswith("SF"):
            return
        inferred = f.leak_class or infer_leak_class(
            entry.rule, entry.path, entry.function, entry.line_text
        )
        source = "dataflow" if f.leak_class else "heuristic"
        if inferred and entry.leak_class != inferred:
            violations.append(_violation(
                "CT006", f.path, line=f.line,
                message=f"{entry.describe()}: recorded leak_class "
                f"{entry.leak_class!r} disagrees with the {source}-inferred "
                f"class {inferred!r} — fix the entry or document the lattice "
                "refinement",
            ))
        elif entry.leak_class_source == "dataflow" and not f.leak_class:
            violations.append(_violation(
                "CT006", f.path, line=f.line,
                message=f"{entry.describe()}: recorded as dataflow-derived but "
                "the taint lattice no longer resolves a component for it — "
                "re-derive the entry (leak_class_source: heuristic) or fix the "
                "lattice regression",
            ))

    for f in numbered:
        fp = fingerprint(f, root)
        rel = fp[1]
        site = f"{rel}:{f.line}"
        fresh = None
        if report is not None and f.rule.startswith("SF"):
            fresh = report.verdict(site)
        if fp in entry_map:
            matched.add(fp)
            entry = entry_map[fp]
            check_leak_class(entry, f)
            verdict = fresh if fresh is not None else entry.verdict
            if verdict in (UNREACHED, REFUTED):
                qualifier = "fresh oracle" if fresh is not None else "recorded"
                violations.append(_violation(
                    "CT003", f.path, line=f.line,
                    message=f"{entry.describe()}: {qualifier} verdict is {verdict}; "
                    "re-triage the entry (fix the workload gap or move it to 'refuted')",
                ))
        elif fp in refuted_map:
            matched.add(fp)
            check_leak_class(refuted_map[fp], f)
            if fresh == CONFIRMED:
                violations.append(_violation(
                    "CT004", f.path, line=f.line,
                    message=f"{refuted_map[fp].describe()} is listed as refuted but "
                    "the fresh oracle verdict is CONFIRMED — the chain is live",
                ))
        else:
            suffix = f" (oracle verdict: {fresh})" if fresh is not None else ""
            violations.append(_violation(
                "CT001", f.path, line=f.line,
                message=f"finding not covered by the leakage contract: {f.rule} "
                f"{f.message}{suffix} — triage it into {contract_path}",
            ))

    for fp, entry in sorted({**entry_map, **refuted_map}.items()):
        if fp not in matched:
            violations.append(_violation(
                "CT002", contract_path,
                message=f"stale contract entry: {entry.describe()} matches no "
                "current finding — remove it",
            ))

    if report is not None:
        for key, result in sorted(report.declassify.items()):
            rel = key.rsplit(":", 1)[0]
            if contract.covers(rel) and result.status != LIVE:
                violations.append(_violation(
                    "CT005", os.path.join(root, rel),
                    line=int(key.rsplit(":", 1)[1]),
                    message=f"dead declassify at {key}: the annotated scope never "
                    "executed under the oracle workload — remove the annotation "
                    "or extend the workload",
                ))

    def classify(f: Finding) -> str:
        if f.leak_class:
            return f.leak_class
        rel = os.path.relpath(f.path, root).replace(os.sep, "/")
        return infer_leak_class(
            f.rule, rel, f.function or "", normalize_line(f.source_line or "")
        )

    violations.extend(
        check_variants_static(numbered, contract.variants, root, classify)
    )
    return violations
