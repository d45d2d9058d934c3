"""SARIF 2.1.0 renderer for ``repro.sast`` (``--format sarif``).

One ``run`` per invocation: the tool driver carries the full rule
catalog, each finding becomes a ``result`` with a physical location
(root-relative URI against the ``SRCROOT`` base), and taint chains are
exported as ``codeFlows``/``threadFlows`` so SARIF viewers can step
through the propagation evidence hop by hop. Findings accepted by the
leakage contract are emitted with a ``suppressions`` entry (kind
``external``, the reviewed reason as justification) instead of being
dropped, which is the SARIF-native way to say "known and triaged".

Only the subset of SARIF the repo needs is produced; the structural
invariants are pinned by ``tests/test_sast_sarif.py`` against the
2.1.0 specification (schema-validated shape, hand-checked — the
``jsonschema`` package is deliberately not a dependency).
"""

from __future__ import annotations

import json
import os
import re
from typing import TYPE_CHECKING, Any, Iterable

from repro.sast.findings import RULES, Finding, sort_findings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sast.contract import Contract

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: rule id -> SARIF level; contract violations and malformed annotations
#: block the gate outright, everything else is a warning to triage
_ERROR_RULES = ("CT", "AN", "BL")

#: taint-chain hops end in "(path:line)" when the evidence is located
_HOP_LOCATION = re.compile(r"\((?P<path>[^()]+\.py):(?P<line>\d+)\)\s*$")


def _level(rule: str) -> str:
    return "error" if rule.startswith(_ERROR_RULES) else "warning"


def _rel_uri(path: str, root: str) -> str:
    rel = os.path.relpath(path, root) if os.path.isabs(path) else path
    return rel.replace(os.sep, "/")


def _location(uri: str, line: int, col: int = 0) -> dict[str, Any]:
    region: dict[str, Any] = {"startLine": max(line, 1)}
    if col:
        region["startColumn"] = col
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": uri, "uriBaseId": "SRCROOT"},
            "region": region,
        }
    }


def _code_flow(finding: Finding, root: str) -> dict[str, Any]:
    locations: list[dict[str, Any]] = []
    for i, hop in enumerate(finding.taint_chain):
        kinds = ["taint"]
        kinds.append("source" if i == 0 else
                     "sink" if i == len(finding.taint_chain) - 1 else "call")
        entry: dict[str, Any] = {
            "importance": "essential",
            "location": {"message": {"text": hop}},
            "kinds": kinds,
        }
        m = _HOP_LOCATION.search(hop)
        if m:
            entry["location"].update(
                _location(_rel_uri(m.group("path"), root), int(m.group("line")))
            )
        locations.append(entry)
    return {"threadFlows": [{"locations": locations}]}


def render_sarif(
    findings: Iterable[Finding],
    root: str,
    contract: "Contract | None" = None,
    suppressed: Iterable[tuple[Finding, str]] = (),
) -> str:
    """SARIF 2.1.0 log for a finding set.

    ``suppressed`` pairs each contract-accepted finding with its reviewed
    justification; those results carry a ``suppressions`` entry so SARIF
    consumers show them as triaged instead of outstanding. A
    ``contract`` adds its entry counts and coverage to the run's
    properties.
    """
    rule_ids = sorted(RULES)
    rule_index = {rule: i for i, rule in enumerate(rule_ids)}

    results: list[dict[str, Any]] = []
    ordered = [(f, None) for f in sort_findings(list(findings))]
    ordered += [(f, why) for f, why in suppressed]
    for finding, justification in ordered:
        uri = _rel_uri(finding.path, root)
        result: dict[str, Any] = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": _level(finding.rule),
            "message": {"text": finding.message},
            "locations": [_location(uri, finding.line, finding.col)],
        }
        if finding.function:
            result["properties"] = {"function": finding.function}
        if finding.taint_chain:
            result["codeFlows"] = [_code_flow(finding, root)]
        if justification is not None:
            result["suppressions"] = [
                {"kind": "external", "justification": justification}
            ]
        results.append(result)

    driver: dict[str, Any] = {
        "name": "repro-sast",
        "informationUri": "https://example.invalid/repro-sast",
        "semanticVersion": "1.0.0",
        "rules": [
            {
                "id": rule,
                "shortDescription": {"text": RULES[rule]},
                "defaultConfiguration": {"level": _level(rule)},
            }
            for rule in rule_ids
        ],
    }
    run: dict[str, Any] = {
        "tool": {"driver": driver},
        "columnKind": "unicodeCodePoints",
        "originalUriBaseIds": {
            "SRCROOT": {"uri": "file://" + os.path.abspath(root).rstrip("/") + "/"}
        },
        "results": results,
    }
    if contract is not None:
        run["properties"] = {
            "leakageContract": {
                "entries": len(contract.entries),
                "refuted": len(contract.refuted),
                "coverage_prefixes": list(contract.coverage_prefixes),
            }
        }
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(log, indent=1, sort_keys=True)
