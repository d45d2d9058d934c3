"""SARIF 2.1.0 output: structural validation against the spec.

``jsonschema`` is deliberately not a dependency, so the required-shape
rules of the SARIF 2.1.0 schema that the repo relies on are enforced by
a hand-written structural validator: every emitted log must pass
``validate_sarif`` before a viewer or code-scanning upload sees it.
"""

from __future__ import annotations

import json
import os

from tests.sast_util import write_package

from repro.sast.cli import collect_findings, main
from repro.sast.contract import build_contract, load_contract, render_contract
from repro.sast.findings import EXIT_CLEAN, EXIT_FINDINGS, RULES
from repro.sast.project import load_project

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LEAKY = """\
def leak(sk):
    if sk.f[0] > 0:
        return sk.f[1] % 3
    return 0
"""

_LEVELS = {"none", "note", "warning", "error"}
_SUPPRESSION_KINDS = {"inSource", "external"}


def validate_sarif(doc: dict) -> None:
    """Assert the SARIF 2.1.0 structural invariants this repo relies on."""
    assert doc["version"] == "2.1.0"
    assert isinstance(doc["$schema"], str) and "sarif-schema-2.1.0" in doc["$schema"]
    assert isinstance(doc["runs"], list) and doc["runs"]
    for run in doc["runs"]:
        driver = run["tool"]["driver"]
        assert isinstance(driver["name"], str) and driver["name"]
        rules = driver.get("rules", [])
        rule_ids = [r["id"] for r in rules]
        assert len(set(rule_ids)) == len(rule_ids)
        for rule in rules:
            assert isinstance(rule["id"], str) and rule["id"]
            assert rule["shortDescription"]["text"]
        bases = run.get("originalUriBaseIds", {})
        for base in bases.values():
            assert base["uri"].endswith("/")       # spec: directory URIs
        for result in run.get("results", []):
            assert isinstance(result["message"]["text"], str)
            assert result["message"]["text"]
            assert result.get("level", "warning") in _LEVELS
            if "ruleIndex" in result and result["ruleIndex"] >= 0:
                assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            for loc in result.get("locations", []):
                phys = loc["physicalLocation"]
                art = phys["artifactLocation"]
                assert not art["uri"].startswith("/") and "\\" not in art["uri"]
                if "uriBaseId" in art:
                    assert art["uriBaseId"] in bases
                assert phys["region"]["startLine"] >= 1
                if "startColumn" in phys["region"]:
                    assert phys["region"]["startColumn"] >= 1
            for flow in result.get("codeFlows", []):
                assert flow["threadFlows"]
                for thread in flow["threadFlows"]:
                    assert thread["locations"]
                    for tfl in thread["locations"]:
                        assert tfl["location"]["message"]["text"]
            for sup in result.get("suppressions", []):
                assert sup["kind"] in _SUPPRESSION_KINDS
                assert sup.get("justification", "x")


def _pkg(tmp_path, files, name="pkg"):
    root = os.path.join(str(tmp_path), name)
    os.makedirs(root, exist_ok=True)
    write_package(root, files)
    return root


def test_sarif_log_validates_and_carries_code_flows(tmp_path, capsys):
    root = _pkg(tmp_path, {"leak.py": _LEAKY})
    assert main([root, "--format", "sarif"]) == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    validate_sarif(doc)
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"SF001", "SF003"}
    sf001 = next(r for r in results if r["ruleId"] == "SF001")
    # taint chains become threadFlows, source hop first
    flow = sf001["codeFlows"][0]["threadFlows"][0]["locations"]
    assert "source" in flow[0]["kinds"]
    assert "sink" in flow[-1]["kinds"]
    assert "SecretKey" in flow[0]["location"]["message"]["text"]
    # the rule catalog rides along in full
    assert [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]] == sorted(RULES)


def test_sarif_clean_tree_is_valid_and_empty(tmp_path, capsys):
    root = _pkg(tmp_path, {"ok.py": "def f(v):\n    return v\n"})
    assert main([root, "--format", "sarif"]) == EXIT_CLEAN
    doc = json.loads(capsys.readouterr().out)
    validate_sarif(doc)
    assert doc["runs"][0]["results"] == []


def test_sarif_contract_suppressions(tmp_path, capsys):
    root = _pkg(tmp_path, {"leak.py": _LEAKY})
    findings = collect_findings(load_project(root))
    contract = tmp_path / "contract.json"
    contract.write_text(render_contract(build_contract(findings, root)))
    assert main(["verify", root, "--contract", str(contract),
                 "--format", "sarif"]) == EXIT_CLEAN
    doc = json.loads(capsys.readouterr().out)
    validate_sarif(doc)
    results = doc["runs"][0]["results"]
    assert results, "suppressed findings must still appear in the log"
    assert all(r["suppressions"][0]["kind"] == "external" for r in results)


def test_verify_sarif_on_real_tree_suppresses_contract_entries(repo_sast_cache, capsys):
    """`verify --format sarif` on the committed tree: zero outstanding
    results, every contract-accepted finding present as suppressed."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    contract = os.path.join(_REPO_ROOT, "leakage-contract.json")
    assert main(["verify", root, "--contract", contract, "--format", "sarif",
                 "--cache", repo_sast_cache]) == EXIT_CLEAN
    doc = json.loads(capsys.readouterr().out)
    validate_sarif(doc)
    run = doc["runs"][0]
    outstanding = [r for r in run["results"] if "suppressions" not in r]
    assert outstanding == []
    suppressed = [r for r in run["results"] if "suppressions" in r]
    meta = run["properties"]["leakageContract"]
    assert len(suppressed) == meta["entries"] + meta["refuted"]
    assert meta["coverage_prefixes"] == ["falcon/", "fpr/", "math/"]
    # each suppression is one contract entry's reviewed reason, and the
    # results carry the rule's level, no severity score
    shipped = load_contract(contract)
    justifications = sorted(
        r["suppressions"][0]["justification"] for r in suppressed
    )
    assert justifications == sorted(
        e.reason for e in shipped.entries + shipped.refuted
    )
    assert all(r["suppressions"][0]["kind"] == "external" for r in suppressed)
    for r in run["results"]:
        assert "security-severity" not in r.get("properties", {})
        assert r["level"] == ("error" if r["ruleId"].startswith(("CT", "AN", "BL"))
                              else "warning")
