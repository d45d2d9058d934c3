"""``repro-sast`` CLI: exit-code contract, JSON output, repo gate."""

from __future__ import annotations

import json
import os

from tests.sast_util import line_of, write_package

from repro.sast.cache import run_with_cache
from repro.sast.cli import main
from repro.sast.findings import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, RULES
from repro.sast.project import load_project

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LEAKY = """\
def leak(sk):
    if sk.f[0] > 0:
        return 1
    return 0
"""

_CLEAN = """\
def fine(values):
    return sum(values)
"""


def _pkg(tmp_path, files, name="pkg"):
    root = os.path.join(str(tmp_path), name)
    os.makedirs(root, exist_ok=True)
    write_package(root, files)
    return root


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    root = _pkg(tmp_path, {"ok.py": _CLEAN})
    assert main([root]) == EXIT_CLEAN
    assert capsys.readouterr().out == ""


def test_exit_one_on_findings(tmp_path, capsys):
    root = _pkg(tmp_path, {"leak.py": _LEAKY})
    assert main([root]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "SF001" in out.out
    assert "finding" in out.err


def test_exit_two_on_bad_root(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_exit_two_on_unknown_rule_filter(tmp_path, capsys):
    root = _pkg(tmp_path, {"ok.py": _CLEAN})
    assert main([root, "--rules", "SF001,NOPE9"]) == EXIT_ERROR
    assert "NOPE9" in capsys.readouterr().err


def test_rule_filter_restricts_report(tmp_path, capsys):
    root = _pkg(tmp_path, {"leak.py": _LEAKY})
    assert main([root, "--rules", "DT001"]) == EXIT_CLEAN


def test_json_format_golden(tmp_path, capsys):
    root = _pkg(tmp_path, {"leak.py": _LEAKY})
    assert main([root, "--format", "json"]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"findings", "count"}
    assert payload["count"] == len(payload["findings"]) == 1
    f = payload["findings"][0]
    assert f["rule"] == "SF001"
    assert f["path"].endswith("leak.py")
    assert f["line"] == line_of(_LEAKY, "if sk.f[0]")
    assert f["function"] == "pkg.leak.leak"
    assert "SecretKey.f" in f["taint_chain"][0]


def test_json_format_clean_tree(tmp_path, capsys):
    root = _pkg(tmp_path, {"ok.py": _CLEAN})
    assert main([root, "--format", "json"]) == EXIT_CLEAN
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "count": 0}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_repo_gate_is_green(repo_sast_cache):
    """src/repro + the committed leakage contract must be clean (what
    `make sast` and the CI job enforce, recorded verdicts)."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    contract = os.path.join(_REPO_ROOT, "leakage-contract.json")
    assert main(["verify", root, "--contract", contract,
                 "--cache", repo_sast_cache]) == EXIT_CLEAN


def test_repo_contract_documents_only_the_attack_surface(repo_sast_cache):
    """Accepted findings live exclusively in the faithfully-leaky layers
    (falcon/, fpr/, math/) plus the masked variant's recorded clear
    boundary — everything else must stay finding-free."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    findings, _ = run_with_cache(load_project(root, package="repro"), repo_sast_cache)
    prefixes = {os.path.relpath(f.path, root).split(os.sep)[0] for f in findings}
    assert prefixes <= {"falcon", "fpr", "math", "countermeasures"}
    # the only countermeasures finding is the masked multiplier's zero
    # test on the unblinded inputs (the contract's residual record)
    residual = [
        f for f in findings
        if os.path.relpath(f.path, root).split(os.sep)[0] == "countermeasures"
    ]
    assert [(f.rule, os.path.basename(f.path)) for f in residual] == [
        ("SF001", "masked_mul.py")
    ]


def test_repo_contract_entries_are_fully_triaged():
    """Every committed contract entry carries a paper leak class, a
    reviewed reason, and a passing oracle verdict; the refuted section
    records proven-independent chains only."""
    from repro.sast.contract import LEAK_CLASSES, load_contract

    contract = load_contract(os.path.join(_REPO_ROOT, "leakage-contract.json"))
    assert contract.entries, "committed contract must not be empty"
    for entry in contract.entries:
        assert entry.leak_class in LEAK_CLASSES
        assert entry.reason.strip()
        assert entry.verdict in ("CONFIRMED", "N/A")
        assert entry.verdict == ("CONFIRMED" if entry.rule.startswith("SF") else "N/A")
    for entry in contract.refuted:
        assert entry.verdict == "REFUTED"
    # the keygen NTRU sanity check is the known honest refutation
    assert any(e.path == "falcon/keygen.py" for e in contract.refuted)

