"""Leakage contract: schema validation, construction, and the verify gate.

Two layers again: fast unit tests over synthetic contracts, and two
*planted-defect* acceptance tests that copy the real ``src/repro`` tree,
introduce a regression (a new secret branch / a dead declassify scope),
and check that ``repro-sast verify --oracle`` turns red.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from tests.sast_util import by_rule, findings_for, load_fixture, write_package

from repro.sast.cli import collect_findings, main
from repro.sast.contract import (
    Contract,
    ContractEntry,
    assign_occurrences,
    build_contract,
    fingerprint,
    infer_leak_class,
    load_contract,
    render_contract,
    verify_contract,
)
from repro.sast.findings import EXIT_CLEAN, EXIT_FINDINGS, Finding

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CONTRACT = os.path.join(_REPO_ROOT, "leakage-contract.json")


def _entry(**kw) -> ContractEntry:
    base = dict(
        rule="SF001", path="falcon/sign.py", function="repro.falcon.sign.sign",
        line_text="if c0 > 0:", occurrence=0, leak_class="ancillary",
        reason="test entry", verdict="CONFIRMED",
    )
    base.update(kw)
    return ContractEntry(**base)


def _finding(entry: ContractEntry, root: str, line: int = 10) -> Finding:
    return Finding(
        rule=entry.rule, path=os.path.join(root, entry.path), line=line, col=4,
        message="m", function=entry.function, source_line=entry.line_text,
    )


# -- schema ----------------------------------------------------------------


def test_contract_round_trip(tmp_path):
    contract = Contract(
        entries=[_entry(), _entry(rule="DT002", verdict="N/A", occurrence=2)],
        refuted=[_entry(path="falcon/keygen.py", verdict="REFUTED")],
        oracle_meta={"backend": "settrace", "n": 8},
    )
    path = str(tmp_path / "contract.json")
    with open(path, "w") as fh:
        fh.write(render_contract(contract))
    loaded = load_contract(path)
    assert loaded.entry_map() == contract.entry_map()
    assert loaded.refuted_map() == contract.refuted_map()
    assert loaded.coverage_prefixes == contract.coverage_prefixes
    assert loaded.oracle_meta == contract.oracle_meta

    # older files carry per-entry "exploitability" blocks: they still
    # load, and re-rendering drops the blocks and nothing else
    doc = json.loads(render_contract(contract))
    for raw in doc["entries"]:
        raw["exploitability"] = {"entry_id": "14d8f9c87b91", "score": 6.18}
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc))
    reloaded = load_contract(str(legacy))
    assert reloaded.entry_map() == contract.entry_map()
    assert reloaded.refuted_map() == contract.refuted_map()
    assert render_contract(reloaded) == render_contract(contract)
    assert "exploitability" not in render_contract(reloaded)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["entries"][0].update(leak_class="bogus"), "leak_class"),
        (lambda d: d["entries"][0].update(reason="  "), "no reason"),
        (lambda d: d["entries"][0].update(verdict="MAYBE"), "verdict"),
        (lambda d: d.update(version=99), "unsupported"),
        (lambda d: d.update(coverage_prefixes=[1]), "coverage_prefixes"),
        (lambda d: d["refuted"][0].update(verdict="CONFIRMED"), "verdict"),
    ],
)
def test_contract_validation_errors(tmp_path, mutate, fragment):
    doc = json.loads(render_contract(Contract(
        entries=[_entry()], refuted=[_entry(verdict="REFUTED")],
    )))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=fragment):
        load_contract(str(path))


def test_infer_leak_class_taxonomy():
    assert infer_leak_class("SF001", "fpr/emu.py", "repro.fpr.emu.fpr_mul", "if sx:") == "sign"
    assert infer_leak_class("SF003", "fpr/emu.py", "repro.fpr.emu.decompose", "m = x & MASK") == "exponent"
    assert infer_leak_class("SF003", "fpr/emu.py", "repro.fpr.emu.fpr_mul", "z = a * b") == "mantissa-mul"
    assert infer_leak_class("SF001", "fpr/emu.py", "repro.fpr.emu.fpr_add", "if m:") == "mantissa-add"
    assert infer_leak_class("SF001", "falcon/sign.py", "repro.falcon.sign.sign_target", "t1 = c_fft * f_fft") == "mantissa-mul"
    assert infer_leak_class("SF001", "falcon/compress.py", "repro.falcon.compress.compress", "if coeff < 0:") == "sign"
    assert infer_leak_class("SF003", "math/ntt.py", "repro.math.ntt.ntt", "x % q") == "ancillary"


# -- construction ----------------------------------------------------------


def test_build_contract_carries_reviewed_fields_forward(tmp_path):
    root = str(tmp_path / "pkg")
    entry = _entry(leak_class="sign", reason="hand-reviewed: models the sign leak")
    previous = Contract(entries=[entry])
    contract = build_contract([_finding(entry, root)], root, previous=previous)
    assert len(contract.entries) == 1
    rebuilt = contract.entries[0]
    assert rebuilt.leak_class == "sign"
    assert rebuilt.reason == "hand-reviewed: models the sign leak"
    assert rebuilt.verdict == "CONFIRMED"      # static refresh keeps the claim


def test_build_contract_infers_for_new_findings(tmp_path):
    root = str(tmp_path / "pkg")
    entry = _entry(path="fpr/emu.py", function="repro.fpr.emu.fpr_add", line_text="if m:")
    contract = build_contract([_finding(entry, root)], root)
    assert contract.entries[0].leak_class == "mantissa-add"
    assert "double-precision" in contract.entries[0].reason


# -- enforcement (synthetic) -----------------------------------------------


def test_verify_flags_untriaged_and_stale_and_failing_verdicts(tmp_path):
    root = str(tmp_path / "pkg")
    covered = _entry()
    unreached = _entry(
        path="fpr/emu.py", line_text="if s:", leak_class="sign", verdict="UNREACHED"
    )
    stale = _entry(path="math/ntt.py", line_text="gone")
    new = _entry(path="falcon/keygen.py", line_text="if sk.g[0]:")
    contract = Contract(entries=[covered, unreached, stale])
    findings = [_finding(covered, root), _finding(unreached, root), _finding(new, root)]
    violations = verify_contract(findings, contract, root)
    assert sorted(v.rule for v in violations) == ["CT001", "CT002", "CT003"]
    by_rule = {v.rule: v for v in violations}
    assert "falcon/keygen.py" in by_rule["CT001"].path
    assert "math/ntt.py" in by_rule["CT002"].message
    assert "UNREACHED" in by_rule["CT003"].message


def test_verify_clean_when_contract_matches(tmp_path):
    root = str(tmp_path / "pkg")
    entry = _entry()
    contract = Contract(entries=[entry])
    assert verify_contract([_finding(entry, root)], contract, root) == []


# -- fingerprint matching ----------------------------------------------------

_LEAKY = """\
def leak(sk):
    if sk.f[0] > 0:
        return 1
    return 0
"""


def _findings_and_root(tmp_path, files, package="pkg"):
    project = load_fixture(tmp_path, files, package)
    return collect_findings(project), project.root


def test_fingerprint_survives_line_drift(tmp_path):
    findings, root = _findings_and_root(tmp_path / "a", {"leak.py": _LEAKY})
    contract = build_contract(findings, root)
    # prepend a docstring + helper: every line number shifts, the
    # fingerprint (function, normalized line text) does not
    shifted = '"""Docstring pushing everything down."""\n\nX = 1\n\n' + _LEAKY
    moved, moved_root = _findings_and_root(tmp_path / "b", {"leak.py": shifted})
    assert [f.line for f in moved] != [f.line for f in findings]
    assert verify_contract(moved, contract, moved_root) == []


def test_editing_the_flagged_line_invalidates_the_entry(tmp_path):
    findings, root = _findings_and_root(tmp_path / "a", {"leak.py": _LEAKY})
    contract = build_contract(findings, root)
    edited = _LEAKY.replace("sk.f[0] > 0", "sk.f[1] > 0")
    new, new_root = _findings_and_root(tmp_path / "b", {"leak.py": edited})
    violations = verify_contract(new, contract, new_root)
    # the edited finding is untriaged again and the old entry is stale
    assert sorted(v.rule for v in violations) == (
        ["CT001"] * len(new) + ["CT002"] * len(contract.entries)
    )


def test_occurrences_disambiguate_identical_lines(tmp_path):
    src = """\
    def twice(sk):
        a = sk.f[0] % 3
        a = sk.f[0] % 3
        return a
    """
    findings = by_rule(findings_for(tmp_path, {"dup.py": src}), "SF003")
    assert len(findings) == 2
    fps = {fingerprint(f, str(tmp_path)) for f in assign_occurrences(findings)}
    assert len(fps) == 2                   # occurrence index separates them
    assert {fp[4] for fp in fps} == {0, 1}


# -- planted-defect acceptance tests (real tree + dynamic oracle) ----------


def _copy_repro(tmp_path) -> str:
    src = os.path.join(_REPO_ROOT, "src", "repro")
    dst = os.path.join(str(tmp_path), "repro")
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_committed_contract_matches_current_findings(repo_sast_cache):
    """Static gate on the real tree: recorded verdicts, no violations."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    assert main(["verify", root, "--contract", _CONTRACT,
                 "--cache", repo_sast_cache]) == EXIT_CLEAN


def test_planted_secret_branch_is_confirmed_and_fails_verify(tmp_path, capsys):
    """A new secret-dependent branch in falcon.sign must (a) be reached by
    the oracle workload with key-dependent operands (CONFIRMED) and
    (b) fail the gate as untriaged (CT001)."""
    root = _copy_repro(tmp_path)
    sign_py = os.path.join(root, "falcon", "sign.py")
    with open(sign_py, encoding="utf-8") as fh:
        src = fh.read()
    planted = (
        "    params = sk.params\n"
        "    c0 = sk.f[0]\n"
        "    if c0 > 0:\n"
        "        pass\n"
    )
    assert "    params = sk.params\n" in src
    with open(sign_py, "w", encoding="utf-8") as fh:
        fh.write(src.replace("    params = sk.params\n", planted, 1))

    assert main(["verify", root, "--contract", _CONTRACT, "--oracle"]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "CT001" in out.out
    assert "oracle verdict: CONFIRMED" in out.out
    assert "violation" in out.err


def test_planted_dead_declassify_fails_verify(tmp_path, capsys):
    """A declassify scope inside the coverage boundary that the workload
    never executes must fail the oracle-backed gate (CT005)."""
    root = _copy_repro(tmp_path)
    write_package(root, {os.path.join("falcon", "_planted.py"): """\
        def helper(flags):  # sast: declassify(reason=planted: never executed)
            return sum(flags)
        """})

    assert main(["verify", root, "--contract", _CONTRACT, "--oracle"]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "CT005" in out.out
    assert "_planted" in out.out
    assert "never executed" in out.out.lower() or "never" in out.out


def test_recorded_refuted_verdict_fails_verify_without_oracle(tmp_path):
    """Static-only mode enforces recorded verdicts: an entry recorded as
    REFUTED (left in 'entries' instead of the 'refuted' section) is a
    CT003 violation even when the oracle does not run."""
    root = str(tmp_path / "pkg")
    entry = _entry(verdict="REFUTED")
    contract = Contract(entries=[entry])
    violations = verify_contract([_finding(entry, root)], contract, root)
    assert [v.rule for v in violations] == ["CT003"]
    assert "REFUTED" in violations[0].message
