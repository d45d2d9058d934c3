"""Masking-aware taint (share/mask kinds, SF005/SF006), the component
lattice behind leak-class inference, and the CT007 variant drift checks.

Fixture tests pin exact rule IDs and line numbers; lattice tests pass a
custom :class:`TaintConfig` so fixture qualnames act as component
sources the way ``repro.fpr.emu.decompose`` does in the real tree.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from tests.sast_util import by_rule, findings_for, line_of, load_fixture

from repro.sast.cli import main
from repro.sast.findings import EXIT_CLEAN, EXIT_FINDINGS, Finding
from repro.sast.taint import TaintConfig, run_taint
from repro.sast.variants import (
    ResidualRecord,
    VariantSpec,
    check_variants_static,
    normalize_line,
    parse_variants,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CONTRACT = os.path.join(_REPO_ROOT, "leakage-contract.json")


# -- share/mask kinds ------------------------------------------------------


def test_blinded_value_is_share_and_stays_quiet(tmp_path):
    """secret ^ fresh mask degrades to a share: branching on it or
    feeding it to a variable-time op is statistically safe and must not
    fire SF001/SF003."""
    src = """\
    def blind(sk, ctx):
        m = ctx.fresh_mask("m", sk.f[0], 64)
        s = sk.f[0] ^ m
        if s & 1:
            acc = 1
        q = s % 3
        return q
    """
    findings = findings_for(tmp_path, {"masked.py": src})
    assert by_rule(findings, "SF001") == []
    assert by_rule(findings, "SF003") == []
    assert by_rule(findings, "SF005") == []


def test_unblinded_control_still_fires(tmp_path):
    """Same flow without the blind: the baseline rules must still see
    the raw secret (the share exemption is not a blanket waiver)."""
    src = """\
    def leak(sk):
        s = sk.f[0]
        if s & 1:
            acc = 1
        q = s % 3
        return q
    """
    findings = findings_for(tmp_path, {"raw.py": src})
    assert [f.line for f in by_rule(findings, "SF001")] == [line_of(src, "if s & 1")]
    assert [f.line for f in by_rule(findings, "SF003")] == [line_of(src, "q = s % 3")]


def test_mask_reuse_fires_sf005(tmp_path):
    """One fresh_mask call site blinding two distinct secrets is mask
    reuse: the XOR of the two shares would cancel the mask."""
    src = """\
    def reuse(sk, ctx):
        m = ctx.fresh_mask("m", 0, 64)
        a = sk.f[0] ^ m
        b = sk.g[0] ^ m
        return a, b
    """
    findings = findings_for(tmp_path, {"reuse.py": src})
    sf = by_rule(findings, "SF005")
    assert [f.line for f in sf] == [line_of(src, "b = sk.g[0] ^ m")]
    assert "reuse" in sf[0].message.lower()


def test_share_recombination_restores_secret(tmp_path):
    """XORing a share with the mask that blinds it re-exposes the
    secret: SF005 at the unmask, then SF001 on the recovered value."""
    src = """\
    def unmask(sk, ctx):
        m = ctx.fresh_mask("m", 0, 64)
        a = sk.f[0] ^ m
        v = a ^ m
        if v & 1:
            acc = 1
        return acc
    """
    findings = findings_for(tmp_path, {"unmask.py": src})
    assert [f.line for f in by_rule(findings, "SF005")] == [line_of(src, "v = a ^ m")]
    assert [f.line for f in by_rule(findings, "SF001")] == [line_of(src, "if v & 1")]


def test_sibling_shares_with_common_mask_recombine(tmp_path):
    """Share mask-sets accumulate through re-blinds, so the XOR of two
    shares whose histories overlap cancels the common mask (SF005) and
    the result is secret again."""
    src = """\
    def fold(sk, ctx):
        m1 = ctx.fresh_mask("m1", 0, 64)
        a = sk.f[0] ^ m1
        m2 = ctx.fresh_mask("m2", 0, 64)
        b = a ^ m2
        d = a ^ b
        if d & 1:
            acc = 1
        return acc
    """
    findings = findings_for(tmp_path, {"fold.py": src})
    assert [f.line for f in by_rule(findings, "SF005")] == [line_of(src, "d = a ^ b")]
    assert [f.line for f in by_rule(findings, "SF001")] == [line_of(src, "if d & 1")]


# -- component lattice / leak-class inference ------------------------------


_LATTICE_CONFIG = TaintConfig(
    component_sources={"pkg.fp.decompose": ("sign", "exponent", "mantissa")},
    source_components={"pkg.samp.draw": "sampler"},
)

_FP_SRC = """\
def decompose(x):  # sast: source
    return (x >> 63) & 1, (x >> 52) & 2047, x & 4503599627370495
"""


def _lattice_findings(tmp_path, use_src: str) -> list[Finding]:
    project = load_fixture(
        tmp_path, {"fp.py": _FP_SRC, "use.py": use_src}
    )
    return run_taint(project, _LATTICE_CONFIG)


def test_mantissa_product_classifies_mantissa_mul(tmp_path):
    src = """\
    from pkg.fp import decompose

    def step(x, y):
        sx, ex, mx = decompose(x)
        sy, ey, my = decompose(y)
        if mx * my:
            acc = 1
        return acc
    """
    sf = by_rule(_lattice_findings(tmp_path, src), "SF001")
    assert [(f.line, f.leak_class) for f in sf] == [
        (line_of(src, "if mx * my"), "mantissa-mul")
    ]


def test_mantissa_sum_classifies_mantissa_add(tmp_path):
    src = """\
    from pkg.fp import decompose

    def step(x, y):
        sx, ex, mx = decompose(x)
        sy, ey, my = decompose(y)
        if mx + my:
            acc = 1
        return acc
    """
    sf = by_rule(_lattice_findings(tmp_path, src), "SF001")
    assert [(f.line, f.leak_class) for f in sf] == [
        (line_of(src, "if mx + my"), "mantissa-add")
    ]


def test_exponent_arithmetic_keeps_exponent_class(tmp_path):
    src = """\
    from pkg.fp import decompose

    def step(x, y):
        sx, ex, mx = decompose(x)
        sy, ey, my = decompose(y)
        if ex + ey - 1023:
            acc = 1
        return acc
    """
    sf = by_rule(_lattice_findings(tmp_path, src), "SF001")
    assert [(f.line, f.leak_class) for f in sf] == [
        (line_of(src, "if ex + ey"), "exponent")
    ]


def test_sign_bit_branch_classifies_sign(tmp_path):
    src = """\
    from pkg.fp import decompose

    def step(x):
        sx, ex, mx = decompose(x)
        if sx:
            acc = 1
        return acc
    """
    sf = by_rule(_lattice_findings(tmp_path, src), "SF001")
    assert [(f.line, f.leak_class) for f in sf] == [(line_of(src, "if sx"), "sign")]


def test_mixed_component_join_drops_to_generic(tmp_path):
    """Exponent x mantissa has no common datapath ancestor: the finding
    carries no leak class, so the contract falls back to the keyword
    heuristic (leak_class_source: heuristic)."""
    src = """\
    from pkg.fp import decompose

    def step(x):
        sx, ex, mx = decompose(x)
        if ex * mx:
            acc = 1
        return acc
    """
    sf = by_rule(_lattice_findings(tmp_path, src), "SF001")
    assert [(f.line, f.leak_class) for f in sf] == [(line_of(src, "if ex * mx"), "")]


def test_sampler_source_classifies_ancillary(tmp_path):
    src = """\
    def draw(u):  # sast: source
        return u * 3
    """
    use = """\
    from pkg.samp import draw

    def consume(u):
        z = draw(u)
        q = z % 7
        return q
    """
    project = load_fixture(tmp_path, {"samp.py": src, "use.py": use})
    sf = by_rule(run_taint(project, _LATTICE_CONFIG), "SF003")
    assert [(f.line, f.leak_class) for f in sf] == [
        (line_of(use, "q = z % 7"), "ancillary")
    ]


# -- constant-time dialect (SF006, strict discharging) ---------------------


def test_constant_time_pragma_strictness(tmp_path):
    """The same flows in a plain module and a ``# sast: constant-time``
    module: the pragma disables interval discharging (SF003 fires on a
    bounded mod) and flags secret-bounded loops (SF006)."""
    plain = textwrap.dedent("""\
    def scan(sk):
        acc = 0
        for i in range(sk.f[0] & 7):
            acc += i
        q = (sk.f[1] & 7) % 4
        return acc + q
    """)
    strict = "# sast: constant-time\n" + plain
    findings = findings_for(tmp_path, {"plain.py": plain, "strict.py": strict})

    plain_f = [f for f in findings if f.path.endswith("plain.py")]
    strict_f = [f for f in findings if f.path.endswith("strict.py")]

    # interval discharge keeps the bounded mod quiet outside the dialect
    assert by_rule(plain_f, "SF003") == []
    assert by_rule(plain_f, "SF006") == []

    assert [f.line for f in by_rule(strict_f, "SF003")] == [
        line_of(strict, "% 4")
    ]
    sf6 = by_rule(strict_f, "SF006")
    assert [f.line for f in sf6] == [line_of(strict, "for i in range")]
    assert "loop" in sf6[0].message.lower()


# -- CT006: leak-class drift in the committed contract ---------------------


def test_planted_wrong_leak_class_fails_verify(tmp_path, repo_sast_cache, capsys):
    """Flipping a dataflow-classed contract entry to a different class
    must fail the static gate with CT006."""
    with open(_CONTRACT, encoding="utf-8") as fh:
        doc = json.load(fh)
    flipped = None
    for entry in doc["entries"]:
        if entry.get("leak_class_source") == "dataflow":
            entry["leak_class"] = (
                "sign" if entry["leak_class"] != "sign" else "exponent"
            )
            flipped = entry
            break
    assert flipped is not None
    contract_path = os.path.join(str(tmp_path), "contract.json")
    with open(contract_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    root = os.path.join(_REPO_ROOT, "src", "repro")
    assert main(["verify", root, "--contract", contract_path,
                 "--cache", repo_sast_cache]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "CT006" in out.out
    assert flipped["line_text"] in out.out


# -- CT007: variant spec parsing and static drift --------------------------


def _spec(**overrides) -> VariantSpec:
    base = dict(
        name="masked-mul",
        module="countermeasures/masked_mul.py",
        entry="repro.countermeasures.masked_mul.masked_fpr_mul",
        workload_module="repro.countermeasures.workload",
        workload_func="run_masked_workload",
        classes_absent=("mantissa-mul",),
        residual=(
            ResidualRecord("SF001", "f.masked_fpr_mul", "if is_zero(x):"),
        ),
    )
    base.update(overrides)
    return VariantSpec(**base)


def _variant_finding(root: str, **overrides) -> Finding:
    base = dict(
        rule="SF001",
        path=os.path.join(root, "countermeasures", "masked_mul.py"),
        line=10,
        col=1,
        message="secret branch",
        function="f.masked_fpr_mul",
        source_line="if is_zero(x):",
        leak_class="",
    )
    base.update(overrides)
    return Finding(**base)


def test_variant_residual_finding_is_accepted(tmp_path):
    root = str(tmp_path)
    spec = _spec()
    violations = check_variants_static(
        [_variant_finding(root)], {spec.name: spec}, root, lambda f: f.leak_class
    )
    assert violations == []


def test_variant_unexpected_finding_is_drift(tmp_path):
    root = str(tmp_path)
    spec = _spec()
    extra = _variant_finding(root, source_line="if fx > 0:", line=42)
    violations = check_variants_static(
        [_variant_finding(root), extra], {spec.name: spec}, root,
        lambda f: f.leak_class,
    )
    assert [f.rule for f in violations] == ["CT007"]
    assert "drift" in violations[0].message
    assert violations[0].line == 42


def test_variant_absent_class_violation(tmp_path):
    """A finding classified into a claimed-absent class breaks the
    variant claim even if its shape matches the residual list."""
    root = str(tmp_path)
    spec = _spec()
    bad = _variant_finding(root, leak_class="mantissa-mul")
    violations = check_variants_static(
        [bad], {spec.name: spec}, root, lambda f: f.leak_class
    )
    assert [f.rule for f in violations] == ["CT007"]
    assert "mantissa-mul" in violations[0].message


def test_variant_stale_residual_is_flagged(tmp_path):
    root = str(tmp_path)
    spec = _spec()
    violations = check_variants_static([], {spec.name: spec}, root, lambda f: "")
    assert [f.rule for f in violations] == ["CT007"]
    assert "stale" in violations[0].message


def test_parse_variants_validation():
    classes = ("sign", "exponent", "mantissa-mul", "mantissa-add", "ancillary")
    good = {
        "m": {
            "module": "countermeasures/masked_mul.py",
            "entry": "repro.countermeasures.masked_mul.masked_fpr_mul",
            "workload": {"module": "w", "func": "run"},
            "classes_absent": ["sign"],
            "residual": [
                {"rule": "SF001", "function": "f", "line_text": "if x:"}
            ],
            "dynamic": {"mode": "confirmed", "residual_lines": ["a  b"]},
        }
    }
    specs = parse_variants(good, "c.json", classes)
    assert specs["m"].dynamic_mode == "confirmed"
    assert specs["m"].dynamic_residual == ("a b",)
    assert specs["m"].residual[0].key() == ("SF001", "f", "if x:")

    def rejects(mutate, match):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(ValueError, match=match):
            parse_variants(bad, "c.json", classes)

    rejects(lambda d: d["m"].pop("workload"), "missing 'workload'")
    rejects(
        lambda d: d["m"].__setitem__("classes_absent", ["mantissa"]),
        "unknown leak class",
    )
    rejects(
        lambda d: d["m"]["dynamic"].__setitem__("mode", "quiet"),
        "dynamic mode",
    )
    rejects(
        lambda d: d["m"]["residual"].__setitem__(0, {"rule": "SF001"}),
        "residual records",
    )


def test_normalize_line_collapses_whitespace():
    assert normalize_line("  a   =  b ^ m\n") == "a = b ^ m"
