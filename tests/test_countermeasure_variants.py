"""Countermeasure variants: bit-exactness against the fpr emulator and
the end-to-end CT007 drift gates (static plant + dynamic plant).

The bit-exactness tests are the functional contract: a countermeasure
that changes results is not a countermeasure, it is a different
multiplier. The planted-defect tests exercise ``repro-sast verify
--variant`` the way the planted CT001/CT005 tests exercise the baseline
gate.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.countermeasures.ct_mul import ct_fpr_mul
from repro.countermeasures.masked_mul import (
    MaskContext,
    RandomMaskSource,
    SimulationMaskSource,
    masked_fpr_mul,
)
from repro.countermeasures.workload import (
    run_ct_workload,
    run_masked_workload,
    variant_patterns,
)
from repro.fpr.emu import MANT_BITS, SIGN_BIT, compose, fpr_mul
from repro.sast.cli import main
from repro.sast.findings import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CONTRACT = os.path.join(_REPO_ROOT, "leakage-contract.json")

_MANT_MASK = (1 << MANT_BITS) - 1

#: zeros, smallest/largest normals, and overflow/underflow boundary
#: exponents — the places a reimplementation most plausibly diverges
_EDGE_PATTERNS = [
    0,
    SIGN_BIT,                                  # -0.0
    compose(0, 1, 0),                          # min normal
    compose(1, 1, 0),
    compose(0, 2046, _MANT_MASK),              # max normal
    compose(1, 2046, _MANT_MASK),
    compose(0, 1023, 0),                       # 1.0
    compose(1, 1023, _MANT_MASK),
    compose(0, 2046, 0),
    compose(0, 1, _MANT_MASK),
]


def _fuzz_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)

    def pat() -> int:
        return compose(
            rng.getrandbits(1), rng.randint(1, 2046), rng.getrandbits(MANT_BITS)
        )

    pairs = [(a, b) for a in _EDGE_PATTERNS for b in _EDGE_PATTERNS]
    pairs += [(pat(), pat()) for _ in range(count)]
    pairs += [(pat(), e) for e in _EDGE_PATTERNS for _ in (0,)]
    return pairs


@pytest.mark.parametrize(
    "source_factory",
    [
        lambda: None,                       # default RandomMaskSource
        lambda: RandomMaskSource(seed=97),
        lambda: SimulationMaskSource(seed=41),
    ],
    ids=["default", "random-source", "simulation-source"],
)
def test_masked_mul_bit_exact(source_factory):
    source = source_factory()
    for x, y in _fuzz_pairs(seed=1337, count=800):
        assert masked_fpr_mul(x, y, source) == fpr_mul(x, y), (hex(x), hex(y))


def test_ct_mul_bit_exact():
    for x, y in _fuzz_pairs(seed=2024, count=800):
        assert ct_fpr_mul(x, y) == fpr_mul(x, y), (hex(x), hex(y))


def test_mask_context_tracks_labels():
    ctx = MaskContext(RandomMaskSource(seed=7))
    m = ctx.fresh_mask("reg", 0x1234, 16)
    assert ctx.mask_of("reg") == m
    assert 0 <= m < (1 << 16)
    with pytest.raises(KeyError):
        ctx.mask_of("missing")


def test_simulation_source_shares_are_key_independent():
    """The simulation coupling makes every share equal the fixed mask
    stream: two different secrets blind to the same share sequence."""
    a = SimulationMaskSource(seed=11)
    b = SimulationMaskSource(seed=11)
    for value_a, value_b in [(0x5555, 0xAAAA), (1, 2), (0xDEAD, 0xBEEF)]:
        share_a = value_a ^ a.fresh_mask(value_a, 16)
        share_b = value_b ^ b.fresh_mask(value_b, 16)
        assert share_a == share_b


def test_variant_patterns_fix_zero_schedule():
    """Zeros sit at fixed slots so the fresh_mask draw schedule is
    key-independent; all key-derived patterns are nonzero normals."""

    class _SK:
        f = list(range(-4, 4))
        g = list(range(3, 11))

    pats = variant_patterns(_SK())
    assert pats[-2:] == [0, 1 << 63]
    for p in pats[:-2]:
        assert p != 0
        assert 1 <= (p >> 52) & 0x7FF <= 2046


def test_workloads_smoke():
    run_masked_workload("unit", 8)
    run_ct_workload("unit", 8)


# -- CT007 end-to-end gates ------------------------------------------------


def _copy_repro(tmp_path) -> str:
    src = os.path.join(_REPO_ROOT, "src", "repro")
    dst = os.path.join(str(tmp_path), "repro")
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def _edit(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    assert old in src
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(src.replace(old, new, 1))


def test_variant_static_verify_is_clean(repo_sast_cache):
    root = os.path.join(_REPO_ROOT, "src", "repro")
    args = ["verify", root, "--contract", _CONTRACT, "--cache", repo_sast_cache]
    assert main([*args, "--variant", "masked-mul"]) == EXIT_CLEAN
    assert main([*args, "--variant", "ct-mul"]) == EXIT_CLEAN


def test_unknown_variant_is_an_error(tmp_path, capsys):
    """Rejected before any analysis: the cache file is never written."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    cache = tmp_path / "cache.json"
    assert (
        main(["verify", root, "--contract", _CONTRACT, "--variant", "nope",
              "--cache", str(cache)])
        == EXIT_ERROR
    )
    assert "contract defines" in capsys.readouterr().err
    assert not cache.exists()


def test_variant_write_contract_rejected(tmp_path, capsys):
    """Rejected before any analysis: the cache file is never written."""
    root = os.path.join(_REPO_ROOT, "src", "repro")
    cache = tmp_path / "cache.json"
    assert (
        main([
            "verify", root, "--contract", _CONTRACT,
            "--variant", "masked-mul", "--write-contract",
            "--cache", str(cache),
        ])
        == EXIT_ERROR
    )
    assert "--write-contract" in capsys.readouterr().err
    assert not cache.exists()


def test_planted_secret_branch_in_variant_is_drift(tmp_path, capsys):
    """A new secret-dependent branch inside masked_fpr_mul fails the
    *static* gate twice over: untriaged finding (CT001) and a finding
    outside the variant's residual list (CT007)."""
    root = _copy_repro(tmp_path)
    _edit(
        os.path.join(root, "countermeasures", "masked_mul.py"),
        "    sx, bex, fx = decompose(x)\n",
        "    sx, bex, fx = decompose(x)\n"
        "    if fx > 0:\n"
        "        pass\n",
    )
    assert main(["verify", root, "--contract", _CONTRACT]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "CT007" in out.out
    assert "drift" in out.out


@pytest.mark.slow
def test_planted_unmasked_register_fails_dynamic_gate(tmp_path, capsys):
    """A statically invisible unmask (peeking a share's clear value into
    a local) must be caught by the dynamic replay: the planted line
    digests key-dependently but is not an accepted clear-boundary line."""
    root = _copy_repro(tmp_path)
    _edit(
        os.path.join(root, "countermeasures", "masked_mul.py"),
        "    e_s = ",
        "    probe = mx_s ^ ctx.mask_of(\"mx\")\n"
        "    probe = probe & ((1 << 53) - 1)\n"
        "    e_s = ",
    )
    assert (
        main([
            "verify", root, "--contract", _CONTRACT,
            "--variant", "masked-mul", "--oracle",
        ])
        == EXIT_FINDINGS
    )
    out = capsys.readouterr()
    assert "CT007" in out.out
    assert "probe" in out.out
