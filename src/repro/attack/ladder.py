"""LSB-to-MSB candidate ladder over a secret mantissa limb.

The paper enumerates all 2^25 (low limb) and 2^27 (high limb) guesses on
a workstation. The ladder reaches the same candidates with laptop-sized
work by exploiting a carry property of multiplication: the low m bits of
``secret * known`` depend only on the low m bits of the secret. Guesses
are therefore extended ``window`` bits at a time, scored by CPA with
HW((guess * known) mod 2^m) hypotheses against the partial-product
samples, and only the ``beam`` best survivors are carried forward.

This is itself an extend-and-prune in the template-attack sense; the
paper's *novel* extend-and-prune (multiplication -> addition re-ranking,
:mod:`repro.attack.extend_prune`) is applied after the ladder to kill
the shift-aliased false positives that survive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.distinguisher import Step, score_steps
from repro.attack.hypotheses import hyp_product, known_limbs
from repro.leakage.traceset import TraceSet

__all__ = ["LadderStage", "LadderResult", "ladder_limb"]

#: (step label, which known limb multiplies the secret limb there)
LOW_LIMB_STEPS = (("p_ll", "lo"), ("p_lh", "hi"))
HIGH_LIMB_STEPS = (("p_hl", "lo"), ("p_hh", "hi"))

#: Bits added per stage, survivors carried between stages, and
#: candidates kept after the last stage. Each stage extends every
#: survivor by all 2^WINDOW values of its next window; the paper instead
#: enumerates the 2^25 / 2^27 limb spaces exhaustively on a workstation.
WINDOW = 5
BEAM = 32
KEEP = 32


@dataclass
class LadderStage:
    """Diagnostics for one extension stage."""

    covered_bits: int
    candidates: np.ndarray       # (C,) candidate limb values (low covered_bits)
    scores: np.ndarray           # (C,) combined CPA scores
    survivors: np.ndarray        # best candidates carried forward, best-first


@dataclass
class LadderResult:
    """Final candidates best-first, their final-stage scores, and per-stage diagnostics."""

    candidates: np.ndarray
    scores: np.ndarray
    stages: list[LadderStage]

    @property
    def best(self) -> int:
        return int(self.candidates[0])


def _product_step(label: str, which: str, mask_bits: int) -> Step:
    """HW of the partial product at ``label``, masked to ``mask_bits``.

    A masked prediction cannot be aligned with full-value HW classes, so
    the ladder scores with ``exact=False``: profiled distinguishers fall
    back to correlation here.
    """
    limb = ("lo", "hi").index(which)
    return label, lambda y, c: hyp_product(known_limbs(y)[limb], c, mask_bits=mask_bits)


def ladder_limb(
    traceset: TraceSet,
    steps: tuple[tuple[str, str], ...],
    total_bits: int,
    window: int = WINDOW,
    beam: int = BEAM,
    keep: int = KEEP,
    distinguisher=None,
) -> LadderResult:
    """Recover candidates for one secret limb of ``total_bits`` bits."""
    if total_bits < 1:
        raise ValueError(f"total_bits must be >= 1, got {total_bits}")
    survivors = np.array([0], dtype=np.uint64)
    stages: list[LadderStage] = []
    covered = 0
    while covered < total_bits:
        step_bits = min(window, total_bits - covered)
        ext = np.arange(1 << step_bits, dtype=np.uint64) << np.uint64(covered)
        cands = np.unique((survivors[:, None] | ext[None, :]).ravel())
        covered += step_bits
        scores, _ = score_steps(
            traceset, [_product_step(label, which, covered) for label, which in steps],
            cands, distinguisher, exact=False,
        )
        order = np.argsort(-scores, kind="stable")
        n_keep = keep if covered >= total_bits else beam
        kept = cands[order[:n_keep]]
        # A secret limb whose low bits are zero produces a constant (all
        # zero) masked-product hypothesis at the early stages — zero
        # correlation by construction, not evidence against it. The
        # zero-extension of every previous survivor is therefore
        # unfalsified at this stage and must stay alive until the first
        # nonzero secret bit gives it a real score.
        kept = np.unique(np.concatenate([kept, survivors]))
        # Each kept value is a candidate of this stage (a survivor is its
        # own zero extension), so each has a score; order best-first.
        kept_scores = scores[np.searchsorted(cands, kept)]
        order = np.argsort(-kept_scores, kind="stable")
        survivors = kept[order]
        stages.append(LadderStage(covered, cands, scores, survivors))
    return LadderResult(candidates=survivors, scores=kept_scores[order], stages=stages)
