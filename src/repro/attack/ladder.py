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

The ladder only has to keep the true limb's alias class inside its beam,
since that prune re-ranks the alias-expanded survivors on every trace
row. So it scores its stages on the first ``ROWS`` rows of each segment
(the paper sees the mantissa addition become significant after about 1k
traces). If the best final candidate's score, averaged over its
(segment, step) terms, does not clear the 99.99% Fisher-z bound of that
prefix, the ladder reruns on twice the rows, up to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.distinguisher import Step, score_steps
from repro.attack.hypotheses import hyp_product, known_limbs
from repro.leakage.traceset import TraceSet
from repro.utils.stats import fisher_z_threshold

__all__ = ["LadderStage", "LadderResult", "ladder_limb"]

#: (step label, which known limb multiplies the secret limb there)
LOW_LIMB_STEPS = (("p_ll", "lo"), ("p_lh", "hi"))
HIGH_LIMB_STEPS = (("p_hl", "lo"), ("p_hh", "hi"))

#: Bits added per stage, survivors carried between stages, and
#: candidates kept after the last stage. Each stage extends every
#: survivor by all 2^WINDOW values of its next window; the paper instead
#: enumerates the 2^25 / 2^27 limb spaces exhaustively on a workstation.
#: ROWS is the first prefix of each segment the stages are scored on.
WINDOW = 5
BEAM = 32
KEEP = 32
ROWS = 1500


@dataclass
class LadderStage:
    """Diagnostics for one extension stage."""

    covered_bits: int
    candidates: np.ndarray       # (C,) candidate limb values (low covered_bits)
    scores: np.ndarray           # (C,) combined CPA scores
    survivors: np.ndarray        # best candidates carried forward, best-first


@dataclass
class LadderResult:
    """Final candidates best-first, their final-stage scores, per-stage
    diagnostics, and the rows per segment the stages were scored on."""

    candidates: np.ndarray
    scores: np.ndarray
    stages: list[LadderStage]
    n_rows: int

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
    """Recover candidates for one secret limb of ``total_bits`` bits.

    Scores on the first ``ROWS`` rows of each segment, doubling the
    prefix while the best candidate's mean per-term score stays at or
    below the Fisher-z bound of the prefix (see the module docstring).
    """
    if total_bits < 1:
        raise ValueError(f"total_bits must be >= 1, got {total_bits}")
    full = max(seg.n_traces for seg in traceset.segments)
    rows = min(ROWS, full)
    while True:
        prefix = traceset.head(rows)
        candidates, scores, stages = _ladder(
            prefix, steps, total_bits, window, beam, keep, distinguisher
        )
        mean_best = scores[0] / (len(prefix.segments) * len(steps))
        bound = fisher_z_threshold(min(seg.n_traces for seg in prefix.segments))
        if rows >= full or mean_best > bound:
            return LadderResult(candidates, scores, stages, n_rows=rows)
        rows = min(2 * rows, full)


def _ladder(
    traceset: TraceSet,
    steps: tuple[tuple[str, str], ...],
    total_bits: int,
    window: int,
    beam: int,
    keep: int,
    distinguisher,
) -> tuple[np.ndarray, np.ndarray, list[LadderStage]]:
    """One ladder pass over every row of ``traceset``: the final candidates
    best-first, their scores, and the stages."""
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
    return survivors, kept_scores[order], stages
