"""The straightforward attack of Section III-B — and why it fails.

Attacking the mantissa *multiplication* alone ranks guesses by CPA with
HW(guess * known) hypotheses. Multiplication output Hamming weights are
shift invariant: HW((2D) * B) = HW(D * B) for every B (the product merely
shifts left), so the guesses D, 2D, 4D, ... D/2 ... produce *identical*
hypothesis vectors and therefore exactly equal correlations — the "top-5
guesses are actually exactly the same" of the paper's Figure 4(c).

:func:`shift_aliases` enumerates that alias class; the tests and the
FIG4c bench assert the tie is exact and that the addition step breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.cpa import CpaResult
from repro.attack.distinguisher import CpaDistinguisher
from repro.attack.hypotheses import hyp_product, known_limbs
from repro.leakage.traceset import TraceSet

__all__ = ["shift_aliases", "straightforward_mantissa_attack", "StrawmanResult"]


def shift_aliases(value: int, width: int) -> list[int]:
    """All left/right shifts of ``value`` representable in ``width`` bits.

    These are the false-positive companions of a multiplication-only
    attack (plus ``value`` itself, first).
    """
    if value <= 0:
        return [value]
    out = [value]
    v = value
    while v & 1 == 0:
        v >>= 1
        out.append(v)
    v = value
    while (v << 1) < (1 << width):
        v <<= 1
        out.append(v)
    return out


@dataclass
class StrawmanResult:
    """Outcome of the multiplication-only attack."""

    cpa: CpaResult
    tied_top: np.ndarray       # guesses whose score ties the best (exact FP set)
    correct_in_tie: bool

    @property
    def has_false_positives(self) -> bool:
        return len(self.tied_top) > 1


def straightforward_mantissa_attack(
    traceset: TraceSet,
    guesses: np.ndarray,
    true_limb: int | None = None,
    step: str = "p_ll",
    which_known: str = "lo",
    segment: int = 0,
    tie_tolerance: float = 1e-9,
) -> StrawmanResult:
    """CPA on one mantissa partial product over an explicit guess space.

    ``guesses`` is the enumerated candidate set (the paper uses the full
    2^25 space; benches use a subspace containing the true value and its
    shift aliases — the tie structure is identical). Scoring is classic
    CPA (:class:`repro.attack.distinguisher.CpaDistinguisher`): the
    strawman's defect is *where* it looks, not how it ranks.
    """
    seg = traceset.segments[segment]
    y_lo, y_hi = known_limbs(seg.known_y)
    known = y_lo if which_known == "lo" else y_hi
    hyp = hyp_product(known, guesses, mask_bits=None)
    window = seg.traces[:, traceset.layout.slice_of(step)]
    cpa = CpaDistinguisher().score(hyp, window, guesses, label=step, exact=False)
    best = cpa.scores.max()
    tied = cpa.guesses[np.abs(cpa.scores - best) <= tie_tolerance]
    correct = bool(true_limb is not None and true_limb in set(int(g) for g in tied))
    return StrawmanResult(cpa=cpa, tied_top=tied, correct_in_tie=correct)
