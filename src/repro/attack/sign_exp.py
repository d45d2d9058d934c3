"""Sign-bit and exponent DEMA (the remaining fields of Figure 2).

* Exponent: the softfloat adds the two 11-bit biased exponents; with
  E_y known, CPA over the 2^11 guesses of E_x on HW(E_x + E_y) at the
  exponent-addition sample recovers E_x. Because the known exponents of
  FFT(c) concentrate in a narrow band, the raw-sum hypotheses of nearby
  guesses are strongly collinear; when the mantissa has already been
  recovered (the attack order of :mod:`repro.attack.coefficient`), the
  *output* exponent E_out = E_x + E_y - 1023 + carry is predicted
  exactly per trace — the normalization/rounding carry follows from the
  recovered significand and the known operand — and correlating that
  second intermediate breaks the collinearity.

* Sign: the result sign is s_x XOR s_y with s_y known. The two
  hypotheses are exact complements, so their correlations are mirror
  images ("the sign-bit leakage is symmetric"); per the paper, the
  correct guess is the one with *positive* correlation at the leakage
  point, hence the signed ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.attack.cpa import CpaResult
from repro.attack.distinguisher import score_steps
from repro.attack.hypotheses import hyp_exp_biased, hyp_exp_out, hyp_exp_sum, hyp_sign
from repro.falcon.params import Q
from repro.leakage.traceset import TraceSet

__all__ = [
    "SignRecovery",
    "ExponentRecovery",
    "recover_sign",
    "recover_exponent",
    "EXPONENT_GUESSES",
    "EXPONENT_LIST",
]

#: Biased-exponent guesses [lo, hi) the exponent CPA scans: 1023 +/- 60
#: octaves, wide enough to hold every 16/32/64-octave alias of a
#: plausible FFT(f) double, so the scores show the alias ties.
EXPONENT_GUESSES = (963, 1084)

#: Standard deviation of an FFT(f) double, 64.85 at every n: a slot's
#: Re/Im parts have variance (n/2) sigma_fg^2, sigma_fg = 1.17 sqrt(q/2n).
_SIGMA = 1.17 * math.sqrt(Q) / 2

#: Weight of the magnitude log-prior (nats) against the combined score.
#: Fixed on the n8-key seeds; see EXPERIMENTS.md.
_PRIOR_WEIGHT = 2e-3

#: ``_PRIOR_WEIGHT`` * log P(e) per guess e: P(e) is the chance that an
#: N(0, _SIGMA^2) double has biased exponent e (erf below 1, erfc above,
#: so neither difference cancels); -inf from e = 1035 up, past keygen.
with np.errstate(divide="ignore"):
    _LOG_PRIOR = _PRIOR_WEIGHT * np.log([
        math.erf(2 * x) - math.erf(x) if x < 1 else math.erfc(x) - math.erfc(2 * x)
        for x in np.ldexp(1.0, np.arange(*EXPONENT_GUESSES) - 1023) / (_SIGMA * math.sqrt(2))])

#: Exponent guesses per double in the key decoder's candidate lists.
EXPONENT_LIST = 12

#: Score gap that still counts as a tie: guesses 16/32/64 apart tie exactly
#: (HW-vs-E_y profiles differ by a constant), up to float summation order.
_TIE = 1e-9


def _tie_groups(total: np.ndarray) -> np.ndarray:
    """Per guess, the rank of its tie group: scores sorted best first
    start a new group wherever they drop by more than ``_TIE``."""
    order = np.argsort(-total, kind="stable")
    tie_group = np.empty(len(total), dtype=np.int64)
    tie_group[order] = np.cumsum(np.diff(total[order], prepend=total[order[0]]) < -_TIE)
    return tie_group


def _ranked(total: np.ndarray) -> np.ndarray:
    """Indices of the :data:`EXPONENT_GUESSES` by posterior score, the
    combined score plus :data:`_LOG_PRIOR`, then by score: the prior breaks
    alias ties and small gaps, and nothing is dropped."""
    return np.lexsort((-total, -(total + _LOG_PRIOR)))


@dataclass
class SignRecovery:
    bit: int
    results: list[CpaResult]

    @property
    def score(self) -> float:
        return float(sum(r.scores[r.guesses == self.bit][0] for r in self.results))

    @property
    def margin(self) -> float:
        """Combined-score gap between the chosen bit and its complement."""
        other = float(sum(r.scores[r.guesses == (1 - self.bit)][0] for r in self.results))
        return self.score - other


@dataclass
class ExponentRecovery:
    biased_exponent: int
    results: list[CpaResult] = field(repr=False)
    combined_scores: np.ndarray = field(repr=False)
    guesses: np.ndarray = field(repr=False)

    def __repr__(self) -> str:
        return (
            f"ExponentRecovery(biased_exponent={self.biased_exponent}, "
            f"guesses.shape={self.guesses.shape}, results={len(self.results)}, "
            f"margin={self.margin:.4g})"
        )

    def top_candidates(self, k: int) -> list[int]:
        """The first k exponent guesses in the attack's order, by posterior
        score (:func:`_ranked`). The first is :attr:`biased_exponent`.
        Aliasing occasionally demotes the truth; the key decoder
        (repro.attack.key_recovery.repair_exponents) searches these lists
        and the public key verifies its answer."""
        ranked = _ranked(self.combined_scores)
        return [int(self.guesses[i]) for i in ranked[:k]]

    @property
    def margin(self) -> float:
        """Combined-score gap between the best guess and the best guess
        outside its tie group. The 16/32/64-octave aliases that tie the
        winner exactly are the decoder's to resolve, not evidence
        against it, so they do not shrink the margin to zero."""
        rest = self.combined_scores[_tie_groups(self.combined_scores) > 0]
        if not len(rest):
            return float("inf")
        return float(self.combined_scores.max() - rest.max())


def recover_sign(traceset: TraceSet, distinguisher=None) -> SignRecovery:
    """Recover s_x from the sign_out leakage.

    The sign hypotheses of the two guesses are exact complements, so
    correlation-style distinguishers must rank on *signed* correlation
    (the paper's symmetric-leakage rule); likelihood-based
    distinguishers are asymmetric by construction and need no special
    casing — both are scored with ``signed=True``.
    """
    total, results = score_steps(
        traceset, [("sign_out", lambda y, _g: hyp_sign(y))], np.array([0, 1]),
        distinguisher, signed=True,
    )
    return SignRecovery(bit=int(np.argmax(total)), results=results)


def recover_exponent(
    traceset: TraceSet, significand: int | None = None, distinguisher=None
) -> ExponentRecovery:
    """Recover the biased exponent E_x from the :data:`EXPONENT_GUESSES`.

    Always correlates the raw exponent sum (``exp_sum``) and the rebiased
    word (``exp_biased``). When the 53-bit ``significand`` recovered by
    the mantissa attack is supplied, additionally correlates the
    exactly-predicted output exponent (``exp_out``), which carries far
    more guess-separating variation. The 16/32/64-octave aliases tie
    exactly, so the public magnitude prior picks among them
    (:func:`_ranked`).
    """
    guesses = np.arange(*EXPONENT_GUESSES, dtype=np.uint64)
    steps = [("exp_sum", hyp_exp_sum), ("exp_biased", hyp_exp_biased)]
    if significand is not None:
        steps.append(("exp_out", lambda y, g: hyp_exp_out(y, g, significand)))
    total, results = score_steps(traceset, steps, guesses, distinguisher)
    return ExponentRecovery(
        biased_exponent=int(guesses[_ranked(total)[0]]),
        results=results,
        combined_scores=total,
        guesses=guesses,
    )
