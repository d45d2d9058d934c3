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
from repro.leakage.traceset import TraceSet

__all__ = [
    "SignRecovery",
    "ExponentRecovery",
    "recover_sign",
    "recover_exponent",
    "fft_f_exponent_scale",
    "EXPONENT_GUESSES",
]

#: Biased-exponent guesses [lo, hi) an FFT(f) coefficient can take. f has
#: small integer coefficients (|f_i| <= 127), so |FFT(f)_k| lies within a
#: few dozen octaves of 1. Guesses far outside that band are aliases of
#: in-band values (their HW-vs-E_y profiles differ only by a constant
#: over the narrow observed exponent window) and are physically
#: impossible.
EXPONENT_GUESSES = (963, 1084)


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
        """The k best exponent guesses, best first.

        Residual aliasing among exponent hypotheses (narrow known-operand
        exponent support) occasionally demotes the true value below rank
        1; key recovery resolves those cases algebraically from the
        candidate lists (see repro.attack.key_recovery.repair_exponents).
        """
        order = np.argsort(-self.combined_scores, kind="stable")[:k]
        return [int(self.guesses[i]) for i in order]

    @property
    def margin(self) -> float:
        """Combined-score gap between the best and second-best guess."""
        if len(self.combined_scores) < 2:
            return float("inf")
        top2 = np.sort(self.combined_scores)[-2:]
        return float(top2[1] - top2[0])


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
    traceset: TraceSet,
    guess_range: tuple[int, int] = EXPONENT_GUESSES,
    significand: int | None = None,
    distinguisher=None,
) -> ExponentRecovery:
    """Recover the biased exponent E_x from the guesses in ``guess_range``.

    Always correlates the raw exponent sum (``exp_sum``) and the rebiased
    word (``exp_biased``). When the 53-bit ``significand`` recovered by
    the mantissa attack is supplied, additionally correlates the
    exactly-predicted output exponent (``exp_out``), which carries far
    more guess-separating variation.
    """
    guesses = np.arange(guess_range[0], guess_range[1], dtype=np.uint64)
    steps = [("exp_sum", hyp_exp_sum), ("exp_biased", hyp_exp_biased)]
    if significand is not None:
        steps.append(("exp_out", lambda y, g: hyp_exp_out(y, g, significand)))
    total, results = score_steps(traceset, steps, guesses, distinguisher)
    # Guesses whose exponent offsets are multiples of 16/32/64 can tie
    # *exactly* (their HW-vs-E_y profiles differ by a constant over the
    # narrow observed window). Break exact ties toward the physically
    # expected coefficient scale — the adversary knows sigma_fg and n, so
    # the plausible |FFT(f)| magnitude (and hence exponent) is public.
    center = _expected_exponent_center(traceset)
    tied = np.flatnonzero(total >= total.max() - 1e-9)
    best_idx = tied[int(np.argmin(np.abs(guesses[tied].astype(np.int64) - center)))]
    best = int(guesses[best_idx])
    return ExponentRecovery(
        biased_exponent=best,
        results=results,
        combined_scores=total,
        guesses=guesses,
    )


def fft_f_exponent_scale(params) -> float:
    """1023 + log2 of the RMS magnitude of an FFT(f) double.

    Re/Im parts of an FFT slot of f have variance n * sigma_fg^2 / 2;
    both n and sigma_fg are public parameters.
    """
    return 1023 + math.log2(math.sqrt(params.n / 2.0) * params.sigma_fg)


def _expected_exponent_center(traceset: TraceSet) -> int:
    """Biased exponent of the RMS FFT(f) double for this parameter set."""
    n = traceset.meta.get("n") if traceset.meta else None
    if not n:
        return 1023 + 5
    from repro.falcon.params import FalconParams

    try:
        params = FalconParams.get(int(n))
    except ValueError:
        return 1023 + 5
    return round(fft_f_exponent_scale(params))
