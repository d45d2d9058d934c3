"""Assembling one full 64-bit coefficient of FFT(f).

"Combined version of the separately recovered mantissa, exponent and
sign bits represents one full coefficient" (Section III-C). The three
component attacks run on the same TraceSet; the result is the exact fpr
bit pattern of the targeted secret double.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.config import AttackConfig
from repro.attack.distinguisher import distinguisher_from_config
from repro.attack.extend_prune import MantissaRecovery, recover_mantissa
from repro.attack.sign_exp import ExponentRecovery, SignRecovery, recover_exponent, recover_sign
from repro.fpr import emu
from repro.leakage.traceset import TraceSet
from repro.obs.spans import span

__all__ = ["CoefficientRecovery", "recover_coefficient"]


@dataclass
class CoefficientRecovery:
    """One recovered secret double, with component diagnostics."""

    target_index: int
    pattern: int                 # assembled 64-bit fpr pattern
    sign: SignRecovery
    exponent: ExponentRecovery
    mantissa: MantissaRecovery
    true_pattern: int | None = None
    #: Rows actually correlated, per trace segment — after the capture
    #: layer dropped non-normal known operands (may be < the requested
    #: campaign size).
    n_traces_per_segment: tuple[int, ...] = field(default=())

    @property
    def value(self) -> float:
        return emu.fpr_to_float(self.pattern)

    @property
    def correct(self) -> bool | None:
        if self.true_pattern is None:
            return None
        return self.pattern == self.true_pattern

    @property
    def n_traces_used(self) -> int:
        """Total rows that entered the CPA across all segments."""
        return sum(self.n_traces_per_segment)

    @property
    def mantissa_margin(self) -> float:
        """Prune-score gap between the two best high-limb candidates."""
        scores = self.mantissa.high.prune_scores
        if len(scores) < 2:
            return float("inf")
        top2 = np.sort(np.asarray(scores, dtype=np.float64))[-2:]
        return float(top2[1] - top2[0])

    def candidate_patterns(self, k_exponents: int = 8) -> list[int]:
        """The key decoder's list: the recovered pattern, then the top-k
        exponents x {significand s and its one-bit shift aliases that keep
        the implicit 1: ``(s << 1 | b) mod 2^53``, ``(s >> 1) | 1 << 52``},
        since shifted limbs give bit-identical product hypotheses."""
        s = self.mantissa.significand
        shifts = (s, (s << 1) % (1 << 53), (s << 1 | 1) % (1 << 53), s >> 1 | 1 << 52)
        return list(dict.fromkeys([self.pattern] + [
            emu.compose(self.sign.bit, e, x & ((1 << 52) - 1))
            for e in self.exponent.top_candidates(k_exponents) for x in shifts if x >> 52
        ]))


def recover_coefficient(
    traceset: TraceSet, config: AttackConfig | None = None, distinguisher=None
) -> CoefficientRecovery:
    """Run the extend-and-prune mantissa, exponent, and sign attacks.

    Mantissa first: its recovered significand lets the exponent attack
    predict the output exponent (normalization carry included) exactly.

    ``distinguisher`` is a (fitted, if profiled) instance from
    :mod:`repro.attack.distinguisher`; when ``None`` it is built from
    ``config.distinguisher``. Profiled distinguishers must arrive
    already fitted — this function does not run a profiling campaign
    (see :func:`repro.attack.distinguisher.profile_distinguisher`).
    """
    if distinguisher is None:
        distinguisher = distinguisher_from_config(config or AttackConfig())
    with span("mantissa"):
        mantissa = recover_mantissa(traceset, distinguisher)
    with span("exponent"):
        exponent = recover_exponent(
            traceset, significand=mantissa.significand, distinguisher=distinguisher
        )
    with span("sign"):
        sign = recover_sign(traceset, distinguisher)
    pattern = emu.compose(sign.bit, exponent.biased_exponent, mantissa.mantissa_field)
    return CoefficientRecovery(
        target_index=traceset.target_index,
        pattern=pattern,
        sign=sign,
        exponent=exponent,
        mantissa=mantissa,
        true_pattern=traceset.true_secret,
        n_traces_per_segment=tuple(seg.n_traces for seg in traceset.segments),
    )
