"""The paper's contribution: differential EM analysis of FALCON.

Layered as in Section III of the paper:

* :mod:`repro.attack.cpa` — the Pearson-correlation distinguisher with
  Hamming-weight leakage estimates and 99.99% significance bounds.
* :mod:`repro.attack.hypotheses` — vectorized predictors of the softfloat
  intermediates for key guesses.
* :mod:`repro.attack.strawman` — the straightforward attack on the
  mantissa *multiplication* only; exhibits the false positives of
  Section III-B (shift-aliased guesses tie exactly).
* :mod:`repro.attack.ladder` — windowed LSB-to-MSB candidate extension
  (how the 2^25 / 2^27 guess spaces are walked on a laptop).
* :mod:`repro.attack.extend_prune` — the paper's extend-and-prune:
  candidates from the multiplications, re-ranked on the intermediate
  additions, which are not shift invariant.
* :mod:`repro.attack.sign_exp` — sign-bit and exponent DEMA.
* :mod:`repro.attack.coefficient` — assembling one 64-bit coefficient.
* :mod:`repro.attack.key_recovery` — FFT inversion, NTRU completion,
  and signature forgery.
* :mod:`repro.attack.pipeline` — the end-to-end campaign driver.
* :mod:`repro.attack.distinguisher` — the unified scoring protocol all
  four statistical engines (CPA, templates, MLP, second-order)
  implement; selected via ``AttackConfig.distinguisher``.
* :mod:`repro.attack.session` — resumable attack sessions with atomic
  per-coefficient checkpoints.
"""

from repro.attack.cpa import CpaResult, run_cpa
from repro.attack.config import AttackConfig
from repro.attack.extend_prune import recover_mantissa, MantissaRecovery
from repro.attack.sign_exp import recover_sign, recover_exponent
from repro.attack.coefficient import recover_coefficient, CoefficientRecovery
from repro.attack.key_recovery import (
    CoefficientRecord,
    KeyRecoveryResult,
    ProgressEvent,
    recover_coefficients,
    recover_f,
    recover_full_key,
    rebuild_signing_key,
)
from repro.attack.pipeline import full_attack, FullAttackReport
from repro.attack.template import build_templates, template_scores, HwTemplates
from repro.attack.second_order import second_order_cpa, centered_product
from repro.attack.alignment import align_traces, align_traceset
from repro.attack.ml_profiled import MlpClassifier, ml_profile_step, ml_scores
from repro.attack.distinguisher import (
    DISTINGUISHERS,
    CpaDistinguisher,
    Distinguisher,
    MlDistinguisher,
    SecondOrderDistinguisher,
    TemplateDistinguisher,
    make_distinguisher,
    profile_distinguisher,
)
from repro.attack.session import AttackSession, SessionError

__all__ = [
    "CpaResult",
    "run_cpa",
    "AttackConfig",
    "recover_mantissa",
    "MantissaRecovery",
    "recover_sign",
    "recover_exponent",
    "recover_coefficient",
    "CoefficientRecovery",
    "recover_f",
    "recover_full_key",
    "rebuild_signing_key",
    "recover_coefficients",
    "KeyRecoveryResult",
    "CoefficientRecord",
    "ProgressEvent",
    "full_attack",
    "FullAttackReport",
    "build_templates",
    "template_scores",
    "HwTemplates",
    "second_order_cpa",
    "centered_product",
    "align_traces",
    "align_traceset",
    "MlpClassifier",
    "ml_profile_step",
    "ml_scores",
    "Distinguisher",
    "CpaDistinguisher",
    "TemplateDistinguisher",
    "MlDistinguisher",
    "SecondOrderDistinguisher",
    "DISTINGUISHERS",
    "make_distinguisher",
    "profile_distinguisher",
    "AttackSession",
    "SessionError",
]
