"""Second-order attack against first-order masking — paper Section V-B.

First-order Boolean masking stores the secret intermediate v as the
pair (v XOR m, m): no single sample's expectation depends on v, so
first-order CPA fails (see bench_countermeasures). The classical
counter-countermeasure combines the two share samples with the
centered product

    comb_d = (t1_d - mean(t1)) * (t2_d - mean(t2))

whose expectation *does* depend on HW(v) (Prouff-Rivain-Bevan), letting
ordinary CPA run on the combined trace — at a quadratic cost in noise,
so the measurement count grows sharply. This module provides the
combining preprocessing and a convenience CPA wrapper.
"""

from __future__ import annotations

import numpy as np

from repro.attack.cpa import CpaResult, run_cpa

__all__ = ["centered_product", "second_order_cpa"]


def centered_product(share1: np.ndarray, share2: np.ndarray) -> np.ndarray:
    """Centered-product combining of two share sample columns.

    Accepts (D,) or (D, S) arrays; multi-sample windows are combined
    pairwise per sample index.
    """
    a = np.atleast_2d(np.asarray(share1, dtype=np.float64).T).T
    b = np.atleast_2d(np.asarray(share2, dtype=np.float64).T).T
    if a.shape != b.shape:
        raise ValueError(f"share shapes differ: {a.shape} vs {b.shape}")
    return (a - a.mean(axis=0, keepdims=True)) * (b - b.mean(axis=0, keepdims=True))


def second_order_cpa(
    share1: np.ndarray,
    share2: np.ndarray,
    hypotheses: np.ndarray,
    guesses: np.ndarray,
) -> CpaResult:
    """CPA on the centered product of the two share leakages.

    ``hypotheses`` is the usual (D, G) predicted-HW matrix of the
    *unmasked* intermediate; under HW leakage of both shares, the
    centered product correlates (negatively, with magnitude shrinking in
    the noise squared) with HW(v) — the distinguisher works unchanged.
    :class:`repro.attack.distinguisher.SecondOrderDistinguisher` scores
    the same way from a side-by-side share window.
    """
    return run_cpa(hypotheses, centered_product(share1, share2), guesses)
