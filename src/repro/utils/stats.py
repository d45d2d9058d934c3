"""Statistics shared by the CPA distinguisher and the analysis layer.

The paper's distinguisher is the classic Pearson-correlation CPA of Brier
et al. with a Hamming-weight leakage estimate, judged against a 99.99%
confidence interval. The interval is the standard Fisher-z bound for the
null hypothesis "true correlation is zero": with D traces, an observed
sample correlation r is significant at level alpha when
``|r| > tanh(z_alpha / sqrt(D - 3))``.

Correlation is computed from the five raw-moment sums (sum h, sum h^2,
sum t, sum t^2, sum h*t). :func:`batched_pearson` is the one kernel:
it accumulates those sums over row blocks (``chunk_rows`` traces each,
or all of them in one block) and finalizes them once, so the block size
bounds memory without changing the formula.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "pearson_corr",
    "guess_block",
    "batched_pearson",
    "fisher_z_threshold",
    "normal_quantile",
]


def normal_quantile(p: float) -> float:
    """Quantile (inverse CDF) of the standard normal distribution.

    Uses Acklam's rational approximation (relative error < 1.15e-9),
    which keeps the core library free of a SciPy dependency.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        return num / den
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        return -num / den
    q = p - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    return num / den


def fisher_z_threshold(n_traces: int, confidence: float = 0.9999) -> float:
    """Correlation magnitude needed for significance at ``confidence``.

    This is the dashed-line bound drawn in the paper's Figure 4: under the
    null (no leakage), atanh(r) is approximately normal with standard
    deviation 1/sqrt(D - 3).

    With three or fewer traces the Fisher-z variance is undefined; the
    bound saturates at the largest float strictly below 1.0 rather than
    1.0 itself, so that a mathematically perfect correlation (clipped to
    exactly 1.0 by the distinguisher) still registers as significant
    under the strict ``>`` comparison used by
    :meth:`repro.attack.cpa.CpaResult.significant_guesses`.
    """
    if n_traces <= 3:
        return math.nextafter(1.0, 0.0)
    z = normal_quantile(confidence)
    return math.tanh(z / math.sqrt(n_traces - 3))


def pearson_corr(x: NDArray[Any], y: NDArray[Any]) -> float:
    """Pearson correlation between two 1-D arrays (0.0 when degenerate)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    return float(xc @ yc) / denom


def _finalize_pearson(
    count: int,
    sum_h: FloatArray,
    sum_h2: FloatArray,
    sum_t: FloatArray,
    sum_t2: FloatArray,
    sum_ht: FloatArray,
) -> FloatArray:
    """(G, T) correlation from the five raw-moment sums.

    Columns with zero variance on either side yield 0.0 rather than NaN.
    """
    cov = sum_ht - np.outer(sum_h, sum_t) / count
    var_h = np.maximum(sum_h2 - sum_h * sum_h / count, 0.0)
    var_t = np.maximum(sum_t2 - sum_t * sum_t / count, 0.0)
    denom = np.sqrt(np.outer(var_h, var_t))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(corr, -1.0, 1.0).astype(np.float64)


#: One guess block's 8-byte working array: ~1.5 MB, inside a 2 MB per-core L2.
_BLOCK_BYTES = 3 << 19


def guess_block(n_rows: int) -> int:
    """Guesses per block so one (block, n_rows) 8-byte array is ~1.5 MB."""
    return max(1, _BLOCK_BYTES // (8 * max(n_rows, 1)))


def _hyp_sums(hyps: NDArray[Any], t: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
    """(sum h, sum h^2, sum h*t) over :func:`guess_block`-column blocks.

    Only one block at a time is cast to float64, guess-major; for a
    column-major ``hyps`` (what the builders return) it is one contiguous slice.
    """
    d, g = hyps.shape
    sum_h, sum_h2, sum_ht = np.empty(g), np.empty(g), np.empty((g, t.shape[1]))
    step = guess_block(d)
    for lo in range(0, g, step):
        hb = np.ascontiguousarray(hyps[:, lo : lo + step].T, dtype=np.float64)
        sum_h[lo : lo + step] = hb.sum(axis=1)
        sum_h2[lo : lo + step] = np.einsum("gd,gd->g", hb, hb)
        sum_ht[lo : lo + step] = hb @ t
    return sum_h, sum_h2, sum_ht


def batched_pearson(
    hyps: NDArray[Any], traces: NDArray[Any], chunk_rows: int | None = None
) -> FloatArray:
    """Correlation of every hypothesis column with every trace sample.

    Parameters
    ----------
    hyps:
        (D, G) array: leakage estimate per trace for each of G guesses.
    traces:
        (D, T) array: measured traces, T samples each.
    chunk_rows:
        Row-block size: the five moment sums are accumulated over blocks
        of this many traces, so only one block of the traces is cast to
        float64 at a time. ``None`` is one block of all D rows.

    Returns
    -------
    (G, T) array of Pearson correlations; columns with zero variance on
    either side produce 0.0 rather than NaN. Fewer than two traces raise
    ``ValueError`` for every ``chunk_rows``.
    """
    h = np.asarray(hyps)
    traces = np.asarray(traces)
    if h.ndim != 2 or traces.ndim != 2 or h.shape[0] != traces.shape[0]:
        raise ValueError(
            f"expected (D,G) and (D,T) with matching D, got {h.shape} and {traces.shape}"
        )
    if chunk_rows is not None and chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    d = h.shape[0]
    if d < 2:
        raise ValueError(f"need at least two traces, got {d}")
    step = chunk_rows or d
    sums: list[FloatArray] = []
    for lo in range(0, d, step):
        # Raw moments: no centered copies, no float64 copy of the whole (D, G) matrix.
        t = np.asarray(traces[lo : lo + step], dtype=np.float64)
        block = [*_hyp_sums(h[lo : lo + step], t), t.sum(axis=0), np.einsum("dt,dt->t", t, t)]
        sums = block if not sums else [a + b for a, b in zip(sums, block)]
    sum_h, sum_h2, sum_ht, sum_t, sum_t2 = sums
    return _finalize_pearson(d, sum_h, sum_h2, sum_t, sum_t2, sum_ht)
