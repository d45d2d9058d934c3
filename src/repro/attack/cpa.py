"""Correlation power/EM analysis: the paper's distinguisher (Eq. 1).

For D traces with T samples and G guesses, the distinguisher is the
Pearson correlation r_{i,j} between the Hamming-weight leakage estimate
of guess i and the measured samples at time j; a guess is accepted when
its correlation crosses the 99.99% Fisher-z confidence bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics
from repro.utils.stats import batched_pearson, fisher_z_threshold

__all__ = ["CpaResult", "run_cpa"]


@dataclass
class CpaResult:
    """Correlation matrix plus ranking utilities for one CPA run."""

    guesses: np.ndarray = field(repr=False)   # (G,) the guess values
    corr: np.ndarray = field(repr=False)      # (G, T) correlation traces
    n_traces: int
    signed: bool = False         # rank on signed corr (sign-bit attack) or |corr|

    def __repr__(self) -> str:
        # a summary: the correlation matrix can hold millions of floats
        top = self.top(2)
        best = top[0][0] if top else None
        margin = top[0][1] - top[1][1] if len(top) == 2 else float("inf")
        return (
            f"CpaResult(corr.shape={self.corr.shape}, n_traces={self.n_traces}, "
            f"signed={self.signed}, best_guess={best}, margin={margin:.4g})"
        )

    @property
    def scores(self) -> np.ndarray:
        """(G,) peak score per guess across time samples."""
        if self.signed:
            return self.corr.max(axis=1)
        return np.abs(self.corr).max(axis=1)

    @property
    def ranking(self) -> np.ndarray:
        """Guess indices sorted best-first."""
        return np.argsort(-self.scores, kind="stable")

    @property
    def best_guess(self) -> int:
        return int(self.guesses[self.ranking[0]])

    def threshold(self, confidence: float = 0.9999) -> float:
        """|r| needed for significance — the dashed line in the paper's Fig. 4."""
        return fisher_z_threshold(self.n_traces, confidence)

    def significant_guesses(self, confidence: float = 0.9999) -> np.ndarray:
        """Guess values whose peak score crosses the confidence bound.

        The bound is strictly below 1.0 even for degenerate trace counts
        (see :func:`repro.utils.stats.fisher_z_threshold`), so a perfect
        correlation always qualifies under the strict comparison.
        """
        return self.guesses[self.scores > self.threshold(confidence)]

    def top(self, k: int) -> list[tuple[int, float]]:
        """The k best (guess, score) pairs."""
        order = self.ranking[:k]
        return [(int(self.guesses[i]), float(self.scores[i])) for i in order]


def run_cpa(
    hypotheses: np.ndarray,
    traces: np.ndarray,
    guesses: np.ndarray,
    signed: bool = False,
    chunk_rows: int | None = None,
) -> CpaResult:
    """Correlate a (D, G) hypothesis matrix against (D, T) traces.

    ``chunk_rows`` is the row-block size of
    :func:`repro.utils.stats.batched_pearson`: the traces are cast to
    float64 one block at a time (``None`` is one block of all rows).

    ``n_traces`` on the result is the row count actually correlated —
    after any per-segment filtering upstream — so the Fisher-z
    significance bound always matches the data that produced the
    correlations.
    """
    traces = np.asarray(traces)
    corr = batched_pearson(hypotheses, traces, chunk_rows=chunk_rows)
    if chunk_rows is not None:
        metrics.inc("cpa.chunks_streamed", -(-traces.shape[0] // chunk_rows))
    metrics.inc("cpa.rows_correlated", int(traces.shape[0]))
    return CpaResult(
        guesses=np.asarray(guesses),
        corr=corr,
        n_traces=traces.shape[0],
        signed=signed,
    )

