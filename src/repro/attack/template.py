"""Profiled (template) attack extension — paper Section V-A.

"It is possible to extend our attack by template [20] or
machine-learning based [25], [26] profiling techniques."

A template attack assumes a profiling phase on a device the adversary
controls (same model, *re-configurable key*): for every Hamming-weight
class of the targeted intermediate it estimates a Gaussian template
(mean vector + pooled covariance) from labelled traces. The matching
phase scores key guesses on the victim's traces by log-likelihood
instead of correlation, which extracts strictly more information per
trace than CPA and reduces the measurement cost.

Implementation notes:

* Templates are built per targeted step over the samples of that step
  (possibly several, when ``samples_per_step > 1``).
* The pooled covariance (Choudary-Kuhn) is used: one covariance for all
  classes, estimated from class-centered profiling traces. With few
  samples per step this is numerically robust.
* Matching returns per-guess log-likelihood sums; ranking utilities
  mirror :class:`repro.attack.cpa.CpaResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.leakage.traceset import TraceSet

__all__ = ["HwTemplates", "build_templates", "template_scores", "TemplateResult"]


@dataclass
class HwTemplates:
    """Gaussian templates for the HW classes of one targeted step."""

    classes: np.ndarray          # (K,) the HW values with a template
    means: np.ndarray            # (K, S) mean trace per class
    pooled_cov: np.ndarray       # (S, S) shared covariance
    _inv_cov: np.ndarray         # cached inverse
    _logdet: float

    @property
    def n_samples(self) -> int:
        return self.means.shape[1]

    def class_log_likelihood(self, traces: np.ndarray) -> np.ndarray:
        """(D, K) matrix of log p(trace_d | class k) for every class.

        One evaluation covers all guesses at once: scoring then reduces
        to gathering each guess's predicted-HW column per row, which is
        how :class:`repro.attack.distinguisher.TemplateDistinguisher`
        streams template matching over row chunks.
        """
        traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
        out = np.empty((traces.shape[0], len(self.classes)))
        for k in range(len(self.classes)):
            d = traces - self.means[k]
            out[:, k] = (
                -0.5 * np.einsum("ds,st,dt->d", d, self._inv_cov, d)
                - 0.5 * self._logdet
            )
        return out

    def log_likelihood(self, traces: np.ndarray, hw: np.ndarray) -> np.ndarray:
        """log p(trace_d | HW class hw_d) for each row d.

        Classes never seen in profiling contribute the worst observed
        likelihood (a conservative floor) rather than -inf.
        """
        traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
        hw = np.asarray(hw)
        out = np.full(traces.shape[0], np.nan)
        known = {int(c): i for i, c in enumerate(self.classes)}
        floor = None
        for value in np.unique(hw):
            idx = np.flatnonzero(hw == value)
            if int(value) in known:
                mu = self.means[known[int(value)]]
                d = traces[idx] - mu
                ll = -0.5 * np.einsum("ds,st,dt->d", d, self._inv_cov, d) - 0.5 * self._logdet
                out[idx] = ll
            else:
                out[idx] = np.nan
        if np.any(np.isnan(out)):
            floor = np.nanmin(out) if np.any(~np.isnan(out)) else 0.0
            out = np.where(np.isnan(out), floor, out)
        return out


def build_templates(
    traces: np.ndarray, hw_labels: np.ndarray, min_class_size: int = 4
) -> HwTemplates:
    """Profile Gaussian templates from labelled traces.

    ``traces`` is (D, S) (the samples of one step); ``hw_labels`` is the
    true intermediate Hamming weight per trace (known in profiling).
    """
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    hw_labels = np.asarray(hw_labels)
    if traces.shape[0] != hw_labels.shape[0]:
        raise ValueError(
            f"{traces.shape[0]} traces vs {hw_labels.shape[0]} labels"
        )
    classes = []
    means = []
    centered = []
    for value in np.unique(hw_labels):
        idx = np.flatnonzero(hw_labels == value)
        if len(idx) < min_class_size:
            continue
        mu = traces[idx].mean(axis=0)
        classes.append(int(value))
        means.append(mu)
        centered.append(traces[idx] - mu)
    if not classes:
        raise ValueError("no HW class reached min_class_size during profiling")
    pooled = np.concatenate(centered, axis=0)
    cov = (pooled.T @ pooled) / max(len(pooled) - len(classes), 1)
    cov = np.atleast_2d(cov)
    # regularize lightly: profiling sets are finite
    cov += np.eye(cov.shape[0]) * 1e-9 * float(np.trace(cov) + 1.0)
    inv_cov = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("pooled covariance is not positive definite")
    return HwTemplates(
        classes=np.array(classes),
        means=np.vstack(means),
        pooled_cov=cov,
        _inv_cov=inv_cov,
        _logdet=float(logdet),
    )


@dataclass
class TemplateResult:
    """Per-guess log-likelihood totals (higher is better)."""

    guesses: np.ndarray
    scores: np.ndarray

    @property
    def ranking(self) -> np.ndarray:
        return np.argsort(-self.scores, kind="stable")

    @property
    def best_guess(self) -> int:
        return int(self.guesses[self.ranking[0]])


def template_scores(
    templates: HwTemplates,
    traces: np.ndarray,
    hyp_matrix: np.ndarray,
    guesses: np.ndarray,
) -> TemplateResult:
    """Match victim traces against templates for every guess.

    ``hyp_matrix`` is the (D, G) predicted-HW matrix of the usual CPA
    hypothesis builders — templates consume the same predictions, they
    just score them with profiled likelihoods instead of correlation.
    """
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    hyp_matrix = np.asarray(hyp_matrix)
    guesses = np.asarray(guesses)
    if hyp_matrix.shape != (traces.shape[0], len(guesses)):
        raise ValueError(
            f"hypothesis shape {hyp_matrix.shape} != ({traces.shape[0]}, {len(guesses)})"
        )
    scores = np.empty(len(guesses), dtype=np.float64)
    for gi in range(len(guesses)):
        scores[gi] = float(templates.log_likelihood(traces, hyp_matrix[:, gi]).sum())
    return TemplateResult(guesses=guesses, scores=scores)


def profile_step(
    profiling_set: TraceSet, label: str, segment: int = 0
) -> HwTemplates:
    """Build templates for one step from a profiling TraceSet.

    Profiling assumes the true intermediate values are known (the
    adversary configures the keys on the profiling device); the
    simulator conveniently knows them too.
    """
    from repro.fpr.trace import MUL_STEP_LABELS
    from repro.leakage.steps import step_values
    from repro.utils.bits import hamming_weight_array

    seg = profiling_set.segments[segment]
    if profiling_set.true_secret is None:
        raise ValueError("profiling requires a TraceSet with a known secret")
    values = step_values(profiling_set.true_secret, seg.known_y)
    col = MUL_STEP_LABELS.index(label)
    hw = hamming_weight_array(values[:, col])
    window = seg.traces[:, profiling_set.layout.slice_of(label)]
    return build_templates(window, hw)
