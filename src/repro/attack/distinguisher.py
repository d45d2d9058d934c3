"""The unified Distinguisher protocol of the attack engine.

Every attack in this repository reduces to the same question: given a
(D, G) matrix of per-guess Hamming-weight predictions and a (D, S)
window of measured samples, which guess explains the measurements best?
The paper's classic CPA answers it with Pearson correlation; the
Section V-A extensions answer it with profiled Gaussian templates or an
MLP classifier; the Section V-B counter-countermeasure answers it with
CPA on a centered product of two share windows.

Historically each of those had a one-off interface. This module gives
them one: a :class:`Distinguisher` exposes

``score(hyp, window, guesses, *, label=None, signed=False, exact=True)``
    rank the guesses; the result carries ``guesses``/``scores``/
    ``ranking``/``best_guess`` (the :class:`ScoreResult` protocol, which
    :class:`~repro.attack.cpa.CpaResult`,
    :class:`~repro.attack.template.TemplateResult` and
    :class:`~repro.attack.ml_profiled.MlProfileResult` all satisfy).
``fit_step(label, traces, hw_labels)``
    profile one targeted step (no-op for unprofiled distinguishers).

The extend-and-prune ladder, the prune phase, and the sign/exponent
DEMA all score through one loop, :func:`score_steps`, so every
distinguisher inherits the engine features for free: ``chunk_rows``
sets the row-block size of the one Pearson kernel
(:func:`repro.utils.stats.batched_pearson`) and of the profiled
scorers' row loop, the per-coefficient worker fan-out of
:func:`repro.attack.key_recovery.recover_coefficients` ships a fitted
distinguisher to each worker once, and progress arrives as structured
:class:`~repro.attack.key_recovery.ProgressEvent`\\ s.

``exact`` marks whether the hypothesis matrix predicts the *full*
intermediate (prune additions, exponents, sign) or only a masked
partial value (the ladder's LSB-window products). Profiled
distinguishers need class-aligned predictions, so on ``exact=False``
calls they fall back to their internal correlation scorer — profiling
cannot align HW classes for a value the hypothesis only knows modulo
2^m.

Select by name through :data:`~repro.attack.config.AttackConfig.
distinguisher` (CLI: ``--distinguisher``); :func:`make_distinguisher`
and :func:`profile_distinguisher` are the factory pair the engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.attack.config import KNOWN_DISTINGUISHERS, AttackConfig
from repro.attack.cpa import run_cpa
from repro.attack.second_order import centered_product
from repro.leakage.traceset import TraceSet
from repro.obs import metrics
from repro.obs.spans import span
from repro.utils.registry import resolve_name

__all__ = [
    "ScoreResult",
    "Distinguisher",
    "CpaDistinguisher",
    "TemplateDistinguisher",
    "MlDistinguisher",
    "SecondOrderDistinguisher",
    "DISTINGUISHERS",
    "make_distinguisher",
    "profile_distinguisher",
    "score_steps",
    "ENGINE_PROFILED_LABELS",
]


@runtime_checkable
class ScoreResult(Protocol):
    """What every distinguisher's ``score`` returns (structurally)."""

    guesses: np.ndarray
    scores: np.ndarray

    @property
    def ranking(self) -> np.ndarray:  # pragma: no cover - protocol
        ...

    @property
    def best_guess(self) -> int:  # pragma: no cover - protocol
        ...


@dataclass
class ProfiledScore:
    """Generic best-first ranking for profiled scorers."""

    guesses: np.ndarray
    scores: np.ndarray

    @property
    def ranking(self) -> np.ndarray:
        return np.argsort(-self.scores, kind="stable")

    @property
    def best_guess(self) -> int:
        return int(self.guesses[self.ranking[0]])


class Distinguisher:
    """Base class: an unprofiled distinguisher that must define score()."""

    name: str = "base"
    needs_profiling: bool = False

    def fit_step(self, label: str, traces: np.ndarray, hw_labels: np.ndarray) -> None:
        """Profile one targeted step from labelled traces (default: no-op)."""

    @property
    def fitted_labels(self) -> tuple[str, ...]:
        return ()

    def score(
        self,
        hyp: np.ndarray,
        window: np.ndarray,
        guesses: np.ndarray,
        *,
        label: str | None = None,
        signed: bool = False,
        exact: bool = True,
    ) -> ScoreResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(repr=False)
class CpaDistinguisher(Distinguisher):
    """The paper's Eq.-1 Pearson-correlation distinguisher.

    ``chunk_rows`` is the row-block size handed to
    :func:`repro.attack.cpa.run_cpa`.
    """

    chunk_rows: int | None = None
    name = "cpa"

    def score(self, hyp, window, guesses, *, label=None, signed=False, exact=True):
        return run_cpa(hyp, window, guesses, signed=signed, chunk_rows=self.chunk_rows)


def _gather_scores(
    ll: np.ndarray, classes: np.ndarray, hyp: np.ndarray
) -> np.ndarray:
    """Sum per-row class log-likelihoods along each guess's HW prediction.

    ``ll`` is (D, K) log-likelihood per row and class; ``hyp`` is the
    (D, G) predicted-HW matrix. Predictions outside the profiled
    classes take that row's worst class likelihood — a per-row floor,
    which (unlike a global minimum) is invariant under row chunking.
    """
    lut = np.full(int(classes.max()) + 2, -1, dtype=np.int64)
    lut[classes.astype(np.int64)] = np.arange(len(classes))
    h = np.ascontiguousarray(hyp, dtype=np.int64)  # row-major: sums independent of layout
    idx = lut[np.clip(h, 0, len(lut) - 1)]
    row_floor = ll.min(axis=1)
    gathered = np.take_along_axis(ll, np.clip(idx, 0, ll.shape[1] - 1), axis=1)
    gathered = np.where(idx >= 0, gathered, row_floor[:, None])
    return gathered.sum(axis=0)


class _ProfiledBank(Distinguisher):
    """Shared machinery for per-step profiled distinguishers.

    Subclasses store one fitted model per step label and provide
    ``_fit_one``/``_row_class_ll``; scoring streams row chunks through
    :func:`_gather_scores`, so memory stays O(chunk * G) for any trace
    count. Non-exact hypotheses (masked ladder products) fall back to
    the correlation baseline: their HW classes cannot be aligned with
    the profiled full-value classes.
    """

    needs_profiling = True

    def __init__(self, chunk_rows: int | None = None):
        self.chunk_rows = chunk_rows
        self._models: dict[str, object] = {}
        self._fallback = CpaDistinguisher(chunk_rows=chunk_rows)

    @property
    def fitted_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._models))

    def _fit_one(self, traces: np.ndarray, hw_labels: np.ndarray):
        raise NotImplementedError

    def _row_class_ll(self, model, traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(classes, (D, K) per-row log-likelihood) for one fitted step."""
        raise NotImplementedError

    def fit_step(self, label: str, traces: np.ndarray, hw_labels: np.ndarray) -> None:
        self._models[label] = self._fit_one(traces, hw_labels)

    def score(self, hyp, window, guesses, *, label=None, signed=False, exact=True):
        if not exact:
            return self._fallback.score(
                hyp, window, guesses, label=label, signed=signed, exact=exact
            )
        if label is None or label not in self._models:
            raise ValueError(
                f"{self.name} distinguisher is not profiled for step {label!r} "
                f"(profiled: {list(self._models) or 'none'}); run profile_distinguisher "
                "or select the 'cpa' distinguisher"
            )
        model = self._models[label]
        hyp = np.asarray(hyp)
        window = np.atleast_2d(np.asarray(window))
        guesses = np.asarray(guesses)
        chunk = self.chunk_rows or window.shape[0] or 1
        total = np.zeros(len(guesses), dtype=np.float64)
        for lo in range(0, window.shape[0], chunk):
            classes, ll = self._row_class_ll(model, window[lo : lo + chunk])
            total += _gather_scores(ll, classes, hyp[lo : lo + chunk])
            if self.chunk_rows:
                metrics.inc("cpa.chunks_streamed", 1)
        metrics.inc("cpa.rows_correlated", int(window.shape[0]))
        return ProfiledScore(guesses=guesses, scores=total)


class TemplateDistinguisher(_ProfiledBank):
    """Gaussian-template matching (paper Section V-A, Choudary-Kuhn).

    ``fit_step`` builds one :class:`~repro.attack.template.HwTemplates`
    per targeted step; scoring ranks guesses by summed class
    log-likelihood of their HW predictions.
    """

    name = "template"

    def _fit_one(self, traces, hw_labels):
        from repro.attack.template import build_templates

        return build_templates(traces, hw_labels)

    def _row_class_ll(self, model, traces):
        return model.classes, model.class_log_likelihood(traces)


class MlDistinguisher(_ProfiledBank):
    """MLP-classifier matching (paper Section V-A refs [25][26])."""

    name = "mlp"

    def __init__(self, chunk_rows: int | None = None, **mlp_kwargs):
        super().__init__(chunk_rows=chunk_rows)
        self.mlp_kwargs = mlp_kwargs

    def _fit_one(self, traces, hw_labels):
        from repro.attack.ml_profiled import MlpClassifier

        clf = MlpClassifier(classes=np.unique(hw_labels), **self.mlp_kwargs)
        return clf.fit(traces, hw_labels)

    def _row_class_ll(self, model, traces):
        return model.classes, model.log_proba(traces)


@dataclass(repr=False)
class SecondOrderDistinguisher(Distinguisher):
    """Centered-product second-order CPA (paper Section V-B).

    The window must hold the two share leakages side by side —
    ``(D, 2S)`` with share 1 in the first S columns and share 2 in the
    last S. Scoring combines them with the Prouff-Rivain-Bevan centered
    product and runs ordinary CPA on the result, ``chunk_rows`` rows at a
    time.
    """

    chunk_rows: int | None = None
    name = "second-order"

    def score(self, hyp, window, guesses, *, label=None, signed=False, exact=True):
        window = np.atleast_2d(np.asarray(window, dtype=np.float64))
        if window.shape[1] % 2 != 0:
            raise ValueError(
                f"second-order window needs share pairs: got {window.shape[1]} columns; "
                "capture both shares (or select a first-order distinguisher)"
            )
        s = window.shape[1] // 2
        return run_cpa(
            hyp, centered_product(window[:, :s], window[:, s:]), guesses,
            signed=signed, chunk_rows=self.chunk_rows,
        )


DISTINGUISHERS: dict[str, type] = {
    "cpa": CpaDistinguisher,
    "template": TemplateDistinguisher,
    "mlp": MlDistinguisher,
    "second-order": SecondOrderDistinguisher,
}
assert set(DISTINGUISHERS) == set(KNOWN_DISTINGUISHERS)


def make_distinguisher(
    name: str, chunk_rows: int | None = None, **kwargs
) -> Distinguisher:
    """Instantiate a registered distinguisher by name."""
    cls = resolve_name("distinguisher", name, DISTINGUISHERS)
    return cls(chunk_rows=chunk_rows, **kwargs)


def distinguisher_from_config(config: AttackConfig) -> Distinguisher:
    """The distinguisher an :class:`AttackConfig` selects (unfitted)."""
    return make_distinguisher(config.distinguisher, chunk_rows=config.chunk_rows)


#: One scored step: its trace-layout label and a builder
#: ``(known_y, guesses) -> (D, G)`` hypothesis matrix.
Step = tuple[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def score_steps(
    traceset: TraceSet,
    steps: list[Step],
    guesses: np.ndarray,
    distinguisher: Distinguisher | None = None,
    *,
    exact: bool = True,
    signed: bool = False,
) -> tuple[np.ndarray, list[ScoreResult]]:
    """Score ``guesses`` at every step of every segment and sum the scores.

    Segments are the outer loop and steps the inner one; the summed
    scores and the per-call results come back in that order. ``exact``
    says whether the builders predict the full intermediate (see the
    module docstring); ``signed`` ranks on signed correlation. A missing
    ``distinguisher`` is classic CPA.
    """
    dist = CpaDistinguisher() if distinguisher is None else distinguisher
    layout = traceset.layout
    total = np.zeros(len(guesses), dtype=np.float64)
    results = []
    for seg in traceset.segments:
        for label, build in steps:
            res = dist.score(
                build(seg.known_y, guesses), seg.traces[:, layout.slice_of(label)],
                guesses, label=label, signed=signed, exact=exact,
            )
            results.append(res)
            total += res.scores
    return total, results


#: The steps the per-coefficient engine scores with *exact* (full-value)
#: hypothesis matrices — the ones profiled distinguishers must cover.
ENGINE_PROFILED_LABELS = (
    "s_lo",
    "s_mid",
    "s_hi",
    "exp_sum",
    "exp_biased",
    "exp_out",
    "sign_out",
)


def profile_distinguisher(
    dist: Distinguisher,
    source,
    config: AttackConfig | None = None,
    labels: tuple[str, ...] = ENGINE_PROFILED_LABELS,
) -> Distinguisher:
    """Fit a profiled distinguisher for attacking ``source``.

    Profiling models the paper's assumption of an adversary-controlled
    clone device: a *fresh* key (the profiling key — never the victim's)
    is generated, a profiling campaign runs on the same device model,
    and the true intermediate values (known, since the adversary owns
    this key) label the traces. Several targets are pooled so the HW
    classes cover the victim's range.

    Unprofiled distinguishers pass through untouched, so callers can
    apply this unconditionally. Profiling models fpr-mul step leakage
    specifically; other surfaces ship their own engines, so requesting
    a profiled distinguisher against them is a configuration error.
    """
    if not dist.needs_profiling:
        return dist
    target = getattr(source, "target", "fpr-mul")
    if target != "fpr-mul":
        raise ValueError(
            f"distinguisher {dist.name!r} profiles fpr-mul step leakage; "
            f"the {target!r} surface has its own engine — use the default "
            "distinguisher with this target"
        )
    with span("profile", distinguisher=dist.name):
        return _run_profiling(dist, source, config, labels)


def _run_profiling(dist, source, config, labels):  # sast: declassify(reason=profiling consumes captured leakage labeled with known intermediates; attacker-side by design)
    from repro.falcon.keygen import keygen
    from repro.falcon.params import FalconParams
    from repro.fpr.trace import MUL_STEP_LABELS
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.steps import step_values
    from repro.utils.bits import hamming_weight_array

    cfg = config or AttackConfig()
    n = source.n_targets
    params = FalconParams.get(n)
    prof_sk, _ = keygen(
        params, seed=b"falcon-down-profiling-%d" % cfg.profiling_seed
    )
    campaign = CaptureCampaign(
        sk=prof_sk,
        device=source.device,
        n_traces=cfg.profiling_traces,
        mode=getattr(source, "mode", "direct"),
        seed=cfg.profiling_seed,
    )
    per_label_rows: dict[str, list[np.ndarray]] = {lb: [] for lb in labels}
    per_label_hw: dict[str, list[np.ndarray]] = {lb: [] for lb in labels}
    profiled = 0
    for j in range(campaign.n_targets):
        if profiled >= cfg.profiling_targets:
            break
        try:
            ts = campaign.capture(j)
        except ValueError:
            continue  # non-normal profiling double: leaks nothing, skip
        profiled += 1
        for seg in ts.segments:
            values = step_values(ts.true_secret, seg.known_y)
            for lb in labels:
                col = MUL_STEP_LABELS.index(lb)
                per_label_rows[lb].append(seg.traces[:, ts.layout.slice_of(lb)])
                per_label_hw[lb].append(hamming_weight_array(values[:, col]))
    if profiled == 0:
        raise ValueError("profiling campaign produced no usable targets")
    for lb in labels:
        dist.fit_step(
            lb,
            np.concatenate(per_label_rows[lb], axis=0),
            np.concatenate(per_label_hw[lb], axis=0),
        )
    return dist
