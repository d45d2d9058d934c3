"""Machine-learning profiled attack — paper Section V-A, refs [25][26].

A small from-scratch MLP (numpy only) is trained on profiling traces to
classify the Hamming weight of a targeted intermediate; the matching
phase scores key guesses by the summed log-probability the network
assigns to each guess's predicted HW sequence — the standard
deep-learning SCA recipe (Maghrebi; Kim et al.) at a size appropriate
for the simulator's low-dimensional traces.

The network: standardized inputs -> dense(hidden, ReLU) -> dense(K
classes) -> softmax, trained with mini-batch Adam on cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MlpClassifier", "MlProfileResult", "ml_profile_step", "ml_scores"]


@dataclass
class MlpClassifier:
    """Softmax MLP over HW classes of one intermediate."""

    classes: np.ndarray                  # (K,) class labels (HW values)
    hidden: int = 32
    seed: int = 0
    learning_rate: float = 1e-2
    epochs: int = 60
    batch_size: int = 128
    _params: dict = field(default_factory=dict, repr=False)
    _mu: np.ndarray | None = field(default=None, repr=False)
    _sd: np.ndarray | None = field(default=None, repr=False)

    def _init(self, n_features: int) -> None:
        rng = np.random.default_rng(self.seed)
        k = len(self.classes)
        self._params = {
            "w1": rng.normal(0, 1.0 / np.sqrt(n_features), (n_features, self.hidden)),
            "b1": np.zeros(self.hidden),
            "w2": rng.normal(0, 1.0 / np.sqrt(self.hidden), (self.hidden, k)),
            "b2": np.zeros(k),
        }
        self._adam = {key: (np.zeros_like(v), np.zeros_like(v)) for key, v in self._params.items()}
        self._step = 0

    def _forward(self, x: np.ndarray):
        p = self._params
        z1 = x @ p["w1"] + p["b1"]
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ p["w2"] + p["b2"]
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return z1, a1, probs

    def _adam_update(self, grads: dict) -> None:
        self._step += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for key, g in grads.items():
            m, v = self._adam[key]
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**self._step)
            v_hat = v / (1 - b2**self._step)
            self._params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    def fit(self, traces: np.ndarray, labels: np.ndarray) -> "MlpClassifier":
        """Train on (D, S) profiling traces with integer HW labels."""
        x = np.atleast_2d(np.asarray(traces, dtype=np.float64))
        labels = np.asarray(labels)
        if x.shape[0] != labels.shape[0]:
            raise ValueError(f"{x.shape[0]} traces vs {labels.shape[0]} labels")
        class_index = {int(c): i for i, c in enumerate(self.classes)}
        if not all(int(v) in class_index for v in np.unique(labels)):
            raise ValueError("labels contain classes the classifier was not built for")
        y = np.array([class_index[int(v)] for v in labels])
        self._mu = x.mean(axis=0)
        self._sd = x.std(axis=0) + 1e-9
        x = (x - self._mu) / self._sd
        self._init(x.shape[1])
        rng = np.random.default_rng(self.seed + 1)
        n = x.shape[0]
        onehot = np.eye(len(self.classes))[y]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = x[idx], onehot[idx]
                z1, a1, probs = self._forward(xb)
                d_logits = (probs - yb) / len(idx)
                grads = {
                    "w2": a1.T @ d_logits,
                    "b2": d_logits.sum(axis=0),
                }
                d_a1 = d_logits @ self._params["w2"].T
                d_z1 = d_a1 * (z1 > 0)
                grads["w1"] = xb.T @ d_z1
                grads["b1"] = d_z1.sum(axis=0)
                self._adam_update(grads)
        return self

    def log_proba(self, traces: np.ndarray) -> np.ndarray:
        """(D, K) log class probabilities."""
        if self._mu is None:
            raise ValueError("classifier is not trained")
        x = (np.atleast_2d(np.asarray(traces, dtype=np.float64)) - self._mu) / self._sd
        _, _, probs = self._forward(x)
        return np.log(probs + 1e-30)

    def accuracy(self, traces: np.ndarray, labels: np.ndarray) -> float:
        lp = self.log_proba(traces)
        pred = self.classes[lp.argmax(axis=1)]
        return float(np.mean(pred == np.asarray(labels)))


@dataclass
class MlProfileResult:
    guesses: np.ndarray
    scores: np.ndarray

    @property
    def ranking(self) -> np.ndarray:
        return np.argsort(-self.scores, kind="stable")

    @property
    def best_guess(self) -> int:
        return int(self.guesses[self.ranking[0]])


def ml_profile_step(profiling_set, label: str, segment: int = 0, **mlp_kwargs) -> MlpClassifier:
    """Train an MLP on one step of a profiling TraceSet (known secret)."""
    from repro.fpr.trace import MUL_STEP_LABELS
    from repro.leakage.steps import step_values
    from repro.utils.bits import hamming_weight_array

    if profiling_set.true_secret is None:
        raise ValueError("profiling requires a TraceSet with a known secret")
    seg = profiling_set.segments[segment]
    values = step_values(profiling_set.true_secret, seg.known_y)
    col = MUL_STEP_LABELS.index(label)
    hw = hamming_weight_array(values[:, col])
    window = seg.traces[:, profiling_set.layout.slice_of(label)]
    classes = np.unique(hw)
    clf = MlpClassifier(classes=classes, **mlp_kwargs)
    return clf.fit(window, hw)


def ml_scores(
    clf: MlpClassifier,
    traces: np.ndarray,
    hyp_matrix: np.ndarray,
    guesses: np.ndarray,
) -> MlProfileResult:
    """Score guesses by summed log P(predicted HW class | trace)."""
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    hyp_matrix = np.asarray(hyp_matrix)
    guesses = np.asarray(guesses)
    if hyp_matrix.shape != (traces.shape[0], len(guesses)):
        raise ValueError(
            f"hypothesis shape {hyp_matrix.shape} != ({traces.shape[0]}, {len(guesses)})"
        )
    log_probs = clf.log_proba(traces)            # (D, K)
    class_index = {int(c): i for i, c in enumerate(clf.classes)}
    floor = float(log_probs.min())
    scores = np.empty(len(guesses))
    for gi in range(len(guesses)):
        hw = hyp_matrix[:, gi]
        idx = np.array([class_index.get(int(v), -1) for v in hw])
        ll = np.where(idx >= 0, log_probs[np.arange(len(hw)), np.clip(idx, 0, None)], floor)
        scores[gi] = float(ll.sum())
    return MlProfileResult(guesses=guesses, scores=scores)
