"""Full-fidelity leakage of FALCON's complex multiplication (FPC_MUL).

The attacked computation FFT(c) (*) FFT(f) multiplies complex slots
(paper Figure 1). The reference FPC_MUL computes, for
x = x_re + i x_im (secret) and y = y_re + i y_im (known):

    p0 = x_re * y_re      p1 = x_im * y_im
    p2 = x_re * y_im      p3 = x_im * y_re
    d_re = p0 - p1        d_im = p2 + p3

The per-real-multiply capture (:mod:`repro.leakage.capture`) is what
the paper's attack consumes; this module synthesizes the *whole* slot
trace — the four instrumented multiplies plus the two instrumented
final additions — for fidelity studies (the final adds mix both secret
doubles of the slot and are a natural second-order target the paper's
"other parts may also leak" remark anticipates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import ADD_STEP_LABELS, MUL_STEP_LABELS
from repro.leakage.backend import DEFAULT_BACKEND, get_backend
from repro.leakage.device import DeviceModel

__all__ = ["FpcLayout", "fpc_step_values", "synthesize_fpc_traces", "FPC_MUL_NAMES"]

_U = np.uint64
_SIGN = _U(1) << _U(63)
_ABS = ~_SIGN
_EXPF = _U(0x7FF)
_MANTF = _U((1 << 52) - 1)
_IMPL = _U(1 << 52)

#: The four real multiplications inside one complex multiply.
FPC_MUL_NAMES = ("re_re", "im_im", "re_im", "im_re")


@dataclass(frozen=True)
class FpcLayout:
    """Step labels of a full complex-multiplication trace."""

    labels: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def build(cls) -> "FpcLayout":
        labels: list[str] = []
        for name in FPC_MUL_NAMES:
            labels.extend(f"{name}.{lab}" for lab in MUL_STEP_LABELS)
        labels.extend(f"add_re.{lab}" for lab in ADD_STEP_LABELS)
        labels.extend(f"add_im.{lab}" for lab in ADD_STEP_LABELS)
        return cls(labels=tuple(labels))


def _add_step_values(x: NDArray[Any], y: NDArray[Any]) -> NDArray[np.uint64]:  # sast: declassify(reason=vectorized leakage model of fpr addition; mirrors the victim's data flow on purpose)
    """Vectorized intermediates of fpr addition (see fpr_add_trace)."""
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    swap = (x & _ABS) < (y & _ABS)
    big = np.where(swap, y, x)
    small = np.where(swap, x, y)
    eb = (big >> _U(52)) & _EXPF
    es = (small >> _U(52)) & _EXPF
    if np.any(eb == 0) or np.any(es == 0):
        raise ValueError("operands must be nonzero normal doubles")
    m_b = (big & _MANTF) | _IMPL
    m_s = (small & _MANTF) | _IMPL
    exp_diff = eb - es
    aligned = m_s >> np.minimum(exp_diff, _U(63))
    same = (big >> _U(63)) == (small >> _U(63))
    mant_sum = np.where(same, m_b + aligned, m_b - aligned)
    result = (x.view(np.float64) + y.view(np.float64)).view(np.uint64)
    mant_out = result & _MANTF
    exp_out = (result >> _U(52)) & _EXPF
    sign_out = result >> _U(63)
    cols = [exp_diff, m_b, aligned, mant_sum, mant_out, exp_out, sign_out, result]
    return np.stack(cols, axis=-1)


def fpc_step_values(
    x_re: int, x_im: int, y_re: NDArray[Any], y_im: NDArray[Any]
) -> tuple[NDArray[np.uint64], FpcLayout]:
    """(D, S) intermediates of the full complex multiply per trace.

    ``x_re``/``x_im`` are the secret doubles' bit patterns (scalars);
    ``y_re``/``y_im`` the known operand pattern arrays.
    """
    y_re = np.asarray(y_re, dtype=np.uint64)
    y_im = np.asarray(y_im, dtype=np.uint64)
    step_values = get_backend(DEFAULT_BACKEND).step_values
    mul_blocks = [
        step_values(x_re, y_re),
        step_values(x_im, y_im),
        step_values(x_re, y_im),
        step_values(x_im, y_re),
    ]
    res_col = MUL_STEP_LABELS.index("result")
    p0 = mul_blocks[0][:, res_col]
    p1 = mul_blocks[1][:, res_col]
    p2 = mul_blocks[2][:, res_col]
    p3 = mul_blocks[3][:, res_col]
    add_re = _add_step_values(p0, p1 ^ _SIGN)   # d_re = p0 - p1
    add_im = _add_step_values(p2, p3)           # d_im = p2 + p3
    values = np.concatenate(mul_blocks + [add_re, add_im], axis=1)
    return values, FpcLayout.build()


def synthesize_fpc_traces(
    x_re: int,
    x_im: int,
    y_re: NDArray[Any],
    y_im: NDArray[Any],
    device: DeviceModel | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[NDArray[np.float32], NDArray[np.uint64], FpcLayout]:
    """Full-slot traces: (traces, step values, layout)."""
    dev = device if device is not None else DeviceModel()
    if rng is None:
        rng = dev.rng()
    values, layout = fpc_step_values(x_re, x_im, y_re, y_im)
    traces = dev.emit(values, rng)
    return traces, values, layout
