"""Vectorized synthesis of EM traces for FALCON's float multiplication.

Computes, for D (secret, known) operand pairs at once, the same
architectural intermediates as :func:`repro.fpr.trace.fpr_mul_trace`
(property-tested equal), maps them through the device model, and returns
oscilloscope-style trace matrices.

The step values come from :func:`repro.leakage.steps.step_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import MUL_STEP_LABELS
from repro.leakage.device import DeviceModel
from repro.leakage.steps import step_values

__all__ = ["trace_layout", "TraceLayout", "synthesize_mul_traces"]


@dataclass(frozen=True)
class TraceLayout:
    """Mapping from step labels to sample index ranges in a trace."""

    samples_per_step: int
    labels: tuple[str, ...] = MUL_STEP_LABELS

    @property
    def n_samples(self) -> int:
        return len(self.labels) * self.samples_per_step

    def slice_of(self, label: str) -> slice:
        i = self.labels.index(label)
        return slice(i * self.samples_per_step, (i + 1) * self.samples_per_step)

    def sample_of(self, label: str) -> int:
        """First sample index covering ``label``."""
        return self.labels.index(label) * self.samples_per_step


def trace_layout(device: DeviceModel) -> TraceLayout:
    return TraceLayout(samples_per_step=device.samples_per_step)


def synthesize_mul_traces(
    x: NDArray[Any] | int,
    y: NDArray[Any],
    device: DeviceModel,
    rng: np.random.Generator | None = None,
) -> tuple[NDArray[np.float32], NDArray[np.uint64]]:
    """Traces (D, T) plus the underlying step values (D, S) for x*y."""
    if rng is None:
        rng = device.rng()
    values = step_values(x, y)
    traces = device.emit(values, rng)
    return traces, values
