"""Ideal first-order Boolean masking of the mantissa datapath.

A masked implementation never holds a secret-dependent value in the
clear: each intermediate v is represented as (v XOR m, m) with m fresh
and uniform per execution. We model the ideal case — the device leaks
the masked share only (leaking both shares at separate samples would
re-enable second-order attacks; that extension is deliberately left as
a hook, ``leak_masks=True``).

The sign/exponent steps can be masked the same way; the default list
covers every step the paper's attack targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import MUL_STEP_LABELS, MUL_STEP_WIDTHS

if TYPE_CHECKING:
    from repro.falcon.keygen import SecretKey
    from repro.leakage.device import DeviceModel

__all__ = ["MaskingTransform", "DEFAULT_MASKED_STEPS"]

#: Every step carrying secret mantissa/exponent/sign material.
DEFAULT_MASKED_STEPS = (
    "load_x_lo",
    "load_x_hi",
    "p_ll",
    "p_lh",
    "s_lo",
    "p_hl",
    "s_mid",
    "p_hh",
    "s_hi",
    "sticky",
    "mant_out",
    "exp_sum",
    "exp_biased",
    "exp_out",
    "sign_out",
    "result",
)


@dataclass
class MaskingTransform:
    """``value_transform`` hook implementing first-order masking."""

    masked_steps: tuple[str, ...] = DEFAULT_MASKED_STEPS
    leak_masks: bool = False   # ideal masking: the mask share is not observed

    _indices: list[tuple[int, int]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        for label in self.masked_steps:
            if label not in MUL_STEP_LABELS:
                raise ValueError(f"unknown step label {label!r}")
            self._indices.append((MUL_STEP_LABELS.index(label), MUL_STEP_WIDTHS[label]))

    def __call__(
        self, values: NDArray[np.uint64], rng: np.random.Generator
    ) -> NDArray[np.uint64]:
        """Mask every configured column with one batched RNG call.

        Bit-identical to drawing :func:`_random_masks` per column: numpy
        serves our power-of-two bounds rejection-free, so each bounded
        draw is a fixed bit-slice of the raw word stream (one uint64 per
        element above 32 bits, one 32-bit half — low half first, high
        half buffered — at or below). We pull the whole word budget in a
        single full-range ``integers`` call, slice the masks out, and
        restore the generator's half-word buffer through
        ``bit_generator.state`` so subsequent draws (device noise,
        jitter, a second segment's masks) see the exact stream the
        per-column loop would have left behind.
        """
        out = values.copy()
        d = int(out.shape[0])
        if d == 0 or not self._indices:
            return out
        state = rng.bit_generator.state
        had_buffer = bool(state.get("has_uint32"))
        pending: int | None = int(state["uinteger"]) if had_buffer else None
        total = _consumed_words(self._indices, d, buffered=had_buffer)
        raw = rng.integers(0, 1 << 64, size=total, dtype=np.uint64)
        pos = 0
        for col, width in self._indices:
            m = min(width, 63)
            if m > 32:
                masks = raw[pos:pos + d] >> np.uint64(64 - m)
                pos += d
            else:
                masks, pos, pending = _take_halves(raw, pos, pending, d, m)
            if width >= 64:
                top, pos, pending = _take_halves(raw, pos, pending, d, 1)
                masks = masks | (top << np.uint64(63))
            out[:, col] = out[:, col] ^ masks
        if pending is not None or had_buffer:
            state = rng.bit_generator.state
            state["has_uint32"] = int(pending is not None)
            state["uinteger"] = int(pending or 0)
            rng.bit_generator.state = state
        return out


def _consumed_words(
    indices: list[tuple[int, int]], d: int, buffered: bool
) -> int:
    """Raw uint64 words the per-column loop draws for a batch of ``d``."""
    total = 0
    for _col, width in indices:
        m = min(width, 63)
        if m > 32:
            total += d
        else:
            need = d - (1 if buffered else 0)
            total += (need + 1) // 2
            buffered = need % 2 == 1
        if width >= 64:
            need = d - (1 if buffered else 0)
            total += (need + 1) // 2
            buffered = need % 2 == 1
    return total


def _take_halves(
    raw: NDArray[np.uint64], pos: int, pending: int | None, count: int, m: int
) -> tuple[NDArray[np.uint64], int, int | None]:
    """``count`` draws of a ``2**m`` bound (m <= 32): 32-bit halves,
    low half first, odd tail buffered — numpy's own consumption order."""
    halves = np.empty(count, dtype=np.uint64)
    start = 0
    if pending is not None:
        halves[0] = pending
        pending = None
        start = 1
    need = count - start
    n_words = (need + 1) // 2
    words = raw[pos:pos + n_words]
    pos += n_words
    inter = np.empty(2 * n_words, dtype=np.uint64)
    inter[0::2] = words & np.uint64(0xFFFFFFFF)
    inter[1::2] = words >> np.uint64(32)
    halves[start:] = inter[:need]
    if need % 2 == 1:
        pending = int(inter[need])
    return halves >> np.uint64(32 - m), pos, pending


def _random_masks(
    rng: np.random.Generator, n: int, width: int
) -> NDArray[np.uint64]:
    masks = rng.integers(0, 1 << min(width, 63), size=n, dtype=np.int64).astype(np.uint64)
    if width >= 64:
        masks |= rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint64) << np.uint64(63)
    return masks


def capture_masked_shares(
    sk: "SecretKey",
    target_index: int,
    step: str,
    n_traces: int = 10_000,
    device: "DeviceModel | None" = None,
    seed: int = 2021,
    segment: int = 0,
) -> tuple[NDArray[Any], NDArray[Any], NDArray[np.uint64], int]:
    """Capture a masked device that leaks *both* shares of one step.

    A real masked implementation manipulates (v XOR m) and m in separate
    cycles; an oscilloscope sees both. Returns
    ``(share_masked, share_mask, known_y, true_secret)`` where the two
    share arrays are (D,) sample columns — the input of the
    second-order attack (:mod:`repro.attack.second_order`).
    """
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.device import DeviceModel
    from repro.leakage.steps import step_values

    if step not in MUL_STEP_LABELS:
        raise ValueError(f"unknown step label {step!r}")
    dev = device if device is not None else DeviceModel()
    campaign = CaptureCampaign(sk=sk, n_traces=n_traces, device=dev, seed=seed)
    ts = campaign.capture(target_index)
    seg = ts.segments[segment]
    values = step_values(ts.true_secret, seg.known_y)
    col = MUL_STEP_LABELS.index(step)
    width = MUL_STEP_WIDTHS[step]
    rng = np.random.default_rng((dev.seed, seed, target_index, col))
    masks = _random_masks(rng, len(seg.known_y), width)
    masked_vals = values[:, col] ^ masks
    share_masked = dev.emit(masked_vals.reshape(-1, 1), rng)[:, 0]
    share_mask = dev.emit(masks.reshape(-1, 1), rng)[:, 0]
    return share_masked, share_mask, seg.known_y, ts.true_secret
