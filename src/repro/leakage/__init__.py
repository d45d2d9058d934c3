"""Simulated EM side-channel acquisition.

The paper measures a real ARM Cortex-M4 with a near-field EM probe; this
package is the software substitute. The device model executes FALCON's
instrumented floating-point multiplication (:mod:`repro.fpr.trace`) and
emits, for every architectural intermediate, leakage samples

    sample = gain * HW(value) + offset + N(0, noise_sigma^2)

— the data-dependent CMOS activity the paper's differential analysis
consumes. The capture layer replays the attacked computation
FFT(c) (*) FFT(f) from real FALCON signing flows over many random
messages and packages the result as :class:`TraceSet` objects.
"""

from repro.leakage.model import HammingWeightModel, HammingDistanceModel, WeightedBitModel
from repro.leakage.device import DeviceModel
from repro.leakage.synth import synthesize_mul_traces, trace_layout, TraceLayout
from repro.leakage.traceset import TraceSet
from repro.leakage.capture import CaptureCampaign, capture_coefficient
from repro.leakage.store import CampaignStore, StoreError, TraceSource
from repro.leakage.trs import read_trs, write_trs, traceset_to_trs, trs_to_traceset

__all__ = [
    "HammingWeightModel",
    "HammingDistanceModel",
    "WeightedBitModel",
    "DeviceModel",
    "synthesize_mul_traces",
    "trace_layout",
    "TraceLayout",
    "TraceSet",
    "CaptureCampaign",
    "capture_coefficient",
    "CampaignStore",
    "StoreError",
    "TraceSource",
    "read_trs",
    "write_trs",
    "traceset_to_trs",
    "trs_to_traceset",
]
