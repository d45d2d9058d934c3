"""Reference step values: one softfloat ``fpr_mul_trace`` per operand pair.

:mod:`repro.leakage.steps` is shared by capture and the attack's
hypotheses, so comparing those two with each other proves nothing about
either. Tests take their expected values from this loop over the
independent Python-int implementation in :mod:`repro.fpr.trace`.
"""

import numpy as np

from repro.fpr.trace import fpr_mul_trace


def reference_step_values(x, y) -> np.ndarray:
    """(D, S) uint64 matrix of ``fpr_mul_trace(x[d], y[d]).values``; scalar x broadcasts."""
    y = np.asarray(y, dtype=np.uint64)
    x = np.broadcast_to(np.asarray(x, dtype=np.uint64), y.shape)
    return np.array(
        [fpr_mul_trace(int(a), int(b)).values for a, b in zip(x, y)], dtype=np.uint64
    )
