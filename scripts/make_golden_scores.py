#!/usr/bin/env python3
"""Write the golden CPA scores of one FALCON-8 coefficient attack.

One n=8 key and one secret double are captured at a fixed seed with
1500 direct-mode traces per segment and attacked with the default
``AttackConfig``. Every score vector the attack ranks on is stored:
each ladder stage's candidates, scores and survivors for both limbs,
both prune phases' candidates and scores, the refined limbs, the
exponent guesses and combined scores, the per-segment sign scores and
the recovered pattern. ``tests/test_attack_golden.py`` re-runs the same
attack and compares against this file, so a change to the hypothesis
builders or the Pearson kernels that moves any score or ranking fails.

Usage, from the root of a checkout::

    PYTHONPATH=src python scripts/make_golden_scores.py \\
        [--out tests/data/golden_scores_n8.npz]

Regenerate only for a deliberate change of the capture or the attack's
semantics; a speed-up must reproduce the existing file.
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

from repro.attack.coefficient import recover_coefficient
from repro.falcon import FalconParams, keygen
from repro.leakage import CaptureCampaign

KEY_SEED = b"golden-scores/n8"
CAPTURE_SEED = 7
N_TRACES = 1500
TARGET_INDEX = 0
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "data", "golden_scores_n8.npz",
)


def capture():
    """The fixed n=8 trace set the golden scores are computed on."""
    sk, _pk = keygen(FalconParams.get(8), seed=KEY_SEED)
    campaign = CaptureCampaign(sk=sk, n_traces=N_TRACES, seed=CAPTURE_SEED)
    return campaign.capture(TARGET_INDEX)


def traces_digest(traceset) -> str:
    """SHA-256 over every segment's known operands and samples."""
    h = hashlib.sha256()
    for seg in traceset.segments:
        h.update(np.ascontiguousarray(seg.known_y).tobytes())
        h.update(np.ascontiguousarray(seg.traces).tobytes())
    return h.hexdigest()


def record(traceset) -> dict[str, np.ndarray]:
    """Every score vector of one default-config coefficient attack."""
    coef = recover_coefficient(traceset)
    out: dict[str, np.ndarray] = {
        "traces_sha256": np.array(traces_digest(traceset)),
        "pattern": np.array(coef.pattern, dtype=np.uint64),
    }
    for limb, diag in (("low", coef.mantissa.low), ("high", coef.mantissa.high)):
        out[f"{limb}.ladder.stages"] = np.array(len(diag.ladder.stages))
        for i, stage in enumerate(diag.ladder.stages):
            out[f"{limb}.ladder.{i}.candidates"] = stage.candidates
            out[f"{limb}.ladder.{i}.scores"] = stage.scores
            out[f"{limb}.ladder.{i}.survivors"] = np.sort(stage.survivors)
        out[f"{limb}.prune.candidates"] = diag.candidates
        out[f"{limb}.prune.scores"] = diag.prune_scores
        out[f"{limb}.refined"] = np.array(diag.best, dtype=np.uint64)
    out["exponent.guesses"] = coef.exponent.guesses
    out["exponent.scores"] = coef.exponent.combined_scores
    out["exponent.best"] = np.array(coef.exponent.biased_exponent)
    out["sign.scores"] = np.array([r.scores for r in coef.sign.results])
    out["sign.bit"] = np.array(coef.sign.bit)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT, help="output .npz path")
    args = ap.parse_args(argv)
    ts = capture()
    golden = record(ts)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    np.savez_compressed(args.out, **golden)
    correct = int(golden["pattern"]) == ts.true_secret
    print(f"wrote {args.out}: {len(golden)} arrays, pattern {int(golden['pattern']):#018x} "
          f"({'correct' if correct else 'WRONG'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
