"""Per-seed accuracy of the full key-extraction flow.

Runs the ``n8-key`` flow (keygen, live capture, per-coefficient attack,
key decoder, NTRUSolve, forgery) once per seed and trace budget and
prints one Markdown table row per run: top-1 exact sign / exponent /
mantissa counts against ground truth, the smallest sign / exponent /
mantissa score margin over the coefficients, the budget, the attack's
seconds (per-coefficient attacks plus key decoder), the decoder's moves
(coefficients whose rebuilt double differs from the attack's top-1
pattern) and the key and forgery outcome. Keys and captures are derived
from the seed exactly as ``perfbench``'s ``n8-key`` workload derives
them, so at ``--n 8`` seed s here is seed s there.

    PYTHONPATH=src python scripts/seed_sweep.py --n 8 --traces 2000 6000 --seeds 11-20 205
"""

from __future__ import annotations

import argparse
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.attack import AttackConfig
from repro.attack.key_recovery import KeyRecoveryError, forge, recover_full_key
from repro.falcon import FalconParams, keygen, verify
from repro.leakage.capture import CaptureCampaign, fft_to_doubles
from repro.math import fft


def _seed_bytes(seed: int, purpose: str) -> bytes:
    return f"perfbench/n8-key/{seed}/{purpose}".encode()


def _patterns(f: list[int]) -> list[int]:
    return [int(p) for p in fft_to_doubles(fft.fft(f)).view(np.uint64)]


def parse_seeds(tokens: list[str]) -> list[int]:
    """``["11-13", "205"]`` -> ``[11, 12, 13, 205]``."""
    seeds: list[int] = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


@dataclass
class SweepRow:
    """One seed at one trace budget."""

    seed: int
    traces: int
    exact: tuple[int, int, int]        # top-1 exact sign, exponent, mantissa
    n_coefficients: int
    margins: tuple[float, float, float]  # smallest sign, exponent, mantissa margin
    attack_s: float
    moves: str
    outcome: str
    key_ok: bool

    def markdown(self) -> str:
        cells = [
            str(self.seed), *(f"{e}/{self.n_coefficients}" for e in self.exact),
            *(f"{m:.3g}" for m in self.margins), str(self.traces), f"{self.attack_s:.1f}",
            self.moves, self.outcome,
        ]
        return "| " + " | ".join(cells) + " |"


HEADER = (
    "| seed | sign | exponent | mantissa | sign margin | exponent margin | mantissa margin "
    "| traces | attack s | decoder moves | outcome |\n|" + "---|" * 11
)


def _min_margin(values: list[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return min(finite) if finite else math.inf


def sweep_one(seed: int, n: int, n_traces: int, workers: int) -> SweepRow:
    """Run the flow for one seed at one trace budget."""
    sk, pk = keygen(FalconParams.get(n), seed=_seed_bytes(seed, "key"))
    capture_seed = int.from_bytes(hashlib.sha256(_seed_bytes(seed, "capture")).digest()[:8], "little")
    campaign = CaptureCampaign(sk=sk, n_traces=n_traces, seed=capture_seed)
    t0 = time.perf_counter()
    try:
        result = recover_full_key(campaign, pk, AttackConfig(n_workers=workers))
        recs, outcome = result.coefficients, ""
    except KeyRecoveryError as exc:
        result, recs, outcome = None, exc.coefficients, f"lost: {exc}"
    attack_s = time.perf_counter() - t0
    truth = _patterns(sk.f)
    exact = [0, 0, 0]
    for r in recs:
        t = truth[r.target_index]
        exact[0] += r.sign.bit == t >> 63
        exact[1] += r.exponent.biased_exponent == (t >> 52) & 0x7FF
        exact[2] += r.mantissa.mantissa_field == t & ((1 << 52) - 1)
    margins = (
        _min_margin([r.sign.margin for r in recs]),
        _min_margin([r.exponent.margin for r in recs]),
        _min_margin([r.mantissa_margin for r in recs]),
    )
    moves, key_ok = "—", False
    if result is not None:
        rebuilt = _patterns(result.f)
        moves = "; ".join(
            f"coef {r.target_index}: {r.pattern:#018x} → {rebuilt[r.target_index]:#018x}"
            for r in recs if rebuilt[r.target_index] != r.pattern
        ) or "none"
        message = _seed_bytes(seed, "forged message")
        sig = forge(result, message, seed=_seed_bytes(seed, "forge"))
        key_ok = result.f == list(sk.f) and result.g == list(sk.g)
        outcome = f"key {'YES' if key_ok else 'WRONG'}, forgery {'YES' if verify(pk, message, sig) else 'NO'}"
    return SweepRow(seed, n_traces, tuple(exact), len(recs), margins, attack_s, moves, outcome, key_ok)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=8, help="FALCON degree (default 8)")
    ap.add_argument("--traces", type=int, nargs="+", default=[6000],
                    help="trace budgets per coefficient, e.g. 2000 4000 6000 10000")
    ap.add_argument("--seeds", nargs="+", default=["11-20"], help="seeds or ranges, e.g. 11-20 205")
    ap.add_argument("--workers", type=int, default=1, help="worker processes per attack")
    args = ap.parse_args(argv)
    print(HEADER)
    for seed in parse_seeds(args.seeds):
        for n_traces in args.traces:
            print(sweep_one(seed, args.n, n_traces, args.workers).markdown(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
