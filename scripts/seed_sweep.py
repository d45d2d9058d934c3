"""Per-seed accuracy of the full key-extraction flow.

Runs the ``n8-key`` flow (keygen, live capture, per-coefficient attack,
key decoder, NTRUSolve, forgery) once per seed and prints one Markdown
table row per seed: top-1 exact sign / exponent / mantissa counts
against ground truth, the decoder's moves (coefficients whose rebuilt
double differs from the attack's top-1 pattern) and the key and forgery
outcome. Keys and captures are derived from the seed exactly as
``perfbench``'s ``n8-key`` workload derives them, so at ``--n 8`` seed s
here is seed s there.

    PYTHONPATH=src python scripts/seed_sweep.py --n 8 --traces 6000 --seeds 11-20 205 302
"""

from __future__ import annotations

import argparse
import hashlib
import time

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


def sweep_one(seed: int, n: int, n_traces: int, workers: int) -> str:
    """Run the flow for one seed; return its table row."""
    t0 = time.perf_counter()
    sk, pk = keygen(FalconParams.get(n), seed=_seed_bytes(seed, "key"))
    capture_seed = int.from_bytes(hashlib.sha256(_seed_bytes(seed, "capture")).digest()[:8], "little")
    campaign = CaptureCampaign(sk=sk, n_traces=n_traces, seed=capture_seed)
    try:
        result = recover_full_key(campaign, pk, AttackConfig(n_workers=workers))
        recs, outcome = result.coefficients, ""
    except KeyRecoveryError as exc:
        result, recs, outcome = None, exc.coefficients, f"lost: {exc}"
    truth = _patterns(sk.f)
    exact = [0, 0, 0]
    for r in recs:
        t = truth[r.target_index]
        exact[0] += r.sign.bit == t >> 63
        exact[1] += r.exponent.biased_exponent == (t >> 52) & 0x7FF
        exact[2] += r.mantissa.mantissa_field == t & ((1 << 52) - 1)
    moves = "—"
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
    cells = [str(seed), *(f"{e}/{len(recs)}" for e in exact), moves, outcome,
             f"{time.perf_counter() - t0:.1f}"]
    return "| " + " | ".join(cells) + " |"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=8, help="FALCON degree (default 8)")
    ap.add_argument("--traces", type=int, default=6000, help="traces per coefficient")
    ap.add_argument("--seeds", nargs="+", default=["11-20"], help="seeds or ranges, e.g. 11-20 205")
    ap.add_argument("--workers", type=int, default=1, help="worker processes per attack")
    args = ap.parse_args(argv)
    print("| seed | sign | exponent | mantissa | decoder moves | outcome | s |")
    print("|---|---|---|---|---|---|---|")
    for seed in parse_seeds(args.seeds):
        print(sweep_one(seed, args.n, args.traces, args.workers), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
