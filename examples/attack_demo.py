#!/usr/bin/env python3
"""The full Falcon-Down attack, end to end (paper Section IV).

Simulates a victim device signing with a fixed FALCON key, captures EM
traces of the FFT(c) (*) FFT(f) floating-point multiplications, runs the
extend-and-prune differential EM attack on every coefficient, rebuilds
the complete signing key from the public key + recovered f, and forges a
signature that verifies under the victim's genuine public key.

    python examples/attack_demo.py --n 16 --traces 10000

With --store DIR the capture is materialized to a disk-backed campaign
store first and the attack replays the memory-mapped shards — run it
twice to see the capture cost disappear on the second invocation. With
--session DIR every finished coefficient is checkpointed, so an
interrupted run (Ctrl-C) resumes bit-identically.

Scale notes: wall clock is roughly n * 10 s at the defaults (one core).
n=8 finishes in ~2 minutes; the code path is identical for --n 512.
"""

import argparse
import time

from repro.attack import AttackConfig, full_attack
from repro.falcon import FalconParams, keygen
from repro.leakage import CaptureCampaign, DeviceModel
from repro.obs import RunJournal, console_subscriber


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8, help="ring degree of the victim key")
    parser.add_argument("--traces", type=int, default=10_000, help="EM measurements")
    parser.add_argument("--noise", type=float, default=12.0, help="device noise sigma")
    parser.add_argument("--seed", type=str, default="victim", help="victim key seed")
    parser.add_argument("--progress", action="store_true", help="per-coefficient log")
    parser.add_argument(
        "--distinguisher", type=str, default="cpa",
        choices=("cpa", "template", "mlp", "second-order"),
        help="statistical engine for every recovery step",
    )
    parser.add_argument(
        "--store", type=str, default=None,
        help="campaign store directory: capture once to disk, attack from "
        "memory-mapped shards (re-running skips the capture entirely)",
    )
    parser.add_argument(
        "--session", type=str, default=None,
        help="checkpoint directory; an interrupted run resumes bit-identically",
    )
    args = parser.parse_args()

    print(f"generating victim FALCON-{args.n} key ...")
    sk, pk = keygen(FalconParams.get(args.n), seed=args.seed.encode())
    print(f"  secret f[:8] = {sk.f[:8]} (the attack must recover this)")

    device = DeviceModel(noise_sigma=args.noise)
    source = None
    if args.store:
        # Materialize first so the capture cost is visible on its own;
        # complete shards from a previous run are reused, not re-simulated.
        campaign = CaptureCampaign(sk=sk, device=device, n_traces=args.traces)
        t0 = time.perf_counter()
        source = campaign.materialize(args.store)
        print(
            f"campaign store at {args.store}: {len(source.targets())} shards "
            f"ready in {time.perf_counter() - t0:.1f}s (cached shards are free)"
        )

    print(f"capturing {args.traces} traces/coefficient at noise sigma {args.noise} "
          f"and attacking {args.n} coefficients ...")
    report = full_attack(
        sk,
        pk,
        n_traces=args.traces,
        device=device,
        config=AttackConfig(distinguisher=args.distinguisher),
        message=b"the adversary signs whatever it wants",
        store=source,
        session=args.session,
        journal=RunJournal(subscribers=(console_subscriber,)) if args.progress else None,
    )

    print()
    print(report.summary())
    print()
    if report.key_correct:
        print(f"recovered f[:8] = {report.key_recovery.f[:8]}")
        print("the adversary now holds a fully functional signing key.")
    else:
        print("key not recovered — increase --traces or lower --noise.")


if __name__ == "__main__":
    main()
