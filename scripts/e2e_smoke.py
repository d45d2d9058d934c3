#!/usr/bin/env python3
"""End-to-end smoke of the moving parts the unit tests mock.

One run exercises the 2-worker fan-out, a materialized campaign store,
and a checkpointed session resume for a single leakage surface —
catching pickling, per-target seeding, shard layout, and fingerprint
regressions in one pass. Every correlation runs with
``chunk_rows=4096``, so the 6000-trace runs sum the Pearson moments over
two row blocks. CI fans this script over the registered surfaces
(``make smoke SMOKE_TARGET=...``).

The success criterion is surface-dependent: ``fpr-mul`` must rebuild the
signing key and forge a verifying signature; transcript surfaces like
``samplerz`` succeed on exact recovery of every per-target secret.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile


def _fingerprint(result) -> list:
    """Per-target recovered values, comparable across runs."""
    if result.recovered_values is not None:
        return list(result.recovered_values)
    return [c.pattern for c in result.coefficients]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target", default="fpr-mul",
                    help="leakage surface to smoke end to end")
    ap.add_argument("--traces", type=int, default=None,
                    help="override the per-surface default trace budget")
    args = ap.parse_args(argv)

    from repro.attack import AttackConfig, full_attack
    from repro.falcon import FalconParams, keygen
    from repro.leakage import CampaignStore
    from repro.targets import get_target

    surface = get_target(args.target)
    n_traces = args.traces if args.traces is not None else (
        6000 if surface.has_forgery else 4000
    )
    work = tempfile.mkdtemp(prefix="falcon-verify-")
    try:
        store = os.path.join(work, "store")
        sess = os.path.join(work, "sess")
        sk, pk = keygen(FalconParams.get(8), seed=b"verify")
        kwargs = dict(
            n_traces=n_traces, n_workers=2, message=b"verify smoke",
            target=args.target, session=sess, config=AttackConfig(chunk_rows=4096),
        )
        r = full_attack(sk, pk, store=store, **kwargs)
        print(r.summary())
        ok = (r.key_correct and r.forgery_verifies) if surface.has_forgery \
            else r.key_correct
        assert ok, "parallel smoke attack failed"
        r2 = full_attack(sk, pk, store=CampaignStore(store), **kwargs)
        assert _fingerprint(r2.key_recovery) == _fingerprint(r.key_recovery), \
            "store-backed resume diverged"
        ok2 = (r2.key_correct and r2.forgery_verifies) if surface.has_forgery \
            else r2.key_correct
        assert ok2, "resumed smoke attack failed"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
