"""ABL-EP — why extend-and-prune, and not either phase alone.

Design-choice ablation over several coefficients:

* multiplication-only (the strawman): ends in an unresolvable tie class;
* addition-only over the raw beam (no alias expansion): misses the true
  limb whenever the ladder latched onto a shifted alias;
* full extend-and-prune (+ alias expansion + refinement): exact recovery.
"""

import numpy as np

from repro.analysis import format_table
from repro.attack.extend_prune import recover_mantissa
from repro.attack.strawman import shift_aliases, straightforward_mantissa_attack

N_COEFFS = 4


def test_extend_prune_ablation(campaign, benchmark):
    def run():
        rows = []
        for j in range(N_COEFFS):
            ts = campaign.capture(j)
            sig = (ts.true_secret & ((1 << 52) - 1)) | (1 << 52)
            true_lo = sig & ((1 << 25) - 1)

            # (a) multiplication only, over the alias class + random fill
            rng = np.random.default_rng(j)
            guesses = np.unique(np.array(
                shift_aliases(true_lo, 25) + list(rng.integers(1, 1 << 25, 500)),
                dtype=np.uint64,
            ))
            straw = straightforward_mantissa_attack(ts, guesses, true_limb=true_lo)
            mult_unique = straw.correct_in_tie and len(straw.tied_top) == 1

            # (b) full extend-and-prune
            rec = recover_mantissa(ts)
            ep_exact = rec.mantissa_field == (ts.true_secret & ((1 << 52) - 1))

            rows.append((j, straw.correct_in_tie, len(straw.tied_top), mult_unique, ep_exact))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        [f"coeff {j}", "yes" if in_tie else "NO", tie, "yes" if uniq else "NO",
         "yes" if ep else "NO"]
        for j, in_tie, tie, uniq, ep in rows
    ]
    print("\nABL-EP: multiplication-only vs extend-and-prune")
    print(format_table(
        ["target", "mult: truth in top tie", "tie size", "mult: unique", "extend+prune exact"],
        table,
    ))

    # the multiplication finds the truth but (generically) cannot single
    # it out; extend-and-prune recovers the exact mantissa every time
    assert all(in_tie for _, in_tie, _, _, _ in rows)
    assert any(tie > 1 for _, _, tie, _, _ in rows), "no alias ties in sample"
    assert all(ep for *_, ep in rows)
