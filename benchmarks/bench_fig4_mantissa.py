"""FIG4(c,d) — the heart of the paper.

(c) A straightforward CPA on the mantissa *multiplication* produces
    false positives: the top guesses (shift aliases of the true limb)
    have *exactly the same* correlation.
(d) The extend-and-prune step re-ranks those guesses on the intermediate
    *addition*, which is not shift invariant — every false positive is
    eliminated and the true limb wins outright.
"""

import numpy as np

from repro.analysis import format_ranking
from repro.attack.extend_prune import LOW_PRUNE_STEPS, prune_candidates
from repro.attack.strawman import shift_aliases, straightforward_mantissa_attack


def _guess_space(true_lo: int, extra: int = 2000, seed: int = 0) -> np.ndarray:
    """The paper enumerates all 2^25 guesses; we use a subspace that
    contains the true limb, all of its shift aliases (the tie class the
    full enumeration would also surface), and random fill."""
    rng = np.random.default_rng(seed)
    pool = shift_aliases(true_lo, 25) + list(rng.integers(1, 1 << 25, extra))
    return np.unique(np.array(pool, dtype=np.uint64))


def test_fig4c_multiplication_false_positives(traceset, true_parts, benchmark):
    true_lo = true_parts["lo"]
    guesses = _guess_space(true_lo)

    res = benchmark.pedantic(
        lambda: straightforward_mantissa_attack(traceset, guesses, true_limb=true_lo),
        rounds=1,
        iterations=1,
    )
    print(f"\nFIG4c: straightforward attack on p_ll = D*B over {len(guesses)} guesses")
    print(format_ranking(
        list(map(int, res.cpa.guesses)), list(res.cpa.scores), correct=true_lo, top=6
    ))
    print(f"  tied top guesses: {[hex(int(g)) for g in res.tied_top]}")
    # the correct guess reaches the top ...
    assert res.correct_in_tie
    # ... but cannot be singled out: its shift aliases tie exactly
    aliases = set(shift_aliases(true_lo, 25))
    assert len(aliases) > 1, "degenerate secret limb (no aliases) — reseed the bench"
    assert res.has_false_positives
    assert set(int(g) for g in res.tied_top) == aliases
    # the ties are significant: these are real false positives, not noise
    assert res.cpa.scores.max() > res.cpa.threshold()


def test_fig4d_addition_prunes_false_positives(traceset, true_parts, benchmark):
    true_lo = true_parts["lo"]
    aliases = np.array(sorted(set(shift_aliases(true_lo, 25))), dtype=np.uint64)

    def prune():
        return prune_candidates(traceset, aliases, LOW_PRUNE_STEPS)

    scores, results = benchmark.pedantic(prune, rounds=1, iterations=1)
    print(f"\nFIG4d: prune phase on s_lo = (D*B >> 25) + D*A over the tie class")
    print(format_ranking(list(map(int, aliases)), list(scores), correct=true_lo, top=6))
    # the addition separates the class: the true limb wins strictly
    order = np.argsort(-scores)
    assert int(aliases[order[0]]) == true_lo
    margin = scores[order[0]] - scores[order[1]]
    print(f"  winning margin over best false positive: {margin:.4f}")
    assert margin > 0.005, "addition did not separate the aliases"
    # and the winner is statistically significant
    assert scores[order[0]] / len(results) > results[0].threshold() / 2
