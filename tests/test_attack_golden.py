"""Golden scores: one FALCON-8 coefficient attack, pinned score by score.

``tests/data/golden_scores_n8.npz`` holds every score vector of a fixed
n=8 coefficient attack (see ``scripts/make_golden_scores.py``). Re-running
the attack must reproduce the recovered pattern, the ladder survivor
sets, the prune and refine winners and the exponent top-12 exactly,
every score within 1e-12, and every ranking except inside groups of
golden scores tied within 1e-12, where float64 summation order may
reorder them.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_golden_scores", _ROOT / "scripts" / "make_golden_scores.py"
)
golden_gen = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("make_golden_scores", golden_gen)
_spec.loader.exec_module(golden_gen)

TOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with np.load(_ROOT / "tests" / "data" / "golden_scores_n8.npz") as z:
        return {k: z[k] for k in z.files}


@pytest.fixture(scope="module")
def fresh(golden):
    ts = golden_gen.capture()
    # A different capture is a different experiment, not a kernel change.
    assert golden_gen.traces_digest(ts) == str(golden["traces_sha256"]), (
        "captured traces differ from the golden run; regenerate the golden "
        "file only for a deliberate capture change"
    )
    return golden_gen.record(ts)


def _score_keys(golden):
    return [k for k in golden if k.endswith("scores")]


def assert_same_ranking(got: np.ndarray, want: np.ndarray) -> None:
    """``got`` ranks like ``want``, up to reorders among ``want``-ties."""
    ranked = want[np.argsort(-got, kind="stable")]
    assert np.all(np.diff(ranked) <= TOL)


def test_same_keys(golden, fresh):
    assert set(fresh) == set(golden)


def test_recovered_pattern(golden, fresh):
    assert int(fresh["pattern"]) == int(golden["pattern"])
    assert int(fresh["sign.bit"]) == int(golden["sign.bit"])
    assert int(fresh["exponent.best"]) == int(golden["exponent.best"])


def test_every_score_within_tolerance(golden, fresh):
    for key in _score_keys(golden):
        assert fresh[key].shape == golden[key].shape, key
        np.testing.assert_allclose(fresh[key], golden[key], rtol=0, atol=TOL, err_msg=key)


def test_rankings_match_up_to_ties(golden, fresh):
    for key in _score_keys(golden):
        if key == "sign.scores":
            for got, want in zip(fresh[key], golden[key]):
                assert_same_ranking(got, want)
        else:
            assert_same_ranking(fresh[key], golden[key])


@pytest.mark.parametrize("limb", ["low", "high"])
def test_ladder_survivors_and_winners(golden, fresh, limb):
    for i in range(int(golden[f"{limb}.ladder.stages"])):
        for part in ("candidates", "survivors"):
            key = f"{limb}.ladder.{i}.{part}"
            np.testing.assert_array_equal(fresh[key], golden[key], err_msg=key)
    cands = golden[f"{limb}.prune.candidates"]
    np.testing.assert_array_equal(fresh[f"{limb}.prune.candidates"], cands)
    assert cands[np.argmax(fresh[f"{limb}.prune.scores"])] == cands[
        np.argmax(golden[f"{limb}.prune.scores"])
    ]
    assert int(fresh[f"{limb}.refined"]) == int(golden[f"{limb}.refined"])


def test_exponent_top12(golden, fresh):
    guesses = golden["exponent.guesses"]
    np.testing.assert_array_equal(fresh["exponent.guesses"], guesses)

    def top12(scores):
        return guesses[np.argsort(-scores, kind="stable")[:12]].tolist()

    assert top12(fresh["exponent.scores"]) == top12(golden["exponent.scores"])


def test_tie_tolerant_ranking_check_rejects_a_real_swap():
    want = np.array([3.0, 2.0, 2.0 + 5e-13, 1.0])  # [1] and [2] tie within TOL
    assert_same_ranking(np.array([3.0, 2.0 + 1e-15, 2.0, 1.0]), want)
    with pytest.raises(AssertionError):
        assert_same_ranking(np.array([1.0, 2.0, 2.0, 3.0]), want)
