"""Tunable parameters of the attack."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.registry import unknown_name_error

__all__ = ["AttackConfig", "KNOWN_DISTINGUISHERS"]

#: Names the distinguisher registry guarantees (kept here, not in
#: :mod:`repro.attack.distinguisher`, so config validation needs no
#: import of the engine it configures).
KNOWN_DISTINGUISHERS = ("cpa", "template", "mlp", "second-order")


@dataclass(frozen=True)
class AttackConfig:
    """Knobs of one attack run.

    ``n_workers`` fans the per-coefficient attacks of
    :func:`repro.attack.key_recovery.recover_full_key` out over a
    process pool (1 = serial in-process; results are bit-identical either
    way because every target derives its own seeds). ``chunk_rows`` is
    the row-block size of the Pearson kernel
    (:func:`repro.utils.stats.batched_pearson`): every correlation sums
    its moments over blocks of that many traces, and ``None`` is one
    block of all of them. It bounds the float64 copy of the traces and
    changes scores only by float64 summation order. It reaches the
    scoring through the distinguisher the config builds.

    ``distinguisher`` selects the statistical engine every recovery step
    scores guesses with (see :mod:`repro.attack.distinguisher`):
    ``"cpa"`` (default, the paper's Pearson correlation),
    ``"template"`` / ``"mlp"`` (the Section V-A profiled extensions —
    these trigger a profiling phase on a fresh adversary key controlled
    by the ``profiling_*`` knobs) and ``"second-order"`` (the Section V-B
    centered-product attack; needs share-pair captures).

    The search widths are module constants, not knobs: the ladder's
    ``WINDOW``/``BEAM``/``KEEP`` and its row prefix ``ROWS``
    (:mod:`repro.attack.ladder`) and the exponent band
    ``EXPONENT_GUESSES`` (:mod:`repro.attack.sign_exp`). Every trace
    segment is always used; the ladder scores the first ``ROWS`` rows of
    each (more if its best candidate is not significant), every other
    step all of them.
    """

    n_workers: int = 1
    chunk_rows: int | None = None
    distinguisher: str = "cpa"
    profiling_traces: int = 2000       # traces per profiling target
    profiling_targets: int = 4         # how many fresh-key doubles to pool
    profiling_seed: int = 77           # profiling campaign seed (never the victim's)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {self.chunk_rows}")
        if self.distinguisher not in KNOWN_DISTINGUISHERS:
            raise unknown_name_error(
                "distinguisher", self.distinguisher, dict.fromkeys(KNOWN_DISTINGUISHERS)
            )
        if self.profiling_traces < 1:
            raise ValueError(f"profiling_traces must be >= 1, got {self.profiling_traces}")
        if self.profiling_targets < 1:
            raise ValueError(f"profiling_targets must be >= 1, got {self.profiling_targets}")
