"""SAST wall-time: cold analysis vs the incremental summary cache.

``make sast`` runs the verify gate with ``--cache .sast-cache.json``;
this bench quantifies what that buys. Five phases over a private copy
of ``src/repro`` (the real tree is never touched):

* **cold** — empty cache, every module analyzed;
* **warm_noop** — nothing changed, the full-tree fast path replays the
  cached findings without running any pass;
* **warm_leaf_edit** — a self-contained module edited; only that file
  is re-analyzed, everything else replays from the cache;
* **warm_core_edit** — a module inside the big taint component edited;
  the cache correctly cascades through the component (taint is
  interprocedural in both directions, so this is the sound floor, not
  a cache bug);
* **variant_static** — the CT007 countermeasure-variant checks run
  against the real contract's ``variants`` section on top of the cold
  findings (the leak-class lattice and masking taint domain already
  ran inside the analysis phases — this isolates the gate layered on
  top of them).

The bench asserts exactly which modules each edit re-analyzed, so the
incremental claim is checked, and prints every phase's wall time.
"""

import os
import shutil
import time

from repro.sast.cache import run_with_cache
from repro.sast.contract import infer_leak_class, load_contract
from repro.sast.project import load_project
from repro.sast.variants import check_variants_static, normalize_line

_LEAF_EDIT = os.path.join("analysis", "key_rank.py")
_CORE_EDIT = os.path.join("fpr", "emu.py")


def _copy_tree(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    dst = os.path.join(str(tmp_path), "repro")
    shutil.copytree(os.path.abspath(src), dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_sast_cold_vs_warm_cache(tmp_path, benchmark):
    root = _copy_tree(tmp_path)
    cache = os.path.join(str(tmp_path), "sast-cache.json")
    timings = {}
    results = {}

    def phase(name):
        t0 = time.perf_counter()
        findings, stats = run_with_cache(load_project(root, package="repro"), cache)
        timings[name] = time.perf_counter() - t0
        results[name] = (findings, stats)

    def touch(rel):
        with open(os.path.join(root, rel), "a") as fh:
            fh.write("\n# bench: cache invalidation probe\n")

    contract = load_contract(
        os.path.join(os.path.dirname(__file__), "..", "leakage-contract.json")
    )
    variant_out = {}

    def phase_variants(name):
        findings, _ = results["cold"]

        def classify(f):
            if f.leak_class:
                return f.leak_class
            rel = os.path.relpath(f.path, root).replace(os.sep, "/")
            return infer_leak_class(
                f.rule, rel, f.function or "", normalize_line(f.source_line or "")
            )

        t0 = time.perf_counter()
        variant_out[name] = check_variants_static(
            findings, contract.variants, root, classify
        )
        timings[name] = time.perf_counter() - t0

    def run_all():
        phase("cold")
        phase("warm_noop")
        touch(_LEAF_EDIT)
        phase("warm_leaf_edit")
        touch(_CORE_EDIT)
        phase("warm_core_edit")
        phase_variants("variant_static")

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    cold_findings, cold_stats = results["cold"]
    _, noop_stats = results["warm_noop"]
    leaf_findings, leaf_stats = results["warm_leaf_edit"]
    core_findings, core_stats = results["warm_core_edit"]

    # cold run analyzes everything; the no-op rerun takes the fast path
    assert not cold_stats.fast_path and not cold_stats.reused
    assert noop_stats.fast_path
    assert results["warm_noop"][0] == cold_findings

    # a leaf edit re-analyzes only the modified file
    assert leaf_stats.reanalyzed == ["repro.analysis.key_rank"]
    assert len(leaf_stats.reused) == leaf_stats.total_modules - 1
    # a core edit cascades through its taint component but not beyond
    assert "repro.fpr.emu" in core_stats.reanalyzed
    assert core_stats.reused, "hubs and disjoint components must be reused"
    # trailing comments change no findings
    assert leaf_findings == cold_findings
    assert core_findings == cold_findings
    # the shipped variants satisfy their contract claims
    assert variant_out["variant_static"] == []

    print("\nsast phases: " + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items()))
