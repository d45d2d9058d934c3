"""SAST wall-time: cold analysis vs the incremental summary cache.

``make sast`` runs the verify gate with ``--cache .sast-cache.json``;
this bench quantifies what that buys. Four phases over a private copy
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
  top of them);
* **rank** — the exploitability triage made operational: the shipped
  contract is ranked, the top hypothesis-computable NTT/FFT entry is
  compiled into its ``contract:<id>`` traced surface, and the full
  capture/attack stack recovers the entry's live operand stream at
  n=8. The stage times ranking + end-to-end recovery together, so a
  regression in either the triage pass or the settrace capture path
  shows up in its printed wall time.

The bench asserts exactly which modules each edit re-analyzed, so the
incremental claim is checked, and prints every phase's wall time.
"""

import os
import shutil
import time

from repro.sast.cache import run_with_cache
from repro.sast.contract import infer_leak_class, load_contract
from repro.sast.exploit import rank_entries
from repro.sast.project import load_project
from repro.sast.variants import check_variants_static, normalize_line

_RANK_TRACES = 512
_RANK_NOISE = 2.0

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

    rank_out = {}

    def phase_rank(name):
        # heavy imports stay local: every other phase is numpy-free
        from repro.attack import AttackConfig, recover_full_key
        from repro.falcon import FalconParams, keygen
        from repro.leakage import CaptureCampaign, DeviceModel

        contract_path = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "leakage-contract.json")
        )
        os.environ["REPRO_CONTRACT"] = contract_path
        t0 = time.perf_counter()
        ranked = rank_entries(contract)
        entry = next(
            e for e in ranked
            if e.path in ("math/ntt.py", "math/fft.py")
            and e.exploitability.hypothesis_computable
        )
        sk, pk = keygen(FalconParams.get(8), seed=b"bench-rank")
        campaign = CaptureCampaign(
            sk=sk,
            device=DeviceModel(noise_sigma=_RANK_NOISE),
            n_traces=_RANK_TRACES,
            seed=5,
            target=f"contract:{entry.exploitability.entry_id}",
        )
        result = recover_full_key(campaign, pk, config=AttackConfig())
        timings[name] = time.perf_counter() - t0
        rank_out["ranked"] = ranked
        rank_out["result"] = result

    def run_all():
        phase("cold")
        phase("warm_noop")
        touch(_LEAF_EDIT)
        phase("warm_leaf_edit")
        touch(_CORE_EDIT)
        phase("warm_core_edit")
        phase_variants("variant_static")
        phase_rank("rank")

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

    # the triage ranking is total over CONFIRMED entries and the top
    # NTT/FFT entry's traced surface recovers its operand stream exactly
    ranked = rank_out["ranked"]
    result = rank_out["result"]
    assert all(e.exploitability is not None for e in ranked)
    assert result.records and all(r.correct for r in result.records)
    assert len(result.recovered_values) == len(result.records)

    print("\nsast phases: " + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items()))
