"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.attack import key_recovery  # noqa: E402
from repro.attack.config import AttackConfig  # noqa: E402
from repro.attack.session import AttackSession  # noqa: E402
from repro.leakage.device import DeviceModel  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_of_nested_calls_account_for_the_wall_clock():
    clock = FakeClock()
    tracer = layers.Tracer(layers=(), clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.tick(1.0))

    def inner_body():
        clock.tick(2.0)
        leaf()
        leaf()
        clock.tick(0.5)

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        clock.tick(3.0)
        inner()
        leaf()

    outer = tracer.wrap("outer", outer_body)

    start = clock()
    clock.tick(0.25)          # unattributed: outside every wrapped call
    outer()
    clock.tick(0.75)
    wall = clock() - start

    assert tracer.self_s == {"leaf": 3.0, "inner": 2.5, "outer": 3.0}
    assert tracer.calls == {"leaf": 3, "inner": 1, "outer": 1}
    assert tracer.total_s["outer"] == 3.0 + 4.5 + 1.0
    unattributed = wall - tracer.attributed_s()
    assert unattributed == 1.0
    assert tracer.attributed_s() + unattributed == wall
    assert tracer.overhead_s == 0.0


def test_wrapper_bookkeeping_is_counted_as_overhead():
    clock = FakeClock()

    def slow_gauge(result, args, kwargs):
        clock.tick(0.5)
        return {"g": 1.0}

    tracer = layers.Tracer(layers=(), clock=clock)
    tracer.wrap("x", lambda: clock.tick(2.0), gauge=slow_gauge)()
    assert tracer.self_s["x"] == 2.0
    assert tracer.overhead_s == 0.5
    assert tracer.gauges == {"g": 1.0}


def test_reentrant_layer_counts_one_call_and_its_work_once():
    clock = FakeClock()
    tracer = layers.Tracer(layers=(), clock=clock)

    def body(depth):
        clock.tick(1.0)
        if depth:
            rec(depth - 1)
        return np.zeros((2, 3), dtype=np.int8)

    rec = tracer.wrap("hyp", body, work=layers._matrix_work)
    rec(2)
    assert tracer.self_s["hyp"] == 3.0
    assert tracer.calls["hyp"] == 1
    assert tracer.work == {"hyp.cells": 6.0, "hyp.bytes": 6.0}


def test_tracer_patches_every_binding_site_and_restores_them():
    import repro.attack.hypotheses as hypotheses
    import repro.attack.sign_exp as sign_exp

    keygen_mod = importlib.import_module("repro.falcon.keygen")

    original_sign = hypotheses.hyp_sign
    original_solve = keygen_mod.ntru_solve
    wanted = tuple(
        layer for layer in layers.LAYERS
        if layer.name in ("attack.hypotheses", "attack.key_recovery.ntru_solve")
    )
    with layers.Tracer(layers=wanted) as tracer:
        assert sign_exp.hyp_sign is not original_sign
        assert hypotheses.hyp_sign is sign_exp.hyp_sign
        # NTRUSolve is wrapped for the attack's rebuild only, not for keygen.
        assert key_recovery.ntru_solve is not original_solve
        assert keygen_mod.ntru_solve is original_solve
        sign_exp.hyp_sign(np.array([0, 1 << 63], dtype=np.uint64))
    assert tracer.calls["attack.hypotheses"] == 1
    assert sign_exp.hyp_sign is original_sign
    assert key_recovery.ntru_solve is original_solve


def test_every_layer_target_resolves():
    with layers.Tracer():
        pass


def _small_store(tmp_path, targets):
    wl = workloads.N8Key(seed=3, workdir=str(tmp_path), n_traces=200)
    wl.setup()
    store = wl.campaign.materialize(str(tmp_path / "store"), targets=targets)
    return wl, store


def test_sample_view_pickles_as_path_and_binds_a_session(tmp_path):
    wl, store = _small_store(tmp_path, targets=[2, 5])
    view = workloads.SampleView(store, [5, 2])
    blob = pickle.dumps(view)
    assert len(blob) < 1024          # the path and the sample, no traces
    clone = pickle.loads(blob)
    assert clone.n_targets == 2 and clone.n_traces == 200
    ts = clone.capture(0)
    assert ts.target_index == 5
    assert ts.true_secret == int(workloads.secret_patterns(wl.sk)[5])
    session = AttackSession(tmp_path / "session").bind(clone, AttackConfig())
    manifest = json.loads((tmp_path / "session" / "session.json").read_text())
    assert manifest["n_targets"] == 2
    assert manifest["seed"] == wl.campaign.seed
    # Binding again with an equal view is the resume path: accepted.
    session.bind(view, AttackConfig())


def test_one_seed_gives_the_same_key_corpus_and_sample(tmp_path):
    def inputs(seed):
        wl = workloads.N8Key(seed=seed, workdir=str(tmp_path), n_traces=64)
        wl.setup()
        truth = workloads.secret_patterns(wl.sk)
        return list(wl.sk.f), wl.campaign.c_fft.tobytes(), workloads.choose_sample(truth, 4, seed)

    first = inputs(11)
    assert inputs(11) == first
    other = inputs(12)
    assert other[0] != first[0] and other[1] != first[1]


def test_starved_budget_reports_failure_without_crashing(tmp_path):
    # 150 traces per coefficient is the CLI's documented failure path.
    wl = workloads.N8Key(seed=1, workdir=str(tmp_path), n_traces=150)
    wl.setup()
    batch = wl.run()
    assert batch.layer["attack.key_ok"] == 0
    # 8 coefficients plus the key, which weighs as much as all of them.
    assert batch.attempted == 16 and batch.failed > 8    # ok_frac < 1/2
    # The failure is reported (KeyRecoveryError), not delivered as a key.
    assert batch.correct is True


def _ok_frac_bound() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ok_frac")


def test_a_lost_key_alone_breaks_the_ok_frac_bound(tmp_path, monkeypatch):
    # A quiet device recovers every coefficient from few traces; the
    # rebuild is then made to fail, so only the key is lost.
    wl = workloads.N8Key(seed=1, workdir=str(tmp_path), n_traces=300)
    wl.setup()
    wl.campaign = dataclasses.replace(wl.campaign, device=DeviceModel(noise_sigma=0.5))

    def failing_rebuild(recs, records, pk, notify):
        raise key_recovery.KeyRecoveryError("rebuild refused", recs, records)

    monkeypatch.setattr(key_recovery, "rebuild_signing_key", failing_rebuild)
    batch = wl.run()
    assert batch.layer["attack.exact.mantissa"] == 8    # every coefficient right
    assert batch.layer["attack.key_ok"] == 0
    ok_frac = 1.0 - batch.failed / batch.attempted
    assert 1.0 - ok_frac > _ok_frac_bound()


def test_thread_budget_refuses_more_workers_than_cores():
    nproc = len(os.sched_getaffinity(0))
    env = run.thread_budget(1)
    assert env["nproc"] == nproc and env["workers"] == 1
    with pytest.raises(run.BudgetError):
        run.thread_budget(nproc + 1)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_package_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n8-key", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
