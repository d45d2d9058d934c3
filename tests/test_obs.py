"""Tests for the observability layer: metrics, spans, and the journal.

The load-bearing invariant is parallel/serial equivalence: a campaign
fanned out over a ProcessPoolExecutor must account exactly the same
totals as the serial run, because each worker accumulates into its own
scoped registry and the parent performs the single merge.
"""

import io
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.obs import (
    MetricsSnapshot,
    RunJournal,
    Span,
    attach,
    collect_spans,
    console_subscriber,
    current_registry,
    detached,
    read_journal,
    scoped_registry,
    span,
)
from repro.obs import metrics as metrics_mod
from repro.obs import spans as spans_mod


@pytest.fixture(autouse=True)
def fresh_obs_state():
    metrics_mod._reset_state()
    spans_mod._reset_state()
    yield
    metrics_mod._reset_state()
    spans_mod._reset_state()


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_counters(self):
        with scoped_registry() as reg:
            metrics_mod.inc("a", 2)
            metrics_mod.inc("a")
            metrics_mod.inc("b", 0.5)
        snap = reg.snapshot()
        assert snap.counters == {"a": 3, "b": 0.5}
        assert reg.counter("a") == 3 and reg.counter("missing") == 0

    def test_scoped_writes_do_not_leak_to_outer(self):
        outer = current_registry()
        with scoped_registry():
            metrics_mod.inc("scoped.only")
        assert outer.counter("scoped.only") == 0

    def test_snapshot_merge_and_json_round_trip(self):
        a = MetricsSnapshot(counters={"c": 1})
        b = MetricsSnapshot(counters={"c": 2, "d": 5})
        merged = a.merge(b)
        assert merged.counters == {"c": 3, "d": 5}
        back = MetricsSnapshot.from_jsonable(
            json.loads(json.dumps(merged.to_jsonable()))
        )
        assert back.counters == merged.counters

    def test_older_metrics_payload_loads(self):
        """Older journals carry ``gauges``/``histograms`` keys; they load as counters."""
        payload = {
            "counters": {"cpa.rows_correlated": 900, "cpa.calls": 4},
            "gauges": {"g": 7.5},
            "histograms": {
                "stage_seconds.prune": {"count": 2, "total": 0.5, "min": 0.2, "max": 0.3},
                "stage_seconds.empty": {"count": 0, "total": 0.0, "min": None, "max": None},
            },
        }
        snap = MetricsSnapshot.from_jsonable(json.loads(json.dumps(payload)))
        assert snap.counters == {"cpa.rows_correlated": 900, "cpa.calls": 4}
        assert snap.to_jsonable() == {"counters": snap.counters}


def _scoped_work(args):
    """Worker body for the cross-process equivalence test."""
    k, reps = args
    metrics_mod._reset_state()
    spans_mod._reset_state()
    with scoped_registry() as reg:
        for _ in range(reps):
            metrics_mod.inc("work.items")
            metrics_mod.inc("work.weight", k)
    return reg.snapshot()


class TestCrossProcessEquivalence:
    UNITS = [(1, 3), (2, 5), (3, 1), (4, 4)]

    def _serial(self) -> MetricsSnapshot:
        total = MetricsSnapshot()
        for unit in self.UNITS:
            total.merge(_scoped_work(unit))
        return total

    def test_pool_merge_equals_serial(self):
        serial = self._serial()
        parallel = MetricsSnapshot()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_scoped_work, self.UNITS):
                parallel.merge(snap)
        assert parallel.counters == serial.counters
        assert serial.counters == {"work.items": 13, "work.weight": 32}


# -- spans -----------------------------------------------------------------


class TestSpans:
    def test_nesting_reconstructs_stage_tree(self):
        with collect_spans() as roots:
            with span("attack"):
                with span("capture"):
                    pass
                with span("mantissa"):
                    with span("extend", limb="low"):
                        pass
                    with span("prune", limb="low"):
                        pass
                with span("sign"):
                    pass
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "attack"
        assert [c.name for c in root.children] == ["capture", "mantissa", "sign"]
        mant = root.find("mantissa")
        assert [c.name for c in mant.children] == ["extend", "prune"]
        assert root.find("extend").attrs == {"limb": "low"}
        stages = root.stage_seconds()
        assert set(stages) == {"capture", "mantissa", "sign"}
        assert all(v >= 0 for v in stages.values())
        # children's durations are contained in the parent's
        assert mant.duration_s <= root.duration_s

    def test_same_name_children_sum_in_stage_seconds(self):
        with collect_spans() as roots:
            with span("root"):
                with span("step"):
                    pass
                with span("step"):
                    pass
        assert len(roots[0].children) == 2
        assert set(roots[0].stage_seconds()) == {"step"}

    def test_detached_isolates_and_attach_grafts(self):
        with collect_spans() as roots:
            with span("outer"):
                with detached() as worker_roots:
                    with span("coefficient", target=3):
                        with span("capture"):
                            pass
                # nothing auto-nested under "outer" while detached
                assert len(worker_roots) == 1
                assert worker_roots[0].name == "coefficient"
                for r in worker_roots:
                    attach(r)
        root = roots[0]
        assert [c.name for c in root.children] == ["coefficient"]
        assert root.find("capture") is not None

    def test_span_json_round_trip(self):
        with collect_spans() as roots:
            with span("a", n=8):
                with span("b"):
                    pass
        back = Span.from_jsonable(json.loads(json.dumps(roots[0].to_jsonable())))
        assert back.name == "a"
        assert back.attrs == {"n": 8}
        assert back.children[0].name == "b"
        assert back.duration_s == roots[0].duration_s


# -- journal ---------------------------------------------------------------


class TestJournal:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.emit("run_start", n=8, n_traces=np.int64(450))
            journal.emit("custom", payload={"x": np.float64(1.5)})
            with collect_spans() as roots:
                with span("attack"):
                    pass
            journal.emit_span(roots[0])
            snap = MetricsSnapshot(counters={"c": 2.0})
            journal.emit_metrics(snap)
        events = read_journal(path)
        assert [e["event"] for e in events] == ["run_start", "custom", "span", "metrics"]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert all("ts" in e for e in events)
        assert events[0]["n_traces"] == 450          # numpy scalars flatten
        assert events[2]["span"]["name"] == "attack"
        assert MetricsSnapshot.from_jsonable(events[3]["metrics"]).counters == {"c": 2.0}

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.emit("one")
            journal.emit("two")
        with open(path, "a") as fh:
            fh.write('{"ts": 1, "seq": 2, "eve')  # crash mid-write
        events = read_journal(path)
        assert [e["event"] for e in events] == ["one", "two"]

    def test_append_after_torn_line_keeps_new_run(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.emit("run_start", run=1)
        with open(path, "a") as fh:
            fh.write('{"ts": 1, "seq": 1, "eve')  # first run killed mid-write
        with RunJournal(path) as journal:
            journal.emit("run_start", run=2)
            journal.emit("run_end", run=2)
        events = read_journal(path)
        assert [(e["event"], e["run"]) for e in events] == [
            ("run_start", 1), ("run_start", 2), ("run_end", 2),
        ]

    def test_undecodable_line_mid_run_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"seq": 0, "event": "one"}\n'
            '{"seq": 1, "ev\n'
            '{"seq": 2, "event": "three"}\n'
        )
        with pytest.raises(json.JSONDecodeError):
            read_journal(str(path))

    def test_pure_hub_without_path(self):
        seen = []
        journal = RunJournal(None, subscribers=(seen.append,))
        journal.emit("progress", stage="coefficient", completed=1, total=8)
        assert seen[0]["event"] == "progress"
        assert seen[0]["completed"] == 1

    def test_console_subscriber_renders_progress_only(self):
        stream = io.StringIO()
        console_subscriber({"event": "metrics"}, stream=stream)
        assert stream.getvalue() == ""
        console_subscriber(
            {
                "event": "progress",
                "stage": "coefficient",
                "completed": 2,
                "total": 8,
                "record": {
                    "target_index": 5,
                    "elapsed_seconds": 1.25,
                    "n_traces_used": 900,
                    "correct": True,
                    "exponent_margin": 0.5,
                },
            },
            stream=stream,
        )
        line = stream.getvalue()
        assert "coefficient    5" in line
        assert "ok" in line and "traces=900" in line
