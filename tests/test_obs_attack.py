"""End-to-end telemetry: the attack engine through the observability layer.

Pins the acceptance properties of the instrumented pipeline: the
journal's event stream is parseable and complete, per-stage spans sum
to (approximately) the wall clock, attaching a journal never changes
the recovered key, and the parallel fan-out accounts exactly the same
metric totals as the serial run.
"""

import sys

import pytest

from repro.attack.key_recovery import CoefficientRecord, ProgressEvent
from repro.attack.pipeline import full_attack
from repro.falcon import FalconParams, keygen
from repro.leakage.device import DeviceModel
from repro.obs import RunJournal, console_subscriber, read_journal
from repro.obs import metrics as metrics_mod
from repro.obs import spans as spans_mod

# The known-fast successful scale (matches tests/test_attack_session.py):
# FALCON-8, 450 signings, low noise.
N = 8
N_TRACES = 450
SEED = 61


@pytest.fixture(autouse=True)
def fresh_obs_state():
    metrics_mod._reset_state()
    spans_mod._reset_state()
    yield
    metrics_mod._reset_state()
    spans_mod._reset_state()


@pytest.fixture(scope="module")
def victim():
    return keygen(FalconParams.get(N), seed=b"obs-attack-tests")


def run_attack(victim, **kw):
    sk, pk = victim
    return full_attack(
        sk, pk, n_traces=N_TRACES, device=DeviceModel(noise_sigma=2.0),
        seed=SEED, **kw,
    )


class TestAttackTelemetry:
    def test_journaled_run(self, victim, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            report = run_attack(victim, journal=journal)
        assert report.succeeded and report.key_correct

        t = report.telemetry
        assert t is not None
        # per-stage seconds sum to the wall clock within 10% (+ a small
        # absolute allowance for sub-second runs)
        stage_sum = sum(t.per_stage_s.values())
        assert stage_sum == pytest.approx(
            report.elapsed_seconds, rel=0.10, abs=0.25
        )
        assert {"coefficients", "rebuild", "forge"} <= set(t.per_stage_s)
        # rows correlated: every CPA sees <= requested * 2 segments rows
        assert 0 < t.rows_correlated
        assert report.n_traces_correlated <= N_TRACES * 2 * N

        # the journal round-trips: complete, ordered, and typed
        events = read_journal(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("progress") >= N  # one per coefficient + algebra
        assert kinds.count("span") >= N + 1  # per-target trees + the root
        assert "metrics" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        run_end = events[-1]
        assert run_end["succeeded"] is True

        # per-target span trees carry the paper's stage vocabulary
        target_spans = [e["span"] for e in events if e["event"] == "span"][:-1]
        for s in target_spans:
            child_names = {c["name"] for c in s.get("children", [])}
            assert {"capture", "mantissa", "exponent", "sign"} <= child_names

    def test_journal_does_not_change_result(self, victim, tmp_path):
        with RunJournal(str(tmp_path / "run.jsonl")) as journal:
            with_journal = run_attack(victim, journal=journal)
        without = run_attack(victim)
        assert with_journal.key_recovery.f == without.key_recovery.f
        assert [c.pattern for c in with_journal.key_recovery.coefficients] == [
            c.pattern for c in without.key_recovery.coefficients
        ]

    def test_parallel_totals_equal_serial(self, victim):
        serial = run_attack(victim, n_workers=1)
        parallel = run_attack(victim, n_workers=2)
        assert serial.key_recovery.f == parallel.key_recovery.f
        cs = serial.telemetry.metrics.counters
        cp = parallel.telemetry.metrics.counters
        assert cs == cp
        assert serial.telemetry.rows_correlated == parallel.telemetry.rows_correlated
        # both runs built one span tree per target under "coefficients"
        for rep in (serial, parallel):
            coeffs = rep.telemetry.root_span.find("coefficients")
            assert len(coeffs.children) == N

    def test_session_checkpoint_counters(self, victim, tmp_path):
        sess = str(tmp_path / "sess")
        first = run_attack(victim, session=sess)
        assert first.telemetry.checkpoints_written == N
        assert first.telemetry.checkpoints_restored == 0
        resumed = run_attack(victim, session=sess)
        assert resumed.telemetry.checkpoints_written == 0
        assert resumed.telemetry.checkpoints_restored == N
        assert resumed.key_recovery.f == first.key_recovery.f

    def test_telemetry_json_round_trips(self, victim):
        import json

        report = run_attack(victim)
        payload = json.loads(json.dumps(report.telemetry.to_jsonable()))
        assert payload["rows_correlated"] == report.telemetry.rows_correlated
        assert payload["span"]["name"] == "attack"
        assert set(payload["per_stage_s"]) == set(report.telemetry.per_stage_s)


class TestProgressPrinter:
    """Console progress: ProgressEvents rendered by ``console_subscriber``
    on a journal, the path ``repro-falcon attack --progress`` takes."""

    def _print(self, event):
        RunJournal(subscribers=(console_subscriber,)).emit_progress(event)

    def _event(self):
        return ProgressEvent(
            "coefficient", 1, 8,
            record=CoefficientRecord(
                target_index=4,
                elapsed_seconds=1.5,
                n_traces_requested=450,
                n_traces_kept=(440, 441),
                correct=True,
                exponent_margin=0.25,
            ),
        )

    def test_writes_to_stderr_not_stdout(self, capsys):
        self._print(self._event())
        out, err = capsys.readouterr()
        assert out == ""  # stdout stays machine-readable
        assert "coefficient    4" in err
        assert "traces=881" in err

    def test_message_only_events(self, capsys):
        self._print(ProgressEvent("rebuild", 0, 1, message="solving"))
        out, err = capsys.readouterr()
        assert out == ""
        assert "rebuild: solving" in err

    def test_silent_on_empty_event(self, capsys):
        self._print(ProgressEvent("coefficient", 1, 8))
        out, err = capsys.readouterr()
        assert out == "" and err == ""

    def test_printer_runs_without_tty(self, monkeypatch, capsys):
        monkeypatch.setattr(sys.stderr, "isatty", lambda: False, raising=False)
        self._print(self._event())
        assert "coefficient" in capsys.readouterr().err
