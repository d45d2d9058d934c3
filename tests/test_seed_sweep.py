"""The per-seed accuracy sweep script runs and reports each outcome."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"


def test_seed_ranges_expand():
    parse_seeds = runpy.run_path(str(SCRIPT))["parse_seeds"]
    assert parse_seeds(["11-13", "205"]) == [11, 12, 13, 205]


def test_starved_run_reports_the_lost_key(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "--traces", "150", "--seeds", "3"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == 0
    header, rule, row = capsys.readouterr().out.splitlines()
    assert header.startswith("| seed | sign | exponent | mantissa |")
    assert row.startswith("| 3 | ") and "lost: " in row


def test_success_does_not_drop_as_the_budget_grows():
    sweep_one = runpy.run_path(str(SCRIPT))["sweep_one"]
    small, large = (sweep_one(3, 8, n_traces, 1) for n_traces in (1000, 3000))
    assert all(b >= a for a, b in zip(small.exact, large.exact))
    assert large.key_ok and large.outcome == "key YES, forgery YES"
    assert large.markdown().startswith("| 3 | 8/8 | ")
