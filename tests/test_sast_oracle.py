"""Declassify liveness in the dynamic oracle (CT005's evidence).

The oracle watches one line per function-scoped declassify and calls the
annotation LIVE when that line runs. A docstring never emits a line
event, so the watched line must be the first statement after it.
"""

from __future__ import annotations

import importlib.util
import os

from repro.sast import oracle

from tests.sast_util import line_of, load_fixture

SOURCE = '''
def documented(x):  # sast: declassify(reason=test fixture)
    """A documented function: its first line is a docstring."""
    y = x + 1
    return y
'''


def _sites(tmp_path):
    project = load_fixture(tmp_path, {"mod.py": SOURCE})
    sites = oracle.declassify_watch_sites(project)
    assert len(sites) == 1
    return project, sites


def test_watch_line_skips_the_docstring(tmp_path):
    _, sites = _sites(tmp_path)
    (spec,) = sites.values()
    assert spec["scope"] == "function"
    assert spec["watch_line"] == line_of(SOURCE, "y = x + 1")


def test_documented_declassified_function_that_runs_is_live(tmp_path):
    project, sites = _sites(tmp_path)
    (key, spec), = sites.items()
    path = os.path.realpath(os.path.join(project.root, spec["rel"]))
    line = int(spec["watch_line"])
    recorder = oracle._Recorder({path: {line: f"{spec['rel']}:{line}"}})
    module_spec = importlib.util.spec_from_file_location("oracle_fixture_mod", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    trace = (
        oracle._trace_monitoring if oracle._backend_name() == "monitoring"
        else oracle._trace_settrace
    )
    recorder.begin_seed("alpha")
    trace(recorder, lambda: module.documented(1))
    report = oracle._build_report({"sites": recorder.finish()}, [], sites, ["alpha"], 8)
    assert report.declassify[key].status == oracle.LIVE
    assert report.declassify[key].hits == 1
