"""Incremental summary cache: fast path, component invalidation, safety.

The cache must never change *what* the analyzer reports — only whether
work is redone. Every test therefore compares cached findings against a
fresh uncached run of the same tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from tests.sast_util import write_package

from repro.sast.cache import analyzer_digest, file_digests, run_with_cache
from repro.sast.cli import collect_findings, main
from repro.sast.contract import build_contract, render_contract
from repro.sast.findings import EXIT_CLEAN, EXIT_FINDINGS
from repro.sast.project import load_project

_LEAKY_A = """\
def leak(sk):
    if sk.f[0] > 0:
        return 1
    return 0
"""

_CLEAN_B = """\
def double(values):
    return [v * 2 for v in values]
"""


def _project(tmp_path, files, name="pkg"):
    root = os.path.join(str(tmp_path), name)
    os.makedirs(root, exist_ok=True)
    write_package(root, files)
    return load_project(root, package=name)


def test_cold_then_hot_fast_path(tmp_path):
    project = _project(tmp_path, {"a.py": _LEAKY_A, "b.py": _CLEAN_B})
    cache = str(tmp_path / "cache.json")

    first, cold = run_with_cache(project, cache)
    assert not cold.fast_path and cold.reanalyzed == ["pkg.a", "pkg.b"]
    assert first == collect_findings(project)

    second, hot = run_with_cache(load_project(project.root, package="pkg"), cache)
    assert hot.fast_path and hot.reused == ["pkg.a", "pkg.b"]
    assert second == first


def test_only_changed_component_is_reanalyzed(tmp_path):
    """a.py and b.py don't import each other: editing b must not
    re-analyze a, and a's findings must survive from the cache."""
    project = _project(tmp_path, {"a.py": _LEAKY_A, "b.py": _CLEAN_B})
    cache = str(tmp_path / "cache.json")
    run_with_cache(project, cache)

    write_package(project.root, {"b.py": _CLEAN_B + "\n\nX = 1\n"})
    reloaded = load_project(project.root, package="pkg")
    findings, stats = run_with_cache(reloaded, cache)
    assert stats.reanalyzed == ["pkg.b"]
    assert stats.reused == ["pkg.a"]
    assert findings == collect_findings(reloaded)
    assert [f.rule for f in findings] == ["SF001"]


def test_import_neighbors_are_invalidated_together(tmp_path):
    """b imports a, so an edit to a dirties both (interprocedural taint
    may cross the edge in either direction)."""
    files = {
        "a.py": _LEAKY_A,
        "b.py": "from pkg.a import leak\n\n\ndef wrap(sk):\n    return leak(sk)\n",
    }
    project = _project(tmp_path, files)
    cache = str(tmp_path / "cache.json")
    run_with_cache(project, cache)

    write_package(project.root, {"a.py": _LEAKY_A + "\n\nY = 2\n"})
    reloaded = load_project(project.root, package="pkg")
    findings, stats = run_with_cache(reloaded, cache)
    assert stats.reanalyzed == ["pkg.a", "pkg.b"]
    assert stats.reused == []
    assert findings == collect_findings(reloaded)


def test_corrupt_cache_falls_back_to_full_run(tmp_path):
    project = _project(tmp_path, {"a.py": _LEAKY_A})
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    findings, stats = run_with_cache(project, str(cache))
    assert not stats.fast_path and stats.reanalyzed == ["pkg.a"]
    assert findings == collect_findings(project)
    # and the bad file was replaced with a valid one
    assert json.loads(cache.read_text())["analyzer"] == analyzer_digest()


def test_analyzer_change_invalidates(tmp_path):
    project = _project(tmp_path, {"a.py": _LEAKY_A})
    cache = tmp_path / "cache.json"
    run_with_cache(project, str(cache))
    doc = json.loads(cache.read_text())
    doc["analyzer"] = "0" * 64
    cache.write_text(json.dumps(doc))
    _, stats = run_with_cache(project, str(cache))
    assert not stats.fast_path and stats.reanalyzed == ["pkg.a"]


def test_contract_change_keeps_cache_hot(tmp_path, capsys):
    """Findings depend on the source and the analyzer only: rewriting the
    contract between two cached runs must not re-run the analysis."""
    project = _project(tmp_path, {"a.py": _LEAKY_A})
    cache = str(tmp_path / "cache.json")
    contract = build_contract(collect_findings(project), project.root)
    path = tmp_path / "contract.json"
    path.write_text(render_contract(contract))
    assert main(["verify", project.root, "--contract", str(path),
                 "--cache", cache]) == EXIT_CLEAN
    assert "cache cold" in capsys.readouterr().err

    contract.entries = [replace(e, reason="re-reviewed") for e in contract.entries]
    path.write_text(render_contract(contract))
    assert main(["verify", project.root, "--contract", str(path),
                 "--cache", cache]) == EXIT_CLEAN
    assert "cache hot" in capsys.readouterr().err
    findings, stats = run_with_cache(project, cache)
    assert stats.fast_path
    assert findings == collect_findings(project)


def test_file_digests_track_content(tmp_path):
    project = _project(tmp_path, {"a.py": _LEAKY_A})
    before = file_digests(project)
    write_package(project.root, {"a.py": _LEAKY_A + "# touched\n"})
    after = file_digests(load_project(project.root, package="pkg"))
    assert before.keys() == after.keys() == {"pkg.a"}
    assert before["pkg.a"] != after["pkg.a"]


def test_cli_cache_flag_round_trip(tmp_path, capsys):
    root = os.path.join(str(tmp_path), "pkg")
    os.makedirs(root)
    write_package(root, {"a.py": _LEAKY_A})
    cache = str(tmp_path / "cli-cache.json")
    assert main([root, "--cache", cache]) == EXIT_FINDINGS
    assert "cache cold" in capsys.readouterr().err
    assert main([root, "--cache", cache]) == EXIT_FINDINGS
    out = capsys.readouterr()
    assert "cache hot" in out.err
    assert "SF001" in out.out
