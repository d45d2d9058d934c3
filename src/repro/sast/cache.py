"""Incremental summary cache for ``repro.sast`` (opt-in via ``--cache``).

The taint pass is interprocedural, so per-file reuse has to respect the
call graph: a finding in module M depends on M's own source *and* on
every module M is connected to through imports (callees feed summaries
upward, callers feed argument taint downward). The cache therefore
works at two granularities:

* **full-tree fast path** — when every file's content hash matches the
  cached run (and the analyzer itself is unchanged), the cached
  findings are returned without running any pass;
* **component re-analysis** — when some files changed, only the
  import-graph components containing a changed (or added/removed)
  module are re-analyzed, as a restricted sub-project; findings for
  untouched components are replayed from the cache.

Taint can launder through any function in either direction (callees
feed summaries upward, callers feed argument taint downward, and one
caller's taint can reach another caller through a shared helper's
return), so the reuse unit is the *undirected* closure over import
edges. Pure re-export hubs — modules whose body is nothing but
imports, a docstring, and ``__all__`` — are the exception: they define
no functions and execute no code, so taint cannot launder through
them. Edges through a hub are resolved to the defining module instead,
and the hub itself only *invalidates* its importers directionally
(editing a hub redirects name resolution, so its dependents re-run;
editing a leaf never re-runs the hub). Without this, every package
``__init__`` glues the whole tree into one component and the cache
degenerates to all-or-nothing.

The analyzer digest covers the source of ``repro.sast`` itself, so
editing any pass invalidates the cache instead of replaying stale
results. The cache file is plain JSON, written atomically, and safe to
delete at any time.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.sast.findings import Finding, sort_findings
from repro.sast.project import Project

__all__ = [
    "CacheStats",
    "analyzer_digest",
    "file_digests",
    "run_with_cache",
]

#: cache file layout version; a mismatch is a cold run, never an error
_FORMAT_VERSION = 2


@dataclass
class CacheStats:
    """What the cached run actually did (surfaced in the CLI summary)."""

    total_modules: int = 0
    reanalyzed: list[str] = field(default_factory=list)   # module qualnames
    reused: list[str] = field(default_factory=list)
    fast_path: bool = False

    def describe(self) -> str:
        if self.fast_path:
            return f"cache hot: all {self.total_modules} modules reused"
        if not self.reused:
            return f"cache cold: analyzed all {self.total_modules} modules"
        return (
            f"cache warm: re-analyzed {len(self.reanalyzed)}/"
            f"{self.total_modules} modules, reused {len(self.reused)}"
        )


def analyzer_digest() -> str:
    """Content hash of the ``repro.sast`` package itself."""
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode())
                h.update(b"\x00")
                h.update(fh.read())
                h.update(b"\x00")
    return h.hexdigest()


def file_digests(project: Project) -> dict[str, str]:
    """Module qualname -> sha256 of its source text."""
    return {
        qualname: hashlib.sha256(info.source.encode("utf-8")).hexdigest()
        for qualname, info in sorted(project.modules.items())
    }


# -- import graph ----------------------------------------------------------


def _module_of(qualified: str, modules: dict[str, Any]) -> str | None:
    """Longest project-module prefix of a qualified name (or None)."""
    parts = qualified.split(".")
    for i in range(len(parts), 0, -1):
        candidate = ".".join(parts[:i])
        if candidate in modules:
            return candidate
    return None


def _is_reexport_hub(info: Any) -> bool:
    """Module body is only imports, a docstring, and ``__all__``."""
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        return False
    return True


def _defining_module(
    target: str, modules: dict[str, Any], hubs: set[str], depth: int = 0
) -> str | None:
    """The module that actually defines ``target``, seen through hubs."""
    mod = _module_of(target, modules)
    if mod is None or mod not in hubs or mod == target or depth > 8:
        return mod
    rest = target[len(mod) + 1 :]
    head = rest.split(".")[0]
    reexport = modules[mod].bindings.get(head)
    if not reexport or reexport == target:
        return mod
    tail = rest[len(head):]
    return _defining_module(reexport + tail, modules, hubs, depth + 1)


def _dependency_graph(
    project: Project,
) -> tuple[dict[str, frozenset[str]], set[str], dict[str, set[str]]]:
    """``(component of each non-hub module, hubs, hub -> dependents)``.

    Components are undirected closures over taint-interaction edges
    (import edges resolved through re-export hubs to the defining
    module). ``hub -> dependents`` is the directed invalidation set: a
    hub edit re-runs every module that resolves names through it.
    """
    hubs = {q for q, info in project.modules.items() if _is_reexport_hub(info)}
    adjacency: dict[str, set[str]] = {q: set() for q in project.modules if q not in hubs}
    hub_dependents: dict[str, set[str]] = {h: set() for h in hubs}
    for qualname, info in project.modules.items():
        for target in info.bindings.values():
            direct = _module_of(target, project.modules)
            if direct is None or direct == qualname:
                continue
            if direct in hubs:
                hub_dependents[direct].add(qualname)
            if qualname in hubs:
                continue       # a hub executes nothing: no taint edges out
            defining = _defining_module(target, project.modules, hubs)
            if defining is None or defining == qualname or defining in hubs:
                continue
            adjacency[qualname].add(defining)
            adjacency[defining].add(qualname)
    components: dict[str, frozenset[str]] = {}
    seen: set[str] = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        component: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        frozen = frozenset(component)
        for member in component:
            components[member] = frozen
        seen |= component
    return components, hubs, hub_dependents


def _restrict(project: Project, keep: set[str]) -> Project:
    """A sub-project containing only the given modules (and their functions)."""
    sub = Project(project.root, project.package)
    sub.modules = {q: m for q, m in project.modules.items() if q in keep}
    sub.functions = {
        q: f for q, f in project.functions.items() if f.module in keep
    }
    sub.classes = {
        c: m for c, m in project.classes.items() if m in keep
    }
    return sub


# -- finding (de)serialization ---------------------------------------------


def _encode_finding(f: Finding, root: str) -> dict[str, Any]:
    return {
        "rule": f.rule,
        "path": os.path.relpath(f.path, root).replace(os.sep, "/"),
        "line": f.line,
        "col": f.col,
        "message": f.message,
        "taint_chain": list(f.taint_chain),
        "function": f.function,
        "source_line": f.source_line,
        "leak_class": f.leak_class,
    }


def _decode_finding(raw: dict[str, Any], root: str) -> Finding:
    return Finding(
        rule=str(raw["rule"]),
        path=os.path.join(root, str(raw["path"]).replace("/", os.sep)),
        line=int(raw["line"]),
        col=int(raw["col"]),
        message=str(raw["message"]),
        taint_chain=tuple(raw.get("taint_chain", ())),
        function=str(raw.get("function", "")),
        source_line=str(raw.get("source_line", "")),
        leak_class=str(raw.get("leak_class", "")),
    )


# -- the cached runner -----------------------------------------------------


def _load(path: str, analyzer: str) -> dict[str, Any] | None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != _FORMAT_VERSION:
        return None
    if data.get("analyzer") != analyzer:
        return None
    if not isinstance(data.get("files"), dict) or not isinstance(
        data.get("findings"), dict
    ):
        return None
    return data


def run_with_cache(
    project: Project, cache_path: str
) -> tuple[list[Finding], CacheStats]:
    """``collect_findings`` with content-hash reuse (see module docstring).

    The findings depend only on the source and the analyzer, so those
    two digests are the whole key: the leakage contract is checked
    against the findings afterwards and never enters it.
    """
    from repro.sast.cli import collect_findings
    from repro.utils.io import atomic_write_text

    analyzer = analyzer_digest()
    digests = file_digests(project)
    stats = CacheStats(total_modules=len(project.modules))
    cached = _load(cache_path, analyzer)

    def persist(findings_by_module: dict[str, list[dict[str, Any]]]) -> None:
        atomic_write_text(cache_path, json.dumps({
            "version": _FORMAT_VERSION,
            "analyzer": analyzer,
            "files": digests,
            "findings": findings_by_module,
        }, indent=1, sort_keys=True) + "\n")

    def group(findings: list[Finding]) -> dict[str, list[dict[str, Any]]]:
        rel_to_qual = {
            os.path.relpath(info.path, project.root).replace(os.sep, "/"): q
            for q, info in project.modules.items()
        }
        out: dict[str, list[dict[str, Any]]] = {q: [] for q in project.modules}
        for f in findings:
            rel = os.path.relpath(f.path, project.root).replace(os.sep, "/")
            qual = rel_to_qual.get(rel)
            if qual is not None:
                out[qual].append(_encode_finding(f, project.root))
        return out

    if cached is not None and cached["files"] == digests:
        stats.fast_path = True
        stats.reused = sorted(project.modules)
        findings = sort_findings([
            _decode_finding(raw, project.root)
            for per_module in cached["findings"].values()
            for raw in per_module
        ])
        return findings, stats

    if cached is None:
        findings = collect_findings(project)
        stats.reanalyzed = sorted(project.modules)
        persist(group(findings))
        return findings, stats

    components, hubs, hub_dependents = _dependency_graph(project)
    old_files: dict[str, str] = cached["files"]
    changed = {
        q for q in project.modules
        if old_files.get(q) != digests[q]
    }
    vanished = set(old_files) - set(project.modules)
    # a removed module invalidates the components it used to import into;
    # without its parse we cannot place it, so dirty everything it might
    # have touched — conservatively, any component sharing its package dir
    dirty = set(changed)
    for q in vanished:
        prefix = q.rsplit(".", 1)[0]
        dirty |= {m for m in project.modules if m.startswith(prefix)}
    # close the dirty set: a hub edit re-runs its dependents, and any
    # dirty non-hub module drags in its whole taint component
    dirty_components: set[str] = set()
    queue = sorted(dirty)
    while queue:
        q = queue.pop()
        if q in dirty_components:
            continue
        dirty_components.add(q)
        if q in hubs:
            queue.extend(hub_dependents[q] - dirty_components)
        else:
            queue.extend(components.get(q, frozenset({q})) - dirty_components)

    clean = set(project.modules) - dirty_components
    if not clean:
        findings = collect_findings(project)
        stats.reanalyzed = sorted(project.modules)
        persist(group(findings))
        return findings, stats

    sub = _restrict(project, dirty_components)
    fresh = collect_findings(sub)
    stats.reanalyzed = sorted(dirty_components)
    stats.reused = sorted(clean)

    findings = list(fresh)
    for qual in sorted(clean):
        for raw in cached["findings"].get(qual, []):
            findings.append(_decode_finding(raw, project.root))
    findings = sort_findings(findings)

    persist(group(findings))
    return findings, stats
