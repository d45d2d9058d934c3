"""Dynamic taint oracle: differential replay of the attack workloads.

The static passes in :mod:`repro.sast.taint` prove *may*-flow claims;
this module checks them against runtime evidence. A seeded workload
(keygen → sign → verify → secret-key codec round-trip → fpr op sweep
with key-derived operands) runs once per secret-key seed under line
tracing — ``sys.monitoring`` on 3.12+, ``sys.settrace`` on 3.11 — and
every watched source line accumulates a rolling digest of the scalar
locals it touches. Comparing digests *across keys* (messages and sign
randomness held fixed) classifies each static finding:

* ``CONFIRMED`` — the site executed and its operand stream differs
  between secret keys: the leak chain is live.
* ``UNREACHED`` — the site never executed under any seed; the static
  claim has no runtime witness (stale code, dead declassify, or a
  workload gap — all of which the contract gate must surface).
* ``REFUTED`` — the site executed under every seed with *identical*
  operand streams: the observed computation is secret-independent.

Declassify annotations get the same treatment: a ``# sast: declassify``
scope whose code never runs is reported so annotations cannot outlive
the code they excuse.

The workload runs in a subprocess with the analyzed tree first on
``sys.path``, so a fixture copy of ``repro`` (e.g. one with a planted
leak) is exercised instead of the installed package. The parent side
is stdlib-only; the workload itself needs numpy, so oracle runs are
gated out of the no-install CI lint job and live in ``make verify``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.sast.findings import Finding
from repro.sast.project import Project

__all__ = [
    "CONFIRMED",
    "UNREACHED",
    "REFUTED",
    "LIVE",
    "OracleError",
    "OracleReport",
    "SiteResult",
    "declassify_watch_sites",
    "finding_sites",
    "run_oracle",
]

CONFIRMED = "CONFIRMED"
UNREACHED = "UNREACHED"
REFUTED = "REFUTED"
LIVE = "LIVE"

#: default secret-key seeds; the workload derives everything else
#: (messages, sign randomness) deterministically and identically per seed
DEFAULT_SEEDS = ("alpha", "bravo", "charlie")
DEFAULT_N = 8


class OracleError(RuntimeError):
    """The oracle worker failed to produce a report."""


@dataclass(frozen=True)
class SiteResult:
    """Verdict for one watched source location."""

    site: str                    # "relative/path.py:line"
    status: str                  # CONFIRMED / UNREACHED / REFUTED / LIVE
    hits: int                    # total line executions across seeds
    seeds_hit: int               # seeds under which the site executed


@dataclass
class OracleReport:
    """Everything one oracle run learned."""

    backend: str                 # "monitoring" or "settrace"
    python: str
    n: int
    seeds: tuple[str, ...]
    sites: dict[str, SiteResult] = field(default_factory=dict)
    declassify: dict[str, SiteResult] = field(default_factory=dict)

    def verdict(self, site: str) -> str:
        result = self.sites.get(site)
        return result.status if result is not None else UNREACHED


# -- watch-list construction (parent side) ---------------------------------


def _relpath(project: Project, path: str) -> str:
    return os.path.relpath(path, project.root).replace(os.sep, "/")


def finding_sites(project: Project, findings: Iterable[Finding]) -> list[str]:
    """Deduplicated ``rel/path.py:line`` keys for a set of findings."""
    sites = set()
    for f in findings:
        sites.add(f"{os.path.relpath(f.path, project.root).replace(os.sep, '/')}:{f.line}")
    return sorted(sites)


def declassify_watch_sites(project: Project) -> dict[str, dict[str, Any]]:
    """Watchable locations for every declassify annotation.

    A function-scoped declassify (annotation on the ``def`` line) is
    considered live when the function body's first statement executes
    (the one after the docstring: a docstring never emits a line event);
    an inline declassify is live when its own line executes.
    """
    out: dict[str, dict[str, Any]] = {}
    for mod in project.modules.values():
        rel = _relpath(project, mod.path)
        def_lines: set[int] = set()
        for info in mod.functions:
            if info.declassify is not None and info.node.body:
                body = info.node.body
                if len(body) > 1 and ast.get_docstring(info.node, clean=False) is not None:
                    body = body[1:]
                def_lines.add(info.node.lineno)
                out[f"{rel}:{info.node.lineno}"] = {
                    "rel": rel,
                    "watch_line": body[0].lineno,
                    "scope": "function",
                    "name": info.qualname,
                }
        for lineno, ann in mod.annotations.items():
            if ann.kind == "declassify" and lineno not in def_lines:
                out[f"{rel}:{lineno}"] = {
                    "rel": rel,
                    "watch_line": lineno,
                    "scope": "inline",
                    "name": "",
                }
    return out


# -- subprocess orchestration (parent side) --------------------------------


_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.sast.oracle import _worker_main; "
    "_worker_main(sys.argv[2])"
)


def run_oracle(
    root: str,
    package: str = "repro",
    sites: Sequence[str] = (),
    declassify: Mapping[str, Mapping[str, Any]] | None = None,
    seeds: Sequence[str] = DEFAULT_SEEDS,
    n: int = DEFAULT_N,
    timeout: float = 600.0,
    workload: Mapping[str, str] | None = None,
) -> OracleReport:
    """Run the seeded workload under tracing and classify every site.

    ``root`` is the analyzed package directory (e.g. ``src/repro`` or a
    fixture copy); its *parent* goes first on the worker's ``sys.path``
    so the analyzed tree — not the ambient install — executes.

    ``workload`` optionally dispatches to a different traced driver —
    ``{"module": "repro.countermeasures.workload", "func":
    "run_masked_workload"}`` — with the same ``(seed, n)`` signature as
    the default :func:`_run_workload`. Used by ``verify --variant`` to
    replay one countermeasure per key seed.
    """
    if package != "repro":
        raise OracleError(
            f"oracle workload drives the 'repro' package, not {package!r}"
        )
    root = os.path.abspath(root)
    job = {
        "root": root,
        "n": int(n),
        "seeds": list(seeds),
        "sites": [
            [site.rsplit(":", 1)[0], int(site.rsplit(":", 1)[1])]
            for site in sites
        ],
        "declassify": [
            [key, spec["rel"], int(spec["watch_line"])]
            for key, spec in sorted((declassify or {}).items())
        ],
    }
    if workload is not None:
        job["workload"] = {
            "module": str(workload["module"]),
            "func": str(workload["func"]),
        }
    from repro.utils.io import atomic_write_text

    with tempfile.TemporaryDirectory(prefix="sast-oracle-") as tmp:
        job_path = os.path.join(tmp, "job.json")
        atomic_write_text(job_path, json.dumps(job))
        proc = subprocess.run(
            [sys.executable, "-c", _BOOTSTRAP, os.path.dirname(root), job_path],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
        raise OracleError(
            "oracle worker failed (exit %d):\n%s" % (proc.returncode, "\n".join(tail))
        )
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise OracleError(f"oracle worker produced unparseable output: {exc}") from exc
    return _build_report(raw, sites, declassify or {}, list(seeds), n)


def _build_report(
    raw: Mapping[str, Any],
    sites: Sequence[str],
    declassify: Mapping[str, Mapping[str, Any]],
    seeds: list[str],
    n: int,
) -> OracleReport:
    report = OracleReport(
        backend=str(raw.get("backend", "?")),
        python=str(raw.get("python", "?")),
        n=n,
        seeds=tuple(seeds),
    )
    observed: Mapping[str, Any] = raw.get("sites", {})
    for site in sites:
        report.sites[site] = _classify(site, observed.get(site), seeds)
    for key, spec in declassify.items():
        watch_key = f"{spec['rel']}:{spec['watch_line']}"
        result = _classify(watch_key, observed.get(watch_key), seeds)
        status = LIVE if result.hits > 0 else UNREACHED
        report.declassify[key] = SiteResult(
            site=key, status=status, hits=result.hits, seeds_hit=result.seeds_hit
        )
    return report


def _classify(site: str, per_seed: Mapping[str, Any] | None, seeds: list[str]) -> SiteResult:
    if not per_seed:
        return SiteResult(site=site, status=UNREACHED, hits=0, seeds_hit=0)
    hits = sum(int(rec.get("hits", 0)) for rec in per_seed.values())
    seeds_hit = sum(1 for rec in per_seed.values() if rec.get("hits", 0))
    if hits == 0:
        return SiteResult(site=site, status=UNREACHED, hits=0, seeds_hit=0)
    digests = {str(per_seed.get(seed, {}).get("digest", "")) for seed in seeds}
    status = REFUTED if len(digests) == 1 and seeds_hit == len(seeds) else CONFIRMED
    return SiteResult(site=site, status=status, hits=hits, seeds_hit=seeds_hit)


# -- the traced workload (worker side) -------------------------------------


def _run_workload(seed: str, n: int) -> None:  # sast: declassify(reason=oracle driver: replays production flows under tracing; its call sites are harness plumbing, not product data flow)
    """One full pass over the attack surface for a single key seed.

    Everything except the secret key derivation is held fixed across
    seeds so digest differences isolate key dependence.
    """
    from repro.falcon import codec
    from repro.falcon.keygen import keygen
    from repro.falcon.ntru_solve import reduce_fg
    from repro.falcon.params import FalconParams
    from repro.falcon.samplerz import samplerz_trace
    from repro.falcon.sign import sign
    from repro.falcon.verify import verify
    from repro.fpr import emu
    from repro.fpr import trace as fpr_trace
    from repro.math import ntt
    from repro.utils.rng import ChaCha20Prng

    from repro.countermeasures.workload import run_ct_workload, run_masked_workload

    params = FalconParams.get(n)
    sk, pk = keygen(params, seed=f"oracle-key-{seed}")
    message = b"falcon-down oracle workload"
    sig = sign(sk, message, seed="oracle-sign")
    if not verify(pk, message, sig):
        raise RuntimeError("oracle workload: signature failed to verify")
    if codec.decode_secret_key(codec.encode_secret_key(sk)).f != sk.f:
        raise RuntimeError("oracle workload: secret-key codec round-trip drifted")

    # the samplerz surface's instrumented sampler, centred on a key value
    samplerz_trace(sk.f[0] / 2.0, params.sigmin, params.sigmin, ChaCha20Prng("oracle-samplerz"))

    # degree-1 NTT base cases and the Babai underflow branch (extra < 0,
    # hit when (F, G) is already shorter than the scaled-up (f, g))
    ntt.intt(ntt.ntt([sk.f[0] % params.q], params.q), params.q)
    wide = [c * (1 << 60) + 1 for c in sk.f]
    reduce_fg(wide, [c * (1 << 60) for c in sk.g], list(sk.f), list(sk.g))

    # fpr sweep over key-derived doubles: covers the emulator paths the
    # numpy-based signing flow never enters
    floats: list[float] = []
    for arr in sk.b_hat:
        for value in arr[:4]:
            floats.extend((float(value.real), float(value.imag)))
    floats = [x for x in floats if x == x][:10]
    bits = [emu.fpr_from_float(x) for x in floats]
    bits += [emu.fpr_of(c) for c in sk.f[:4]]
    bits = [b for b in bits if not emu.is_zero(b)] or [emu.fpr_of(1)]
    pos_zero, neg_zero = emu.fpr_of(0), emu.fpr_neg(emu.fpr_of(0))
    # key-dependent zero-path traffic: one both-zero add per zero coeff
    for _ in range(1 + sum(1 for c in sk.f if c == 0)):
        emu.fpr_add(pos_zero, neg_zero)
        emu.fpr_add(pos_zero, pos_zero)
        emu.fpr_add(pos_zero, bits[0])
        emu.fpr_add(bits[0], neg_zero)
    for i, a in enumerate(bits):
        b = bits[(i + 1) % len(bits)]
        emu.fpr_add(a, b)
        emu.fpr_sub(a, b)
        emu.fpr_add(a, emu.fpr_neg(a))          # exact cancellation path
        emu.fpr_mul(a, b)
        emu.fpr_div(a, b)
        emu.fpr_sqrt(emu.fpr_abs(a))
        try:
            emu.fpr_sqrt(a)                     # negative inputs raise
        except ValueError:
            pass
        emu.fpr_rint(a)
        emu.fpr_floor(a)
        emu.fpr_trunc(a)
        emu.fpr_half(a)
        emu.fpr_double(a)
        s, be, mant = emu.decompose(a)
        emu.compose(s, be, mant)
        fpr_trace.fpr_add_trace(a, b)
        fpr_trace.fpr_mul_trace(a, b)
        # magnitude extremes: integer-exact and deep-subnormal floor/rint
        x = emu.fpr_to_float(a)
        emu.fpr_floor(emu.fpr_from_float(x * 2.0**60))
        emu.fpr_rint(emu.fpr_from_float(x * 2.0**60))
        emu.fpr_floor(emu.fpr_from_float(x * 2.0**-120))
        emu.fpr_trunc(emu.fpr_from_float(x * 2.0**-120))

    # countermeasure variants over the same key: keeps their residual
    # contract entries (e.g. the masked zero branch) reachable here too
    run_masked_workload(seed, n)
    run_ct_workload(seed, n)


# -- tracing backends (worker side) ----------------------------------------


def _encode_value(value: Any, depth: int = 0) -> str:
    """Stable, address-free text for digesting a sampled local."""
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, bytes)):
        return repr(value[:48])
    if isinstance(value, (list, tuple)) and depth < 2:
        head = ",".join(_encode_value(v, depth + 1) for v in value[:6])
        return f"[{head}]#{len(value)}"
    text = repr(value)
    if " at 0x" in text or "object at" in text:
        return f"<{type(value).__name__}>"
    return text[:160]


class _Recorder:
    """Per-site hit counts and value-stream digests, one set per seed.

    Each hit appends a record separator and the encoded locals named on
    the line to the site's rolling sha256; equal digests across seeds
    mean an identical operand stream.
    """

    def __init__(self, watch: Mapping[str, Mapping[int, str]]) -> None:
        # realpath file -> line -> site key
        self.watch = {k: dict(v) for k, v in watch.items()}
        self.names: dict[str, dict[int, tuple[str, ...]]] = {}
        self.results: dict[str, dict[str, dict[str, Any]]] = {}
        self._seed = ""
        self._hashes: dict[str, "hashlib._Hash"] = {}
        self._hits: dict[str, int] = {}
        for path in self.watch:
            self.names[path] = _names_by_line(path, set(self.watch[path]))

    def begin_seed(self, seed: str) -> None:
        self._flush()
        self._seed = seed
        self._hashes = {}
        self._hits = {}

    def _flush(self) -> None:
        if not self._seed:
            return
        for site, count in self._hits.items():
            self.results.setdefault(site, {})[self._seed] = {
                "hits": count,
                "digest": self._hashes[site].hexdigest(),
            }
        self._seed = ""

    def finish(self) -> dict[str, Any]:
        self._flush()
        return self.results

    def visit(self, filename: str, lineno: int, frame: Any) -> None:
        lines = self.watch.get(filename)
        if lines is None:
            return
        site = lines.get(lineno)
        if site is None:
            return
        digest = self._hashes.get(site)
        if digest is None:
            digest = self._hashes[site] = hashlib.sha256()
            self._hits[site] = 0
        self._hits[site] += 1
        digest.update(b"\x1e")
        local_vars = frame.f_locals
        buffer = bytearray()
        for name in self.names.get(filename, {}).get(lineno, ()):
            if name in local_vars:
                buffer += _encode_value(local_vars[name]).encode("utf-8", "replace")
                buffer += b"\x1f"
        digest.update(buffer)


def _names_by_line(path: str, lines: set[int]) -> dict[int, tuple[str, ...]]:
    """Identifiers appearing on each watched line (sampled from locals)."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        return {}
    by_line: dict[int, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.lineno in lines:
            by_line.setdefault(node.lineno, set()).add(node.id)
    return {line: tuple(sorted(names)) for line, names in by_line.items()}


def _trace_settrace(recorder: _Recorder, workload: Any) -> None:
    watched_files = set(recorder.watch)

    def local_trace(frame: Any, event: str, arg: Any) -> Any:
        if event == "line":
            recorder.visit(frame.f_code.co_filename, frame.f_lineno, frame)
        return local_trace

    def global_trace(frame: Any, event: str, arg: Any) -> Any:
        if event == "call" and frame.f_code.co_filename in watched_files:
            return local_trace
        return None

    sys.settrace(global_trace)
    try:
        workload()
    finally:
        sys.settrace(None)


def _trace_monitoring(recorder: _Recorder, workload: Any) -> None:
    mon = sys.monitoring
    tool_id = mon.PROFILER_ID
    mon.use_tool_id(tool_id, "repro-sast-oracle")
    disable = mon.DISABLE

    def on_line(code: Any, lineno: int) -> Any:
        lines = recorder.watch.get(code.co_filename)
        if lines is None or lineno not in lines:
            return disable
        recorder.visit(code.co_filename, lineno, sys._getframe(1))
        return None

    mon.register_callback(tool_id, mon.events.LINE, on_line)
    mon.set_events(tool_id, mon.events.LINE)
    try:
        workload()
    finally:
        mon.set_events(tool_id, 0)
        mon.register_callback(tool_id, mon.events.LINE, None)
        mon.free_tool_id(tool_id)


def _backend_name() -> str:
    return "monitoring" if hasattr(sys, "monitoring") else "settrace"


# -- worker entry point ----------------------------------------------------


def _worker_main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    root = job["root"]
    watch: dict[str, dict[int, str]] = {}

    def add(rel: str, line: int, site: str, overwrite: bool) -> None:
        # key the watch map by both the joined path and its realpath so
        # co_filename matches regardless of symlinked temp directories
        joined = os.path.abspath(os.path.join(root, rel))
        for path in {joined, os.path.realpath(joined)}:
            lines = watch.setdefault(path, {})
            if overwrite or line not in lines:
                lines[line] = site

    for rel, line in job["sites"]:
        add(rel, int(line), f"{rel}:{line}", overwrite=True)
    for _key, rel, line in job["declassify"]:
        add(rel, int(line), f"{rel}:{line}", overwrite=False)
    recorder = _Recorder(watch)
    backend = _backend_name()
    trace = _trace_monitoring if backend == "monitoring" else _trace_settrace
    workload_fn = _run_workload
    spec = job.get("workload")
    if spec:
        # import outside tracing so module-level lines (constants, class
        # bodies) never enter the digests: only per-seed execution counts
        import importlib

        workload_fn = getattr(
            importlib.import_module(str(spec["module"])), str(spec["func"])
        )
    for seed in job["seeds"]:
        recorder.begin_seed(seed)
        trace(recorder, lambda: workload_fn(seed, int(job["n"])))
        if backend == "monitoring":
            sys.monitoring.restart_events()
    payload = {
        "backend": backend,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "sites": recorder.finish(),
    }
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":  # pragma: no cover - debugging convenience
    _worker_main(sys.argv[1])
