"""Outside-in per-layer tracing for the benchmark.

Nothing inside ``src/`` is instrumented for this: a :class:`Tracer`
temporarily replaces the public functions each layer exposes with timing
wrappers, at every place a ``repro`` module binds them, and restores the
originals on exit. A layer's *self* time is the wall time of its calls
minus the part spent in wrapped calls nested inside them, so over a
traced region

    sum(self times) + unattributed = traced wall clock

holds exactly (``unattributed`` is the time spent outside every wrapped
call). The wrappers also time their own bookkeeping: that is the
tracing overhead. Wrappers count only in the calling process; pool
workers report through the span trees the attack already returns.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Layer", "LAYERS", "Tracer"]

#: (result, args, kwargs) -> {counter suffix: amount}
WorkFn = Callable[[Any, tuple, dict], dict[str, float]]


@dataclass(frozen=True)
class Layer:
    """One wrapped public entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"`` (methods
    and properties are patched on the class). ``only_in`` restricts a
    module-level function to the binding sites of the named modules, for
    functions shared by two layers (the attack's NTRUSolve is keygen's
    too). ``work`` turns one call into work counters summed under the
    layer's name; ``gauge`` returns fully named values of which the last
    call's are kept. ``cpu`` also records
    process CPU time, which counts every BLAS thread.
    """

    name: str
    target: str
    only_in: tuple[str, ...] = ()
    work: WorkFn | None = None
    gauge: WorkFn | None = None
    cpu: bool = False


def _matrix_work(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"cells": float(np.size(result)), "bytes": float(np.asarray(result).nbytes)}


def _score_work(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    # CpaDistinguisher.score(self, hyp, window, guesses, ...)
    return {"cells": float(np.size(args[1]))}


def _capture_work(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"rows": float(sum(seg.n_traces for seg in result.segments))}


def _dir_bytes(path: str) -> float:
    return float(sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path) for name in files
    ))


def _store_gauge(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"leakage.store.write.bytes": _dir_bytes(result.path)}


def _session_gauge(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    # AttackSession.record(self, ...): the session directory on disk.
    return {"attack.session.record.bytes": _dir_bytes(str(args[0].path))}


def _project_gauge(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {
        "sast.modules": float(len(result.modules)),
        "sast.lines": float(sum(len(m.lines) for m in result.modules.values())),
    }


def _findings_gauge(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    findings, _stats = result
    return {"sast.findings": float(len(findings))}


def _violations_gauge(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"sast.violations": float(len(result))}


_HYP = "repro.attack.hypotheses:"

#: Every wrapped layer, in pipeline order.
LAYERS: tuple[Layer, ...] = (
    Layer("falcon.keygen", "repro.falcon.keygen:keygen"),
    Layer("leakage.capture.corpus", "repro.leakage.capture:CaptureCampaign.c_fft"),
    Layer("leakage.capture.corpus", "repro.leakage.capture:CaptureCampaign.secret_doubles"),
    Layer("leakage.capture", "repro.leakage.capture:CaptureCampaign.capture", work=_capture_work),
    Layer(
        "leakage.store.write", "repro.leakage.capture:CaptureCampaign.materialize",
        gauge=_store_gauge,
    ),
    *(
        Layer("attack.hypotheses", _HYP + fn, work=_matrix_work)
        for fn in (
            "hyp_product", "hyp_s_lo", "hyp_s_mid", "hyp_s_hi",
            "hyp_exp_sum", "hyp_exp_biased", "hyp_exp_out", "hyp_sign",
        )
    ),
    Layer(
        "attack.distinguisher", "repro.attack.distinguisher:CpaDistinguisher.score",
        work=_score_work, cpu=True,
    ),
    Layer("attack.ladder", "repro.attack.ladder:ladder_limb"),
    Layer("attack.extend_prune.prune", "repro.attack.extend_prune:prune_candidates"),
    Layer("attack.extend_prune.refine", "repro.attack.extend_prune:refine_limb"),
    Layer("attack.sign_exp.exponent", "repro.attack.sign_exp:recover_exponent"),
    Layer("attack.sign_exp.sign", "repro.attack.sign_exp:recover_sign"),
    Layer("attack.coefficient", "repro.attack.coefficient:recover_coefficient"),
    Layer(
        "attack.session.record", "repro.attack.session:AttackSession.record",
        gauge=_session_gauge,
    ),
    Layer("attack.key_recovery.fanout", "repro.attack.key_recovery:recover_coefficients"),
    Layer("attack.key_recovery.rebuild", "repro.attack.key_recovery:rebuild_signing_key"),
    Layer("attack.key_recovery.repair", "repro.attack.key_recovery:repair_exponents"),
    Layer(
        "attack.key_recovery.ntru_solve", "repro.falcon.ntru_solve:ntru_solve",
        only_in=("repro.attack.key_recovery",),
    ),
    Layer("attack.pipeline.forge", "repro.attack.key_recovery:forge"),
    Layer("sast.project", "repro.sast.project:load_project", gauge=_project_gauge),
    Layer("sast.taint", "repro.sast.taint:run_taint"),
    Layer("sast.determinism", "repro.sast.determinism:run_determinism"),
    Layer("sast.concurrency", "repro.sast.concurrency:run_concurrency"),
    Layer("sast.cache", "repro.sast.cache:run_with_cache", gauge=_findings_gauge),
    Layer("sast.contract", "repro.sast.contract:verify_contract", gauge=_violations_gauge),
)


def _rebind(old: Callable, new: Callable, only_in: tuple[str, ...] = ()) -> None:
    """Point every module-level binding of ``old`` in ``repro`` at ``new``."""
    names = only_in or tuple(
        name for name in sys.modules if name == "repro" or name.startswith("repro.")
    )
    for name in names:
        module = sys.modules.get(name) or importlib.import_module(name)
        for binding, value in list(vars(module).items()):
            if value is old:
                setattr(module, binding, new)


class Tracer:
    """Accumulates per-layer self time, calls and work counters.

    Use as a context manager to install the wrappers of ``layers``;
    :meth:`wrap` alone builds one wrapper (the tests drive it directly).
    Single-threaded by design: the call stack is one list.
    """

    def __init__(
        self, layers: tuple[Layer, ...] = LAYERS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = layers
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.cpu_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        #: Time spent in the wrappers themselves, outside the wrapped calls.
        self.overhead_s = 0.0
        self._stack: list[list[Any]] = []   # [layer name, child seconds]
        self._undo: list[Callable[[], None]] = []

    def wrap(
        self, name: str, fn: Callable, work: WorkFn | None = None,
        gauge: WorkFn | None = None, cpu: bool = False,
    ) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            t_in = self.clock()
            nested = any(frame[0] == name for frame in self._stack)
            frame = [name, 0.0]
            self._stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t_out = self.clock()
                elapsed = t_out - t0
                if cpu:
                    self.cpu_s[name] += time.process_time() - c0
                self._stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            # A layer re-entered through itself is one unit of its work.
            if not nested:
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if work is not None:
                    for key, amount in work(result, args, kwargs).items():
                        self.work[f"{name}.{key}"] += amount
            if gauge is not None:
                self.gauges.update(gauge(result, args, kwargs))
            self.overhead_s += (t0 - t_in) + (self.clock() - t_out)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer in self.layers:
                self._install(layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _install(self, layer: Layer) -> None:
        module_name, _, path = layer.target.partition(":")
        module = importlib.import_module(module_name)
        opts = {"work": layer.work, "gauge": layer.gauge, "cpu": layer.cpu}
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                patched: Any = property(self.wrap(layer.name, original.fget, **opts))
            else:
                patched = self.wrap(layer.name, original, **opts)
            setattr(cls, attr, patched)
            self._undo.append(lambda: setattr(cls, attr, original))
            return
        original = getattr(module, path)
        wrapper = self.wrap(layer.name, original, **opts)
        _rebind(original, wrapper, layer.only_in)
        # Restoring scans every module, including ones first imported
        # while tracing that bound the wrapper.
        self._undo.append(lambda: _rebind(wrapper, original))

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())
