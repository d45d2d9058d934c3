"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload n8-key --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
reports the per-layer metrics of a traced run plus the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment (``nproc``, BLAS library and thread count, numpy and
Python versions). The run exits non-zero, without a result, when the
package sources are missing or the thread budget would be exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for stores, sessions and the sast cache; removed on exit.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
#: Every compute library gets one thread per process; the pool supplies
#: the parallelism, and their product must stay within ``nproc``.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: (name, unit) of the per-layer metrics, reported by the traced run.
#: ``.s`` is self time; layers a workload does not run read 0.
PER_LAYER = (
    ("falcon.keygen.s", "s"),
    ("leakage.capture.corpus.s", "s"),
    ("leakage.capture.s", "s"),
    ("leakage.capture.rows", "count"),
    ("leakage.store.write.s", "s"),
    ("leakage.store.write.bytes", "B"),
    ("leakage.store.read.s", "s"),
    ("attack.hypotheses.s", "s"),
    ("attack.hypotheses.calls", "count"),
    ("attack.hypotheses.cells", "count"),
    ("attack.hypotheses.bytes", "B"),
    ("attack.distinguisher.s", "s"),
    ("attack.distinguisher.cpu_s", "s"),
    ("attack.distinguisher.calls", "count"),
    ("attack.distinguisher.cells", "count"),
    ("attack.ladder.s", "s"),
    ("attack.extend_prune.prune.s", "s"),
    ("attack.extend_prune.refine.s", "s"),
    ("attack.sign_exp.exponent.s", "s"),
    ("attack.sign_exp.sign.s", "s"),
    ("attack.coefficient.s", "s"),
    ("attack.session.record.s", "s"),
    ("attack.session.record.bytes", "B"),
    ("attack.key_recovery.fanout.s", "s"),
    ("attack.key_recovery.pool_busy_frac", "ratio"),
    ("attack.key_recovery.rebuild.s", "s"),
    ("attack.key_recovery.repair.s", "s"),
    ("attack.key_recovery.ntru_solve.s", "s"),
    ("attack.key_recovery.repaired", "count"),
    ("attack.pipeline.forge.s", "s"),
    ("attack.key_ok", "count"),
    ("attack.exact.sign", "count"),
    ("attack.exact.exponent", "count"),
    ("attack.exact.mantissa", "count"),
    ("attack.margin.sign_min", "score"),
    ("attack.margin.exponent_min", "score"),
    ("attack.margin.mantissa_min", "score"),
    ("sast.project.s", "s"),
    ("sast.taint.s", "s"),
    ("sast.determinism.s", "s"),
    ("sast.concurrency.s", "s"),
    ("sast.cache.s", "s"),
    ("sast.contract.s", "s"),
    ("sast.modules", "count"),
    ("sast.lines", "count"),
    ("sast.findings", "count"),
    ("sast.violations", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class BudgetError(RuntimeError):
    """Worker processes x BLAS threads would exceed the available cores."""


def blas_info() -> tuple[str, int | None]:
    """(BLAS library, its current thread count) of this process's numpy.

    The thread count is read from the loaded OpenBLAS; ``None`` when the
    library exposes no such query.
    """
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def thread_budget(workers: int) -> dict[str, object]:
    """The run's environment record; raises :class:`BudgetError` if over budget."""
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas, blas_threads = blas_info()
    threads = blas_threads if blas_threads is not None else int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    env = {
        "nproc": nproc,
        "workers": workers,
        "blas": blas,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if workers * threads > nproc:
        raise BudgetError(
            f"{workers} worker(s) x {threads} BLAS thread(s) exceeds nproc={nproc}"
        )
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child (MiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def _run_batch(wl):
    wl.prepare()
    t0 = time.perf_counter()
    try:
        batch = wl.run()
    except Exception:
        traceback.print_exc()
        batch = wl.failed_batch()
    return batch, time.perf_counter() - t0


def _totals(batches) -> dict[str, object]:
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    return {
        "correct": all(b.correct for b in batches),
        "attempted": attempted,
        "failed": failed,
    }


def _timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def measure(wl, n_batches: int) -> dict[str, object]:
    """End-to-end metrics, tracing off.

    Half the set-up repeats run before the batches and the rest after
    them, so the reported median samples the box's speed across the
    whole run rather than in one window of a few seconds.
    """
    setups = [_timed_setup(wl) for _ in range((wl.setup_repeats + 1) // 2)]
    batches, wall = [], 0.0
    for _ in range(n_batches):
        batch, elapsed = _run_batch(wl)
        batches.append(batch)
        wall += elapsed
    setups += [_timed_setup(wl) for _ in range(wl.setup_repeats // 2)]
    out = _totals(batches)
    op_times = [t for b in batches for t in b.op_times]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_s": statistics.median(op_times) if op_times else wall / out["attempted"],
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - out["failed"] / out["attempted"],
    }
    out["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return out


def measure_traced(wl, n_batches: int) -> dict[str, object]:
    """Per-layer metrics of one traced set-up and run, plus tracing overhead."""
    from layers import Tracer
    from repro.obs import spans

    tracer = Tracer()
    with spans.collect_spans() as roots, tracer:
        t0 = time.perf_counter()
        wl.setup()
        batches = [_run_batch(wl)[0] for _ in range(n_batches)]
        traced_wall = time.perf_counter() - t0

    values: dict[str, float] = {}
    for name, seconds in tracer.self_s.items():
        values[f"{name}.s"] = seconds
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = float(calls)
    for name, seconds in tracer.cpu_s.items():
        values[f"{name}.cpu_s"] = seconds
    values.update(tracer.work)
    values.update(tracer.gauges)
    # Pool workers' store reads come back as the attack's own span trees.
    values["leakage.store.read.s"] = sum(
        s.duration_s for root in roots for s in root.walk()
        if s.name == "capture" and s.attrs.get("source") == "store"
    )
    fanout = tracer.total_s.get("attack.key_recovery.fanout", 0.0)
    if fanout > 0:
        busy = sum(sum(b.op_times) for b in batches)
        values["attack.key_recovery.pool_busy_frac"] = busy / (wl.workers * fanout)
    for batch in batches:
        for key, value in batch.layer.items():
            if key.startswith("attack.margin.") or key == "attack.key_ok":
                values[key] = min(values.get(key, value), value)
            else:
                values[key] = values.get(key, 0.0) + value
    values["trace.unattributed_s"] = traced_wall - tracer.attributed_s()
    # What the run would have taken untraced: the traced wall less the
    # time the wrappers spent on themselves.
    values["trace.overhead_frac"] = tracer.overhead_s / (traced_wall - tracer.overhead_s)
    out = _totals(batches)
    out["metrics"] = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no package sources under {src}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    os.chdir(ROOT)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    try:
        env = thread_budget(cls.workers)
    except BudgetError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = cls(args.seed, workdir)
        n_batches = max(1, int(args.seconds // wl.nominal_batch_s))
        result = measure_traced(wl, n_batches) if args.trace else measure(wl, n_batches)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)   # only when no concurrent run still uses it
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
