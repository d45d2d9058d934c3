"""Disk-backed campaign stores: capture once, attack many times.

A Section-IV campaign at FALCON-512 scale is hundreds of coefficients
times 10k signings each; re-simulating all of it in RAM for every
``full_attack`` run is the single biggest waste in the pipeline, and a
crash loses everything. A :class:`CampaignStore` persists one capture
campaign to a directory of per-coefficient *shards*:

``path/``
    ``manifest.json`` — campaign layout: ring size, capture mode,
    seeds, device parameters, and per-target accounting
    (``n_requested`` vs per-segment ``n_kept``). Written last, so a
    directory without a manifest is an incomplete materialization.
``path/target_00000/``
    one shard per secret double: ``<seg>.known.npy`` (uint64 operand
    patterns), ``<seg>.traces.npy`` (float32 samples, memory-mapped on
    read), and ``shard.json`` (per-target metadata; written last, so
    its presence marks the shard complete).

The attack side consumes a live :class:`~repro.leakage.capture.
CaptureCampaign` or a store interchangeably through the
:class:`TraceSource` protocol — both expose ``n_targets``/``n_traces``
and ``capture(target_index) -> TraceSet``. A store never re-simulates
signings (it holds no secret key at all, matching a real adversary's
view: measurements plus known operands), and trace access is
memory-mapped, so attacking from a store keeps peak RSS bounded by one
coefficient's working set rather than the whole campaign.

:meth:`TraceSet.save`/:meth:`TraceSet.load` are reimplemented on the
same serialization helpers (`write_traceset` / `read_traceset`), so
single-coefficient archives and campaign shards agree on how segment
names, ``true_secret`` and ``meta`` round-trip.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import MUL_STEP_LABELS
from repro.leakage.device import DeviceModel
from repro.leakage.synth import TraceLayout
from repro.leakage.traceset import Segment, TraceSet
from repro.obs import metrics
from repro.obs.spans import span
from repro.utils.io import atomic_output_path, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.leakage.capture import CaptureCampaign

__all__ = [
    "TraceSource",
    "CampaignStore",
    "StoreError",
    "write_traceset",
    "read_traceset",
    "meta_to_jsonable",
    "meta_from_jsonable",
]

_MANIFEST = "manifest.json"
_SHARD_META = "shard.json"
_FORMAT = "falcon-down-campaign-store"
_VERSION = 1


class StoreError(RuntimeError):
    """The on-disk store is missing, incomplete, or inconsistent."""


@runtime_checkable
class TraceSource(Protocol):
    """What the attack engine needs from any supplier of trace sets.

    Implemented by live :class:`~repro.leakage.capture.CaptureCampaign`
    objects (simulate on demand) and by :class:`CampaignStore` (read
    from disk); :func:`repro.attack.key_recovery.recover_coefficients`
    and everything above it accept either transparently.
    """

    @property
    def n_targets(self) -> int:  # pragma: no cover
        ...

    @property
    def n_traces(self) -> int:  # pragma: no cover
        ...

    def capture(self, target_index: int) -> TraceSet:  # pragma: no cover
        ...


# -- meta serialization ----------------------------------------------------
#
# TraceSet.meta holds ints, floats, strings and *tuples* (the per-segment
# n_kept accounting). JSON has no tuple type, so tuples are tagged on the
# way out and restored on the way in — round-trips must be exact, not
# "close enough" (the significance bounds are computed from these counts).


def meta_to_jsonable(obj: Any) -> Any:
    """Recursively convert a meta value into JSON-encodable form."""
    if isinstance(obj, tuple):
        return {"__tuple__": [meta_to_jsonable(v) for v in obj]}
    if isinstance(obj, list):
        return [meta_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): meta_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def meta_from_jsonable(obj: Any) -> Any:
    """Inverse of :func:`meta_to_jsonable`."""
    if isinstance(obj, dict):
        if set(obj.keys()) == {"__tuple__"}:
            return tuple(meta_from_jsonable(v) for v in obj["__tuple__"])
        return {k: meta_from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [meta_from_jsonable(v) for v in obj]
    return obj


# -- single-TraceSet archives (.npz) ---------------------------------------


def write_traceset(path: str, traceset: TraceSet) -> None:
    """Persist one TraceSet to an .npz archive, metadata included."""
    arrays: dict[str, NDArray[Any]] = {}
    names: list[str] = []
    for i, seg in enumerate(traceset.segments):
        arrays[f"known_{i}"] = seg.known_y
        arrays[f"traces_{i}"] = seg.traces
        names.append(seg.name)
    arrays["seg_names"] = np.array(names)
    arrays["spp"] = np.array([traceset.layout.samples_per_step])
    arrays["target_index"] = np.array([traceset.target_index])
    arrays["true_secret"] = np.array(
        [traceset.true_secret if traceset.true_secret is not None else 0],
        dtype=np.uint64,
    )
    arrays["has_secret"] = np.array([traceset.true_secret is not None])
    arrays["meta_json"] = np.array(
        json.dumps(meta_to_jsonable(traceset.meta), sort_keys=True)
    )
    # Non-default step layouts (other leakage surfaces) ride along; the
    # fpr-mul default is omitted so pre-surface archives stay byte-stable.
    if tuple(traceset.layout.labels) != MUL_STEP_LABELS:
        arrays["labels"] = np.array(list(traceset.layout.labels))
    # np.savez appends ".npz" to bare paths, so hand it an open file on
    # the temp name instead; the rename keeps readers from ever seeing a
    # partially written archive.
    with atomic_output_path(path) as tmp:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)


def read_traceset(path: str) -> TraceSet:
    """Load a TraceSet written by :func:`write_traceset`.

    Archives from before metadata rode along (no ``meta_json`` entry)
    load with an empty ``meta`` dict rather than failing.
    """
    data = np.load(path, allow_pickle=False)
    names = [str(s) for s in data["seg_names"]]
    segments = [
        Segment(known_y=data[f"known_{i}"], traces=data[f"traces_{i}"], name=names[i])
        for i in range(len(names))
    ]
    labels = (
        tuple(str(s) for s in data["labels"]) if "labels" in data else MUL_STEP_LABELS
    )
    layout = TraceLayout(samples_per_step=int(data["spp"][0]), labels=labels)
    secret = int(data["true_secret"][0]) if bool(data["has_secret"][0]) else None
    meta: dict[str, Any] = {}
    if "meta_json" in data:
        meta = meta_from_jsonable(json.loads(str(data["meta_json"])))
    return TraceSet(
        layout=layout,
        segments=segments,
        target_index=int(data["target_index"][0]),
        true_secret=secret,
        meta=meta,
    )


# -- campaign stores -------------------------------------------------------


def _shard_dir(root: str, target_index: int) -> str:
    return os.path.join(root, f"target_{target_index:05d}")


def _write_shard(root: str, traceset: TraceSet) -> None:
    """One shard per target: raw .npy arrays (memmappable) + JSON meta."""
    d = _shard_dir(root, traceset.target_index)
    os.makedirs(d, exist_ok=True)
    for seg in traceset.segments:
        with atomic_output_path(os.path.join(d, f"{seg.name}.known.npy")) as tmp:
            with open(tmp, "wb") as fh:
                np.save(fh, seg.known_y)
        # Stored verbatim: the capture layer already emits float32, and a
        # surface that produces a different dtype must round-trip it —
        # forcing float32 here would silently corrupt wider traces.
        stored = np.ascontiguousarray(seg.traces)
        with atomic_output_path(os.path.join(d, f"{seg.name}.traces.npy")) as tmp:
            with open(tmp, "wb") as fh:
                np.save(fh, stored)
        metrics.inc(
            "store.bytes_written",
            int(seg.known_y.nbytes) + int(stored.nbytes),
        )
    shard: dict[str, Any] = {
        "target_index": traceset.target_index,
        "true_secret": traceset.true_secret,
        "segments": [seg.name for seg in traceset.segments],
        "meta": meta_to_jsonable(traceset.meta),
        "samples_per_step": traceset.layout.samples_per_step,
    }
    # Same convention as write_traceset: only non-default step layouts
    # are recorded, keeping fpr-mul shards byte-identical to pre-surface
    # stores (the byte-identity pin covers this).
    if tuple(traceset.layout.labels) != MUL_STEP_LABELS:
        shard["labels"] = list(traceset.layout.labels)
    # shard.json is written last: its presence marks the shard complete,
    # which is what lets an interrupted materialize() resume cleanly.
    atomic_write_text(
        os.path.join(d, _SHARD_META), json.dumps(shard, indent=1, sort_keys=True)
    )


def _shard_complete(root: str, target_index: int) -> bool:
    return os.path.exists(os.path.join(_shard_dir(root, target_index), _SHARD_META))


def _read_shard(root: str, target_index: int, mmap: bool = True) -> TraceSet:
    d = _shard_dir(root, target_index)
    meta_path = os.path.join(d, _SHARD_META)
    if not os.path.exists(meta_path):
        raise StoreError(f"store has no complete shard for target {target_index}")
    with open(meta_path) as fh:
        shard = json.load(fh)
    segments: list[Segment] = []
    for name in shard["segments"]:
        known = np.load(os.path.join(d, f"{name}.known.npy"))
        traces_path = os.path.join(d, f"{name}.traces.npy")
        traces = np.load(traces_path, mmap_mode="r") if mmap else np.load(traces_path)
        segments.append(Segment(known_y=known, traces=traces, name=name))
        # Memory-mapped shards count bytes *exposed*; the page cache
        # decides what is physically read, but this is the upper bound
        # the attack walks per coefficient.
        metrics.inc("store.bytes_read", int(known.nbytes) + int(traces.nbytes))
    labels = tuple(shard["labels"]) if "labels" in shard else MUL_STEP_LABELS
    return TraceSet(
        layout=TraceLayout(samples_per_step=int(shard["samples_per_step"]), labels=labels),
        segments=segments,
        target_index=int(shard["target_index"]),
        true_secret=shard["true_secret"],
        meta=meta_from_jsonable(shard["meta"]),
    )


def _device_to_jsonable(device: DeviceModel) -> dict[str, Any]:
    return {
        "gain": device.gain,
        "offset": device.offset,
        "noise_sigma": device.noise_sigma,
        "samples_per_step": device.samples_per_step,
        "jitter": device.jitter,
        "seed": device.seed,
        "model": type(device.model).__name__,
    }


def _device_from_jsonable(spec: dict[str, Any]) -> DeviceModel:
    from repro.leakage import model as model_mod

    model_cls = getattr(model_mod, spec.get("model", "HammingWeightModel"))
    return DeviceModel(
        gain=spec["gain"],
        offset=spec["offset"],
        noise_sigma=spec["noise_sigma"],
        samples_per_step=spec["samples_per_step"],
        jitter=spec["jitter"],
        seed=spec["seed"],
        model=model_cls(),
    )


class CampaignStore:
    """A materialized capture campaign: shards on disk, manifest on top.

    Open an existing store with ``CampaignStore(path)``; create one from
    a live campaign with :meth:`materialize` (or the
    :meth:`~repro.leakage.capture.CaptureCampaign.materialize`
    convenience on the campaign itself). The store implements
    :class:`TraceSource`, so every attack entry point accepts it in
    place of a live campaign.
    """

    def __init__(self, path: str):
        self.path = str(path)
        manifest_path = os.path.join(self.path, _MANIFEST)
        if not os.path.exists(manifest_path):
            raise StoreError(
                f"{self.path!r} is not a campaign store (no {_MANIFEST}; "
                "an interrupted materialize() leaves shards but no manifest — "
                "re-run materialize to complete it)"
            )
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != _FORMAT:
            raise StoreError(f"{manifest_path} is not a {_FORMAT} manifest")
        if int(manifest.get("version", 0)) > _VERSION:
            raise StoreError(
                f"store version {manifest['version']} is newer than this code ({_VERSION})"
            )
        self.manifest: dict[str, Any] = manifest

    # -- TraceSource -------------------------------------------------------

    @property
    def n_targets(self) -> int:
        return int(self.manifest["n_targets"])

    @property
    def n_traces(self) -> int:
        return int(self.manifest["n_traces"])

    def capture(self, target_index: int, mmap: bool = True) -> TraceSet:
        """The stored TraceSet for one secret double.

        Traces are memory-mapped float32 by default: the attack touches
        one coefficient's shard at a time, so peak RSS stays O(shard)
        no matter how large the campaign is. Pass ``mmap=False`` to
        read the arrays into memory instead.
        """
        if not 0 <= target_index < self.n_targets:
            raise ValueError(
                f"target_index must be in 0..{self.n_targets - 1}, got {target_index}"
            )
        entry = self.manifest["targets"].get(str(target_index))
        if entry is not None and entry.get("skipped"):
            raise ValueError(
                f"target {target_index} was skipped at capture time: {entry.get('reason', '')}"
            )
        with span("capture", target=target_index, source="store"):
            return _read_shard(self.path, target_index, mmap=mmap)

    # -- campaign parameters ----------------------------------------------

    @property
    def n(self) -> int:
        return int(self.manifest["n"])

    @property
    def mode(self) -> str:
        return str(self.manifest["mode"])

    @property
    def seed(self) -> int:
        return int(self.manifest["seed"])

    @property
    def target(self) -> str:
        """Which leakage surface the shards record.

        Stores written before surfaces were pluggable only ever held the
        paper's fpr-mul captures; they default accordingly.
        """
        return str(self.manifest.get("target", "fpr-mul"))

    @property
    def device(self) -> DeviceModel:
        """The acquisition device model recorded in the manifest."""
        return _device_from_jsonable(self.manifest["device"])

    def targets(self) -> list[int]:
        """All target indices with a complete shard."""
        return sorted(
            int(k) for k, v in self.manifest["targets"].items() if not v.get("skipped")
        )

    # -- creation ----------------------------------------------------------

    @classmethod
    def materialize(
        cls,
        path: str,
        campaign: "CaptureCampaign",
        targets: Iterable[int] | None = None,
        progress_callback: Callable[[int, int, int], None] | None = None,
    ) -> "CampaignStore":
        """Capture every target of ``campaign`` into a store at ``path``.

        Resumable: complete shards (their ``shard.json`` exists) are not
        re-captured, so an interrupted materialization continues where
        it stopped. The manifest is written (atomically) only after all
        shards exist. Targets whose secret double is non-normal leak
        nothing and are recorded as skipped.
        """
        os.makedirs(path, exist_ok=True)
        target_list = list(targets) if targets is not None else list(range(campaign.n_targets))
        entries: dict[str, dict[str, Any]] = {}
        for done, j in enumerate(target_list, start=1):
            if _shard_complete(path, j):
                with open(os.path.join(_shard_dir(path, j), _SHARD_META)) as fh:
                    shard = json.load(fh)
                entries[str(j)] = {"n_kept": list(meta_from_jsonable(shard["meta"]).get("n_kept", ()))}
            else:
                try:
                    ts = campaign.capture(j)
                except ValueError as exc:
                    entries[str(j)] = {"skipped": True, "reason": str(exc)}
                    continue
                _write_shard(path, ts)
                entries[str(j)] = {"n_kept": list(ts.meta.get("n_kept", ()))}
            if progress_callback is not None:
                progress_callback(j, done, len(target_list))
        manifest: dict[str, Any] = {
            "format": _FORMAT,
            "version": _VERSION,
            "n": campaign.sk.params.n,
            "n_targets": campaign.n_targets,
            "n_traces": campaign.n_traces,
            "mode": campaign.mode,
            "seed": campaign.seed,
            "target": campaign.target,
            "device": _device_to_jsonable(campaign.device),
            "targets": entries,
        }
        atomic_write_text(
            os.path.join(path, _MANIFEST),
            json.dumps(manifest, indent=1, sort_keys=True),
        )
        return cls(path)

    @classmethod
    def is_store(cls, path: str) -> bool:
        return os.path.exists(os.path.join(str(path), _MANIFEST))

    # -- plumbing ----------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # Shipping a store to a worker process ships the path only; each
        # worker re-opens its own memmaps (file handles don't pickle).
        return {"path": self.path}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["path"])

    def __repr__(self) -> str:
        return (
            f"CampaignStore(path={self.path!r}, n={self.n}, "
            f"n_targets={self.n_targets}, n_traces={self.n_traces}, mode={self.mode!r})"
        )
