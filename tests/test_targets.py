"""Tests for the pluggable leakage-surface layer (:mod:`repro.targets`).

Two concerns live here. First, **byte-identity of the refactor**: the
``fpr-mul`` surface must front the pre-protocol pipeline without
changing a single byte of its output — pinned SHA-256 digests of a
traceset, a materialized store, and a full attack report enforce that
(recorded on the commit that introduced the surface layer; any
deliberate change to capture or recovery must re-pin them consciously).
Second, **the samplerz surface end to end**: seeded signing captures,
transcript recovery through the surface-agnostic engine, store
round-trips that preserve the surface's trace layout, and the shared
unknown-name error contract for every registry.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.falcon import FalconParams, keygen
from repro.falcon.samplerz import SAMPLERZ_STEP_LABELS
from repro.leakage import CampaignStore, CaptureCampaign, DeviceModel, capture_coefficient
from repro.targets import DEFAULT_TARGET, TARGET_NAMES, TARGETS, TargetPoint, get_target


@pytest.fixture(scope="module")
def victim():
    sk, pk = keygen(FalconParams.get(8), seed=b"pin-target")
    return sk, pk


def _traceset_digest(ts) -> str:
    h = hashlib.sha256()
    for seg in ts.segments:
        h.update(seg.name.encode())
        h.update(seg.known_y.tobytes())
        h.update(np.ascontiguousarray(seg.traces).tobytes())
    h.update(json.dumps(ts.meta, sort_keys=True, default=str).encode())
    h.update(str(ts.target_index).encode())
    h.update(str(ts.true_secret).encode())
    return h.hexdigest()


class TestRegistry:
    def test_registered_surfaces(self):
        assert TARGET_NAMES == ("fpr-mul", "samplerz")
        assert DEFAULT_TARGET == "fpr-mul"
        for name, surface in TARGETS.items():
            assert isinstance(surface, TargetPoint)
            assert surface.name == name

    def test_get_target_passes_instances_through(self):
        surface = get_target("samplerz")
        assert get_target(surface) is surface

    def test_unknown_name_error_contract(self):
        """Every registry raises the same shaped message: the offending
        name plus the sorted list of registered names."""
        from repro.attack.config import AttackConfig

        for name in ("oscilloscope", "contract:14d8f9c87b91"):
            with pytest.raises(ValueError) as exc:
                get_target(name)
            msg = str(exc.value)
            assert msg.startswith(f"unknown target {name!r}")
            assert "'fpr-mul', 'samplerz'" in msg

        with pytest.raises(ValueError, match="unknown distinguisher"):
            AttackConfig(distinguisher="deep-learning")

    def test_cli_surfaces_registry_error(self, capsys):
        from repro.cli import main

        rc = main([
            "attack", "--sk", "/nonexistent-never-read", "--target", "laser",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown target 'laser'" in err


class TestFprMulByteIdentity:
    """The refactored pipeline must reproduce pre-surface outputs exactly."""

    TRACESET_SHA256 = "063ce94de5d29953a22a8f256599ae01bbd12d885af9bd91c2ea48796ce255da"
    STORE_SHA256 = "cc1e7c55d75c6699c1ad421aa462ec9200c41b832bcadd019fba94a9e81c884e"

    def test_traceset_pinned(self, victim):
        sk, _ = victim
        ts = capture_coefficient(sk, 1, n_traces=200, device=DeviceModel(), seed=2021)
        assert "target" not in ts.meta, "fpr-mul tracesets must stay legacy-shaped"
        assert _traceset_digest(ts) == self.TRACESET_SHA256

    def test_store_pinned(self, victim, tmp_path):
        sk, _ = victim
        campaign = CaptureCampaign(sk=sk, device=DeviceModel(), n_traces=64, seed=7)
        store = campaign.materialize(tmp_path / "store")
        # the manifest records the surface (a new field, excluded from the
        # pin); every shard byte must be identical to the pre-surface layout
        assert store.manifest["target"] == "fpr-mul"
        h = hashlib.sha256()
        for root, _, files in sorted(os.walk(tmp_path / "store")):
            for fname in sorted(files):
                if fname == "manifest.json":
                    continue
                path = os.path.join(root, fname)
                h.update(os.path.relpath(path, tmp_path / "store").encode())
                h.update(open(path, "rb").read())
        assert h.hexdigest() == self.STORE_SHA256

    def test_full_attack_pinned(self, victim):
        from repro.attack import full_attack

        sk, pk = victim
        report = full_attack(
            sk, pk, n_traces=800, device=DeviceModel(noise_sigma=2.0),
            message=b"pin message",
        )
        lines = [
            ln for ln in report.summary().splitlines() if not ln.startswith("  wall clock")
        ]
        assert lines == [
            "FALCON-8 full key extraction with 800 measurements",
            "  trace rows correlated: 12800 (requested 800 signings/coefficient)",
            "  coefficients recovered exactly: 8/8",
            "  secret key f recovered: YES",
            "  forged signature on b'pin message' verifies: YES",
        ]
        patterns = [f"{c.pattern:#018x}" for c in report.key_recovery.coefficients]
        assert patterns == [
            "0xc00e65a5077ef0c8", "0x4045c4454ef00ce2", "0x404dab258f426530",
            "0x40339f04f4e60914", "0xc0409e4835ae3a46", "0x404934383a676082",
            "0x4048d97cf6e3c422", "0xc03dae09e2372e4c",
        ]
        assert report.key_recovery.f == [18, 14, 11, -30, 26, 23, 4, 21]
        assert report.target == "fpr-mul"


class TestSamplerZSurface:
    def test_campaign_shape(self, victim):
        sk, _ = victim
        campaign = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=2.0), n_traces=200, seed=7,
            target="samplerz",
        )
        # ffSampling draws 2n Gaussians per signing
        assert campaign.n_targets == 2 * sk.params.n
        ts = campaign.capture(3)
        assert ts.meta["target"] == "samplerz"
        assert ts.meta["call_index"] == 3
        assert ts.true_secret is not None
        seg, = ts.segments
        layout = get_target("samplerz").layout(campaign.device)
        assert seg.traces.shape == (200, layout.n_samples)
        assert tuple(layout.labels) == SAMPLERZ_STEP_LABELS

    def test_end_to_end_transcript_recovery(self, victim):
        from repro.attack import full_attack

        sk, pk = victim
        report = full_attack(
            sk, pk, n_traces=600, device=DeviceModel(noise_sigma=2.0), seed=7,
            target="samplerz", message=b"pin message",
        )
        result = report.key_recovery
        assert report.target == "samplerz"
        assert result.succeeded
        assert result.recovered_sk is None and not report.forgery_verifies
        assert report.key_correct
        assert len(result.recovered_values) == 2 * sk.params.n
        assert all(c.correct for c in result.coefficients)
        # the recovered transcript is the ground-truth ffSampling stream
        truth = [c.true_value for c in result.coefficients]
        assert result.recovered_values == truth
        summary = report.summary()
        assert "samplerz transcript extraction" in summary
        assert f"sampler calls recovered exactly: {2 * sk.params.n}/{2 * sk.params.n}" in summary
        assert "ffSampling sampler outputs recovered: YES" in summary

    def test_recovery_margin_positive_and_deterministic(self, victim):
        from repro.attack import AttackConfig

        sk, _ = victim
        campaign = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=2.0), n_traces=400, seed=11,
            target="samplerz",
        )
        surface = get_target("samplerz")
        ts = campaign.capture(5)
        rec_a = surface.recover(ts, AttackConfig())
        rec_b = surface.recover(campaign.capture(5), AttackConfig())
        assert rec_a == rec_b
        assert rec_a.correct
        assert rec_a.margin > 0.0

    def test_store_round_trip_preserves_layout(self, victim, tmp_path):
        sk, _ = victim
        campaign = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=2.0), n_traces=64, seed=7,
            target="samplerz",
        )
        store = campaign.materialize(tmp_path / "zstore", targets=[0, 1])
        assert store.target == "samplerz"
        ts = store.capture(1)
        fresh = campaign.capture(1)
        assert ts.meta == fresh.meta
        assert ts.true_secret == fresh.true_secret
        seg, fresh_seg = ts.segments[0], fresh.segments[0]
        np.testing.assert_array_equal(seg.traces, fresh_seg.traces)
        # the shard must carry the surface's own step labels
        shard_meta = json.loads((tmp_path / "zstore" / "target_00001" / "shard.json").read_text())
        assert shard_meta["labels"] == list(SAMPLERZ_STEP_LABELS)

    def test_profiled_distinguisher_rejected(self, victim):
        from repro.attack import AttackConfig, recover_full_key

        sk, pk = victim
        campaign = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=2.0), n_traces=64, seed=7,
            target="samplerz",
        )
        with pytest.raises(ValueError, match="profiles fpr-mul step leakage"):
            recover_full_key(
                campaign, pk, config=AttackConfig(distinguisher="template")
            )
