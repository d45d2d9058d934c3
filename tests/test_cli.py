"""Tests for the repro-falcon command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def keyfiles(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    sk = str(d / "sk.json")
    pk = str(d / "pk.json")
    rc = main(["keygen", "--n", "16", "--seed", "cli-test", "--sk", sk, "--pk", pk])
    assert rc == 0
    return d, sk, pk


class TestCli:
    def test_params(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "512" in out and "34034726" in out

    def test_keygen_deterministic(self, tmp_path):
        a_sk, a_pk = str(tmp_path / "a_sk"), str(tmp_path / "a_pk")
        b_sk, b_pk = str(tmp_path / "b_sk"), str(tmp_path / "b_pk")
        main(["keygen", "--n", "8", "--seed", "same", "--sk", a_sk, "--pk", a_pk])
        main(["keygen", "--n", "8", "--seed", "same", "--sk", b_sk, "--pk", b_pk])
        assert open(a_sk).read() == open(b_sk).read()
        assert open(a_pk).read() == open(b_pk).read()

    def test_sign_verify_roundtrip(self, keyfiles, capsys):
        d, sk, pk = keyfiles
        sig = str(d / "sig.hex")
        assert main(["sign", "--sk", sk, "--message", "hello", "--out", sig]) == 0
        assert main(["verify", "--pk", pk, "--message", "hello", "--sig", sig]) == 0
        out = capsys.readouterr().out
        assert "ACCEPT" in out

    def test_verify_rejects_wrong_message(self, keyfiles, capsys):
        d, sk, pk = keyfiles
        sig = str(d / "sig2.hex")
        main(["sign", "--sk", sk, "--message", "hello", "--out", sig])
        assert main(["verify", "--pk", pk, "--message", "HELLO", "--sig", sig]) == 1
        assert "REJECT" in capsys.readouterr().out

    def test_capture_and_attack_coefficient(self, keyfiles, capsys):
        d, sk, _ = keyfiles
        ts = str(d / "ts.npz")
        rc = main([
            "capture", "--sk", sk, "--index", "0", "--traces", "6000", "--out", ts,
            "--trs-prefix", str(d / "coef"),
        ])
        assert rc == 0
        rc = main(["attack-coefficient", "--traceset", ts])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered coefficient pattern" in out
        assert (d / "coef_x_re.trs").exists()

    def test_attack_coefficient_telemetry_outputs(self, keyfiles, capsys):
        import json

        from repro.obs import read_journal

        d, sk, _ = keyfiles
        ts = str(d / "ts_obs.npz")
        assert main([
            "capture", "--sk", sk, "--index", "0", "--traces", "6000", "--out", ts,
        ]) == 0
        journal = str(d / "coeff.jsonl")
        metrics_out = str(d / "coeff_metrics.json")
        rc = main([
            "attack-coefficient", "--traceset", ts,
            "--log-json", journal, "--metrics-out", metrics_out,
        ])
        assert rc == 0
        capsys.readouterr()
        events = read_journal(journal)
        assert [e["event"] for e in events] == ["span", "metrics"]
        root = events[0]["span"]
        assert root["name"] == "attack_coefficient"
        assert {c["name"] for c in root["children"]} == {"mantissa", "exponent", "sign"}
        payload = json.loads(open(metrics_out).read())
        assert payload["metrics"]["counters"]["cpa.rows_correlated"] > 0
        assert set(payload["per_stage_s"]) == {"mantissa", "exponent", "sign"}

    def test_attack_telemetry_outputs_and_stdout_stays_clean(self, tmp_path, capsys):
        import json

        from repro.obs import read_journal

        d = tmp_path
        sk = str(d / "sk8.json")
        assert main([
            "keygen", "--n", "8", "--seed", "cli-obs", "--sk", sk,
            "--pk", str(d / "pk8.json"),
        ]) == 0
        journal = str(d / "attack.jsonl")
        metrics_out = str(d / "attack_metrics.json")
        rc = main([
            "attack", "--sk", sk, "--traces", "450", "--noise", "2.0",
            "--seed", "61", "--progress",
            "--log-json", journal, "--metrics-out", metrics_out,
        ])
        captured = capsys.readouterr()
        assert rc == 0
        # progress chatter went to stderr; stdout holds only the report
        assert "coefficient" in captured.err
        assert "[" not in captured.out.splitlines()[0]
        assert "full key extraction" in captured.out
        events = read_journal(journal)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "progress" in kinds and "span" in kinds and "metrics" in kinds
        payload = json.loads(open(metrics_out).read())
        assert set(payload) >= {"per_stage_s", "rows_correlated", "metrics", "span"}
        assert payload["span"]["name"] == "attack"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStoreInfo:
    def test_reports_target(self, tmp_path, capsys):
        from repro.falcon import FalconParams, keygen
        from repro.leakage import CaptureCampaign, DeviceModel

        sk, _ = keygen(FalconParams.get(8), seed=b"cli-store")
        CaptureCampaign(
            sk=sk, device=DeviceModel(), n_traces=32, seed=3, target="samplerz"
        ).materialize(tmp_path / "store", targets=[0])
        assert main(["store-info", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "capture: target=samplerz" in out
        assert "backend" not in out

    def test_legacy_manifest_without_backend_or_target(self, tmp_path, capsys):
        """A hand-written pre-surface manifest (the on-disk format of
        earlier releases) must still summarize cleanly, with the target
        defaulting to the only surface that existed then."""
        import json

        store = tmp_path / "legacy"
        store.mkdir()
        (store / "manifest.json").write_text(json.dumps({
            "format": "falcon-down-campaign-store",
            "version": 1,
            "n": 8,
            "n_targets": 8,
            "n_traces": 100,
            "mode": "direct",
            "seed": 2021,
            # no "backend" / "target": written before those keys existed
            "device": {
                "gain": 1.0, "offset": 0.0, "noise_sigma": 10.0,
                "samples_per_step": 1, "jitter": 0.0, "seed": 2021,
                "model": "HammingWeightModel",
            },
            "targets": {"0": {"n_kept": [100, 100]}},
        }))
        assert main(["store-info", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "capture: target=fpr-mul" in out
        assert "shards: 1/8 complete" in out

    def test_manifest_with_legacy_backend_key(self, tmp_path, capsys):
        """Stores written while the capture engine was selectable carry
        ``"backend"`` in their manifest. They still open and summarize,
        and materializing into one reuses every shard."""
        import json
        import os

        from repro.falcon import FalconParams, keygen
        from repro.leakage import CampaignStore, CaptureCampaign

        sk, _ = keygen(FalconParams.get(8), seed=b"cli-store")
        campaign = CaptureCampaign(sk=sk, n_traces=32, seed=3)
        path = str(tmp_path / "old")
        campaign.materialize(path, targets=[0, 1])
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["backend"] = "python-ref"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)

        assert CampaignStore(path).targets() == [0, 1]
        assert main(["store-info", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "shards: 2/8 complete" in out
        assert "backend" not in out

        def no_recapture(j):
            raise AssertionError(f"shard {j} was re-captured")

        campaign.capture = no_recapture
        resumed = campaign.materialize(path, targets=[0, 1])
        assert resumed.targets() == [0, 1]
        assert "backend" not in resumed.manifest
