"""Command-line interface: keygen, sign, verify, capture, attack.

Installed as ``repro-falcon`` (see pyproject). The attack subcommands
drive the simulated bench — the victim key doubles as the device under
test, exactly like ``examples/attack_demo.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.falcon import FalconParams, keygen, sign, verify
from repro.falcon.keys import (
    public_key_from_json,
    public_key_to_json,
    secret_key_from_json,
    secret_key_to_json,
)
from repro.falcon.params import SUPPORTED_N
from repro.falcon.sign import Signature
from repro.utils.io import atomic_write_text

__all__ = ["main", "build_parser"]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, content: str) -> None:
    atomic_write_text(path, content)


def cmd_params(args) -> int:
    from repro.analysis import format_table

    rows = []
    for n in SUPPORTED_N:
        p = FalconParams.get(n)
        rows.append([n, p.q, f"{p.sigma:.3f}", p.sig_bound, p.sig_bytelen])
    print(format_table(["n", "q", "sigma", "beta^2", "sig bytes"], rows))
    return 0


def cmd_keygen(args) -> int:
    params = FalconParams.get(args.n)
    seed = args.seed.encode() if args.seed else None
    sk, pk = keygen(params, seed=seed)
    _write(args.sk, secret_key_to_json(sk))
    _write(args.pk, public_key_to_json(pk))
    print(f"FALCON-{args.n} key pair written to {args.sk} / {args.pk}")
    return 0


def cmd_sign(args) -> int:
    sk = secret_key_from_json(_read(args.sk))
    message = args.message.encode()
    sig = sign(sk, message)
    _write(args.out, sig.encoded().hex())
    print(f"signature ({len(sig.encoded())} bytes) written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    pk = public_key_from_json(_read(args.pk))
    blob = bytes.fromhex(_read(args.sig).strip())
    salt_len = pk.params.salt_len
    sig = Signature(salt=blob[1 : 1 + salt_len], s2_compressed=blob[1 + salt_len :])
    ok = verify(pk, args.message.encode(), sig)
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def cmd_capture(args) -> int:
    from repro.leakage import DeviceModel, capture_coefficient

    sk = secret_key_from_json(_read(args.sk))
    device = DeviceModel(noise_sigma=args.noise)
    ts = capture_coefficient(
        sk, args.index, n_traces=args.traces, device=device, seed=args.capture_seed,
        target=args.target,
    )
    ts.save(args.out)
    print(
        f"captured {ts.n_traces} traces of {args.target} target {args.index}"
        f" -> {args.out}"
    )
    if args.trs_prefix:
        from repro.leakage.trs import traceset_to_trs

        paths = traceset_to_trs(ts, args.trs_prefix)
        print("TRS export: " + ", ".join(paths))
    return 0


def _write_metrics_json(path: str, payload: dict) -> None:
    import json

    from repro.utils.io import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def cmd_attack_coefficient(args) -> int:
    from repro.attack import AttackConfig
    from repro.leakage import TraceSet
    from repro.obs import RunJournal, collect_spans, scoped_registry, span
    from repro.targets import DEFAULT_TARGET, get_target

    ts = TraceSet.load(args.traceset)
    # the traceset records which surface captured it (legacy archives
    # predate surfaces and are always fpr-mul); recovery must go through
    # the same surface or the layout/hypothesis pairing is meaningless
    surface = get_target(str(ts.meta.get("target", DEFAULT_TARGET)))
    with scoped_registry() as reg, collect_spans() as roots:
        with span("attack_coefficient", target=ts.target_index):
            rec = surface.recover(ts, AttackConfig(chunk_rows=args.chunk_rows))
    snap = reg.snapshot()
    root = roots[0] if roots else None
    if args.log_json:
        with RunJournal(args.log_json) as journal:
            if root is not None:
                journal.emit_span(root, target=ts.target_index)
            journal.emit_metrics(snap)
    if args.metrics_out:
        _write_metrics_json(
            args.metrics_out,
            {
                "per_stage_s": root.stage_seconds() if root is not None else {},
                "metrics": snap.to_jsonable(),
            },
        )
    if hasattr(rec, "pattern"):
        print(f"recovered coefficient pattern: {rec.pattern:#018x}")
        if ts.true_secret is not None:
            print(f"ground truth:                  {ts.true_secret:#018x}")
            print(f"exact: {'YES' if rec.correct else 'no'}")
    else:
        print(f"recovered {surface.name} value: {rec.value:#x}")
        if ts.true_secret is not None:
            print(f"ground truth:{' ' * (len(surface.name) + 7)}{ts.true_secret:#x}")
            print(f"exact: {'YES' if rec.correct else 'no'}")
    return 0


def cmd_attack(args) -> int:  # sast: declassify(reason=CLI reports attack outcomes; the report derives from recovered secrets by definition)
    from repro.attack import AttackConfig, full_attack
    from repro.leakage import DeviceModel
    from repro.obs import RunJournal, console_subscriber

    from repro.targets import get_target

    surface = get_target(args.target)  # validate before touching key files
    sk = secret_key_from_json(_read(args.sk))
    pk = sk.public_key()
    config = AttackConfig(
        n_workers=args.workers,
        chunk_rows=args.chunk_rows,
        distinguisher=args.distinguisher,
    )
    # One event stream: --log-json adds the JSONL sink, --progress adds
    # the stderr console renderer as a subscriber of the same journal —
    # stdout carries only the final report.
    journal = None
    if args.log_json or args.progress:
        journal = RunJournal(args.log_json)
        if args.progress:
            journal.subscribe(console_subscriber)
    try:
        report = full_attack(
            sk,
            pk,
            n_traces=args.traces,
            device=DeviceModel(noise_sigma=args.noise),
            config=config,
            message=args.message.encode(),
            mode=args.mode,
            seed=args.seed,
            target=args.target,
            store=args.store,
            session=args.resume,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    if args.metrics_out and report.telemetry is not None:
        _write_metrics_json(args.metrics_out, report.telemetry.to_jsonable())
    print(report.summary())
    # Forgery is the success criterion only for surfaces that end in a
    # signing key; transcript surfaces succeed on exact recovery.
    ok = report.forgery_verifies if surface.has_forgery else report.key_correct
    return 0 if ok else 1


def cmd_store_info(args) -> int:
    from repro.analysis import describe_store
    from repro.leakage import CampaignStore

    print(describe_store(CampaignStore(args.store)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.attack.config import KNOWN_DISTINGUISHERS
    from repro.targets import DEFAULT_TARGET, TARGET_NAMES

    target_names = ", ".join(TARGET_NAMES)
    distinguisher_names = ", ".join(sorted(KNOWN_DISTINGUISHERS))

    parser = argparse.ArgumentParser(
        prog="repro-falcon",
        description="Falcon-Down reproduction: FALCON signatures and the DAC'21 side-channel attack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print the supported parameter sets")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n", type=int, default=512, choices=SUPPORTED_N)
    p.add_argument("--seed", type=str, default=None)
    p.add_argument("--sk", type=str, required=True, help="secret key output path")
    p.add_argument("--pk", type=str, required=True, help="public key output path")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("sign", help="sign a message")
    p.add_argument("--sk", type=str, required=True)
    p.add_argument("--message", type=str, required=True)
    p.add_argument("--out", type=str, required=True, help="hex signature output path")
    p.set_defaults(fn=cmd_sign)

    p = sub.add_parser("verify", help="verify a signature")
    p.add_argument("--pk", type=str, required=True)
    p.add_argument("--message", type=str, required=True)
    p.add_argument("--sig", type=str, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("capture", help="capture EM traces of one target (simulated bench)")
    p.add_argument("--sk", type=str, required=True, help="victim secret key")
    p.add_argument(
        "--target", type=str, default=DEFAULT_TARGET,
        help=f"leakage surface to capture (registered: {target_names})",
    )
    p.add_argument(
        "--index", type=int, default=0,
        help="target index within the surface: secret-double index for "
        "fpr-mul, ffSampling call number for samplerz",
    )
    p.add_argument("--traces", type=int, default=10_000)
    p.add_argument("--noise", type=float, default=10.0)
    p.add_argument("--capture-seed", type=int, default=2021)
    p.add_argument("--out", type=str, required=True, help=".npz traceset output")
    p.add_argument("--trs-prefix", type=str, default=None, help="also export Riscure TRS files")
    p.set_defaults(fn=cmd_capture)

    p = sub.add_parser("attack-coefficient", help="run extend-and-prune DEMA on a saved traceset")
    p.add_argument("--traceset", type=str, required=True)
    p.add_argument(
        "--chunk-rows", type=int, default=None,
        help="row-block size of the Pearson kernel: every CPA sums its moments "
        "over blocks of this many traces (default: one block of all traces)",
    )
    p.add_argument(
        "--log-json", type=str, default=None, metavar="PATH",
        help="append the structured telemetry (span tree + metrics) to "
        "this JSONL journal",
    )
    p.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write per-stage seconds and the metrics snapshot as JSON",
    )
    p.set_defaults(fn=cmd_attack_coefficient)

    p = sub.add_parser("attack", help="full key extraction + forgery against a simulated victim")
    p.add_argument("--sk", type=str, required=True, help="victim secret key (drives the simulation)")
    p.add_argument("--traces", type=int, default=10_000)
    p.add_argument("--noise", type=float, default=10.0)
    p.add_argument(
        "--mode", type=str, default="direct", choices=("direct", "hash"),
        help="known-message generation: 'hash' runs the full HashToPoint per "
        "signing, 'direct' draws c uniformly (same distribution, faster)",
    )
    p.add_argument(
        "--seed", type=int, default=2021,
        help="capture campaign seed (drives the known-message corpus and "
        "the per-target acquisition RNG)",
    )
    p.add_argument(
        "--target", type=str, default=DEFAULT_TARGET,
        help="leakage surface to attack: 'fpr-mul' is the paper's key "
        "extraction, 'samplerz' recovers the ffSampling sampler transcript "
        f"(registered: {target_names})",
    )
    p.add_argument(
        "--message", type=str,
        default="arbitrary message chosen by the adversary",
        help="message to forge a signature on with the recovered key",
    )
    p.add_argument("--progress", action="store_true")
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the per-coefficient attacks (1 = serial; "
        "results are bit-identical either way)",
    )
    p.add_argument(
        "--chunk-rows", type=int, default=None,
        help="row-block size of the Pearson kernel: every CPA sums its moments "
        "over blocks of this many traces (default: one block of all traces)",
    )
    p.add_argument(
        "--distinguisher", type=str, default="cpa",
        help="statistical engine for every recovery step (profiled choices "
        "run a profiling phase on a fresh adversary key first); "
        f"registered: {distinguisher_names}",
    )
    p.add_argument(
        "--store", type=str, default=None,
        help="campaign store directory: materialize the capture there on "
        "first use, then attack from memory-mapped disk shards (capture "
        "once, attack many times)",
    )
    p.add_argument(
        "--resume", type=str, default=None, metavar="SESSION_DIR",
        help="checkpoint directory for a resumable session: every finished "
        "coefficient is saved atomically, and re-running with the same "
        "directory resumes an interrupted attack bit-identically",
    )
    p.add_argument(
        "--log-json", type=str, default=None, metavar="PATH",
        help="append every run event (progress, span trees, metrics) to "
        "this JSONL journal; progress chatter goes to stderr, so stdout "
        "stays machine-readable",
    )
    p.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the run's telemetry (per-stage seconds, rows "
        "correlated, store bytes read, checkpoint counts) as JSON",
    )
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("store-info", help="summarize a materialized campaign store")
    p.add_argument("--store", type=str, required=True)
    p.set_defaults(fn=cmd_store_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: normal exit
        return 0
    except ValueError as exc:
        # registry lookups (--target / --distinguisher) raise
        # with the sorted list of registered names; surface that verbatim
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
