"""``repro-sast`` command-line entry point.

Exit codes (stable contract, see ``docs/static-analysis.md``):

* ``0`` — analysis ran and produced no unsuppressed findings;
* ``1`` — at least one finding (or contract violation under ``verify``);
* ``2`` — usage or internal error (bad flags, unreadable root,
  malformed contract).

Typical invocations::

    repro-sast verify src/repro --contract leakage-contract.json
    repro-sast path/to/pkg --format json        # machine-readable report
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.sast.concurrency import run_concurrency
from repro.sast.determinism import run_determinism
from repro.sast.findings import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    RULES,
    Finding,
    render_json,
    render_text,
    sort_findings,
)
from repro.sast.project import Project, load_project
from repro.sast.taint import run_taint

__all__ = ["main", "collect_findings"]

_DEFAULT_CONTRACT = "leakage-contract.json"


def collect_findings(project: Project) -> list[Finding]:
    """Run every pass over a loaded project (annotation errors included)."""
    findings: list[Finding] = []
    for qualname in sorted(project.modules):
        findings.extend(project.modules[qualname].annotation_errors)
    findings.extend(run_taint(project))
    findings.extend(run_determinism(project))
    findings.extend(run_concurrency(project))
    return sort_findings(findings)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sast",
        description="Secret-flow taint + determinism + concurrency lint "
        "for the FALCON reproduction (zero dependencies, pure AST).",
    )
    parser.add_argument(
        "root", nargs="?", default="src/repro",
        help="package directory to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--package", default=None,
        help="import name of the root (default: the directory's basename)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental summary cache file; unchanged import-graph "
        "components are replayed instead of re-analyzed",
    )
    parser.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="restrict the report to a comma-separated rule subset",
    )
    parser.add_argument(
        "--no-chains", action="store_true",
        help="omit taint chains from the text report",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _load_or_report(args) -> Project | None:
    """The project at ``args.root``, or None after printing why it failed."""
    try:
        return load_project(args.root, package=args.package)
    except (FileNotFoundError, NotADirectoryError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return None


def _collect_maybe_cached(project: Project, cache_path: str | None) -> list[Finding]:
    """All findings, through the incremental cache when one is configured."""
    if cache_path is None:
        return collect_findings(project)
    from repro.sast.cache import run_with_cache

    findings, stats = run_with_cache(project, cache_path)
    print(f"repro-sast: {stats.describe()}", file=sys.stderr)
    return findings


def _build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sast verify",
        description="Enforce the leakage contract: static findings must be "
        "triaged, recorded oracle verdicts must hold, and (with --oracle) "
        "declassify scopes inside the coverage boundary must execute.",
    )
    parser.add_argument(
        "root", nargs="?", default="src/repro",
        help="package directory to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--package", default=None,
        help="import name of the root (default: the directory's basename)",
    )
    parser.add_argument(
        "--contract", default=_DEFAULT_CONTRACT, metavar="PATH",
        help=f"leakage contract file (default: {_DEFAULT_CONTRACT})",
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help="run the dynamic taint oracle (needs numpy) and enforce fresh "
        "verdicts instead of the recorded ones",
    )
    parser.add_argument(
        "--write-contract", action="store_true",
        help="regenerate the contract from current findings (runs the oracle), "
        "carrying over reviewed classes/reasons by fingerprint",
    )
    parser.add_argument(
        "--variant", default=None, metavar="NAME",
        help="focus one countermeasure variant from the contract's 'variants' "
        "section: run the static gate, then (with --oracle) replay the "
        "variant's workload with every line of its module watched and "
        "enforce the recorded dynamic claims (CT007)",
    )
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help="comma-separated oracle key seeds (default: three fixed seeds)",
    )
    parser.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="ring degree for the oracle workload (default: 8)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="violation report format (default: text)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental summary cache file (see the analyze mode)",
    )
    return parser


def _run_verify(argv: list[str]) -> int:
    from repro.sast.contract import (
        build_contract,
        load_contract,
        render_contract,
        verify_contract,
    )
    from repro.sast.oracle import (
        OracleError,
        declassify_watch_sites,
        finding_sites,
        run_oracle,
    )

    parser = _build_verify_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_CLEAN

    if args.variant is not None:
        return _run_variant(args)

    project = _load_or_report(args)
    if project is None:
        return EXIT_ERROR

    findings = _collect_maybe_cached(project, args.cache)

    report = None
    if args.oracle or args.write_contract:
        oracle_kwargs: dict[str, object] = {}
        if args.seeds:
            oracle_kwargs["seeds"] = [s.strip() for s in args.seeds.split(",") if s.strip()]
        if args.n is not None:
            oracle_kwargs["n"] = args.n
        try:
            report = run_oracle(
                project.root,
                package=project.package,
                sites=finding_sites(project, findings),
                declassify=declassify_watch_sites(project),
                **oracle_kwargs,  # type: ignore[arg-type]
            )
        except OracleError as exc:
            print(f"repro-sast: error: {exc}", file=sys.stderr)
            return EXIT_ERROR

    if args.write_contract:
        from repro.utils.io import atomic_write_text

        previous = None
        if os.path.exists(args.contract):
            try:
                previous = load_contract(args.contract)
            except (ValueError, OSError) as exc:
                print(f"repro-sast: warning: ignoring previous contract: {exc}",
                      file=sys.stderr)
        contract = build_contract(findings, project.root, report, previous)
        atomic_write_text(args.contract, render_contract(contract))
        unreached = [e for e in contract.entries if e.verdict == "UNREACHED"]
        print(
            f"repro-sast: wrote {len(contract.entries)} entries "
            f"(+{len(contract.refuted)} refuted) to {args.contract}"
        )
        for entry in unreached:
            print(f"repro-sast: warning: UNREACHED entry needs triage: "
                  f"{entry.describe()}", file=sys.stderr)
        return EXIT_CLEAN

    try:
        contract = load_contract(args.contract)
    except FileNotFoundError:
        print(f"repro-sast: error: contract not found: {args.contract}",
              file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    violations = verify_contract(
        findings, contract, project.root, contract_path=args.contract, report=report,
    )
    mode = "fresh oracle verdicts" if report is not None else "recorded verdicts"
    return _finish_verify(args, project, contract, findings, violations, mode)


def _finish_verify(args, project, contract, findings, violations, mode) -> int:
    if args.format == "sarif":
        from repro.sast.contract import assign_occurrences, fingerprint
        from repro.sast.sarif import render_sarif

        accepted = {**contract.entry_map(), **contract.refuted_map()}
        suppressed = []
        for f in assign_occurrences(list(findings)):
            entry = accepted.get(fingerprint(f, project.root))
            if entry is not None:
                suppressed.append((f, entry.reason))
        print(render_sarif(violations, project.root, contract=contract,
                           suppressed=suppressed))
    elif args.format == "json":
        print(render_json(violations))
    elif violations:
        print(render_text(violations))
    if violations:
        print(
            f"repro-sast: {len(violations)} contract violation"
            f"{'s' if len(violations) != 1 else ''}",
            file=sys.stderr,
        )
        return EXIT_FINDINGS
    print(
        f"repro-sast: contract holds ({len(contract.entries)} entries, "
        f"{len(contract.refuted)} refuted; {mode})",
        file=sys.stdout if args.format == "text" else sys.stderr,
    )
    return EXIT_CLEAN


def _run_variant(args) -> int:
    """``verify --variant NAME``: one countermeasure's claims, end to end.

    Static CT007 checks already run inside every ``verify_contract``
    call; this mode additionally replays the variant's own workload
    under the oracle (``--oracle``) with *every* line of the variant
    module watched, enforcing the contract's recorded dynamic claims.
    Usage errors (``--write-contract``, an unknown variant) are rejected
    before the tree is loaded.
    """
    from repro.sast.contract import load_contract, verify_contract
    from repro.sast.oracle import OracleError, run_oracle
    from repro.sast.variants import check_variant_dynamic, variant_module_sites

    if args.write_contract:
        print("repro-sast: error: --variant cannot be combined with "
              "--write-contract", file=sys.stderr)
        return EXIT_ERROR
    try:
        contract = load_contract(args.contract)
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    spec = contract.variants.get(args.variant)
    if spec is None:
        known = ", ".join(sorted(contract.variants)) or "none"
        print(
            f"repro-sast: error: unknown variant {args.variant!r} "
            f"(contract defines: {known})",
            file=sys.stderr,
        )
        return EXIT_ERROR

    project = _load_or_report(args)
    if project is None:
        return EXIT_ERROR
    findings = _collect_maybe_cached(project, args.cache)
    violations = verify_contract(
        findings, contract, project.root, contract_path=args.contract,
    )
    mode = f"variant {spec.name!r}, recorded verdicts"
    if args.oracle:
        oracle_kwargs: dict[str, object] = {}
        if args.seeds:
            oracle_kwargs["seeds"] = [
                s.strip() for s in args.seeds.split(",") if s.strip()
            ]
        if args.n is not None:
            oracle_kwargs["n"] = args.n
        try:
            report = run_oracle(
                project.root,
                package=project.package,
                sites=variant_module_sites(project.root, spec),
                workload=spec.workload(),
                **oracle_kwargs,  # type: ignore[arg-type]
            )
        except OracleError as exc:
            print(f"repro-sast: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        violations.extend(check_variant_dynamic(spec, report, project.root))
        executed = [r for r in report.sites.values() if r.hits > 0]
        confirmed = sum(1 for r in executed if r.status == "CONFIRMED")
        mode = (
            f"variant {spec.name!r}, {spec.dynamic_mode}: {len(executed)} lines "
            f"executed, {confirmed} key-dependent, "
            f"{len(executed) - confirmed} key-independent"
        )
    return _finish_verify(args, project, contract, findings, violations, mode)


def main(argv: list[str] | None = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        if argv and argv[0] == "verify":
            return _run_verify(argv[1:])
        return _run(argv)
    except BrokenPipeError:
        # stdout reader went away (e.g. `repro-sast ... | head`); exit
        # quietly instead of tracebacking, without claiming a clean run
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ERROR


def _run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_CLEAN

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return EXIT_CLEAN

    project = _load_or_report(args)
    if project is None:
        return EXIT_ERROR

    findings = _collect_maybe_cached(project, args.cache)

    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = wanted - set(RULES)
        if unknown:
            print(
                f"repro-sast: error: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        findings = [f for f in findings if f.rule in wanted]

    if args.format == "sarif":
        from repro.sast.sarif import render_sarif

        print(render_sarif(findings, project.root))
    elif args.format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings, verbose_chains=not args.no_chains))
    if findings:
        print(f"repro-sast: {len(findings)} finding{'s' if len(findings) != 1 else ''}",
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    raise SystemExit(main())
