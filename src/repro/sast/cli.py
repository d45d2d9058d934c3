"""``repro-sast`` command-line entry point.

Exit codes (stable contract, see ``docs/static-analysis.md``):

* ``0`` — analysis ran and produced no unsuppressed findings;
* ``1`` — at least one finding (or contract violation under ``verify``);
* ``2`` — usage or internal error (bad flags, unreadable root,
  malformed contract).

Typical invocations::

    repro-sast verify src/repro --contract leakage-contract.json
    repro-sast path/to/pkg --format json        # machine-readable report
    repro-sast rank --top 10                    # exploitability triage
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


def _collect_maybe_cached(
    project: Project,
    cache_path: str | None,
    contract_path: str | None = None,
) -> list[Finding]:
    """All findings, through the incremental cache when one is configured.

    The cache key covers the contract digest as well as source content,
    so editing the contract (re-triage, fresh oracle stats) invalidates
    replayed results. Modes without an explicit ``--contract`` flag fall
    back to the default contract path when the file exists, keeping the
    analyze/verify/rank modes on a single shared cache entry.
    """
    if cache_path is None:
        return collect_findings(project)
    from repro.sast.cache import contract_digest, run_with_cache

    if contract_path is None and os.path.exists(_DEFAULT_CONTRACT):
        contract_path = _DEFAULT_CONTRACT
    digest = contract_digest(contract_path) if contract_path else ""
    findings, stats = run_with_cache(project, cache_path, contract_digest=digest)
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

    try:
        project = load_project(args.root, package=args.package)
    except (FileNotFoundError, NotADirectoryError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    findings = _collect_maybe_cached(project, args.cache, args.contract)

    if args.variant is not None:
        if args.write_contract:
            print("repro-sast: error: --variant cannot be combined with "
                  "--write-contract", file=sys.stderr)
            return EXIT_ERROR
        return _run_variant(args, project, findings)

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
        contract = build_contract(
            findings, project.root, report, previous, project=project
        )
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


def _run_variant(args, project, findings) -> int:
    """``verify --variant NAME``: one countermeasure's claims, end to end.

    Static CT007 checks already run inside every ``verify_contract``
    call; this mode additionally replays the variant's own workload
    under the oracle (``--oracle``) with *every* line of the variant
    module watched, enforcing the contract's recorded dynamic claims.
    """
    from repro.sast.contract import load_contract, verify_contract
    from repro.sast.oracle import OracleError, run_oracle
    from repro.sast.variants import check_variant_dynamic, variant_module_sites

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


def _build_rank_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sast rank",
        description="Exploitability triage: score every contract entry by "
        "secret source, operand range, hypothesis computability and the "
        "recorded oracle statistics, most attackable first.",
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
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="only show the N highest-ranked entries",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="also report the dataflow-vs-heuristic leak_class "
        "disagreements CT006 tolerates for heuristic-sourced entries",
    )
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="incremental summary cache file (see the analyze mode)",
    )
    return parser


def _explain_rows(contract, findings, project) -> list[dict[str, object]]:
    """Heuristic-sourced entries: recorded vs keyword vs dataflow class.

    These are exactly the classifications CT006 cannot cross-check
    against the component lattice — the dataflow pass produced no
    component for them, so the recorded class rests on the keyword
    fallback (or a manual review that overrode it).
    """
    from repro.sast.contract import assign_occurrences, fingerprint, infer_leak_class

    by_fp = {
        fingerprint(f, project.root): f
        for f in assign_occurrences(list(findings))
    }
    rows: list[dict[str, object]] = []
    for entry in contract.entries + contract.refuted:
        if not entry.rule.startswith("SF"):
            continue
        if entry.leak_class_source != "heuristic":
            continue
        finding = by_fp.get(entry.fingerprint)
        keyword = infer_leak_class(
            entry.rule, entry.path, entry.function, entry.line_text
        )
        rows.append({
            "entry": entry.describe(),
            "recorded": entry.leak_class,
            "keyword": keyword,
            "dataflow": (finding.leak_class or None) if finding else None,
            "agrees": entry.leak_class == keyword,
        })
    return rows


def _run_rank(argv: list[str]) -> int:
    from dataclasses import replace

    from repro.sast.contract import load_contract
    from repro.sast.exploit import rank_entries, score_contract

    parser = _build_rank_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_CLEAN

    try:
        project = load_project(args.root, package=args.package)
    except (FileNotFoundError, NotADirectoryError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        contract = load_contract(args.contract)
    except FileNotFoundError:
        print(f"repro-sast: error: contract not found: {args.contract}",
              file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    findings = _collect_maybe_cached(project, args.cache, args.contract)
    # re-derive every block from static facts + the recorded oracle
    # statistics: the rank never silently trusts a stale score
    blocks = score_contract(contract.entries, findings, project)
    contract.entries = [
        replace(e, exploitability=blocks.get(e.fingerprint, e.exploitability))
        for e in contract.entries
    ]
    ranked = rank_entries(contract)
    shown = ranked if args.top is None else ranked[: max(args.top, 0)]

    if args.format == "json":
        import json as _json

        doc: dict[str, object] = {
            "contract": args.contract,
            "ranked": [
                {
                    "rank": i + 1,
                    "rule": e.rule,
                    "path": e.path,
                    "function": e.function,
                    "line_text": e.line_text,
                    "occurrence": e.occurrence,
                    "leak_class": e.leak_class,
                    "leak_class_source": e.leak_class_source,
                    "exploitability": e.exploitability.to_jsonable(),
                }
                for i, e in enumerate(shown)
                if e.exploitability is not None
            ],
        }
        if args.explain:
            doc["heuristic_disagreements"] = _explain_rows(
                contract, findings, project
            )
        print(_json.dumps(doc, indent=1, sort_keys=True))
        return EXIT_CLEAN

    print(f"{'#':>3} {'score':>7} {'id':12} {'class':12} "
          f"{'comp':4} {'bits':>6} {'snr':>10}  where")
    for i, e in enumerate(shown):
        x = e.exploitability
        assert x is not None
        bits = f"{x.guess_space_bits:.2f}" if x.guess_space_bits is not None else "-"
        print(
            f"{i + 1:>3} {x.score:>7.4f} {x.entry_id:12} {e.leak_class:12} "
            f"{'yes' if x.hypothesis_computable else 'no':4} {bits:>6} "
            f"{x.oracle.snr_proxy:>10.3g}  {e.rule} {e.path}::{e.function}"
        )
        print(f"{'':25}'{e.line_text}'")
    print(
        f"repro-sast: ranked {len(ranked)} CONFIRMED entr"
        f"{'y' if len(ranked) == 1 else 'ies'}"
        + (f" (showing {len(shown)})" if len(shown) != len(ranked) else ""),
        file=sys.stderr,
    )

    if args.explain:
        rows = _explain_rows(contract, findings, project)
        disagreeing = [r for r in rows if not r["agrees"]]
        print()
        print(
            f"heuristic-sourced leak classes (CT006 cannot lattice-check "
            f"these): {len(rows)} entries, {len(disagreeing)} where the "
            f"recorded class overrides the keyword fallback"
        )
        for r in rows:
            mark = "  " if r["agrees"] else "! "
            dataflow = r["dataflow"] or "none"
            print(
                f"{mark}recorded={r['recorded']} keyword={r['keyword']} "
                f"dataflow={dataflow}  {r['entry']}"
            )
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        if argv and argv[0] == "verify":
            return _run_verify(argv[1:])
        if argv and argv[0] == "rank":
            return _run_rank(argv[1:])
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

    try:
        project = load_project(args.root, package=args.package)
    except (FileNotFoundError, NotADirectoryError, OSError) as exc:
        print(f"repro-sast: error: {exc}", file=sys.stderr)
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
