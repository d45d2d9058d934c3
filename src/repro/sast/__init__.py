"""Static analysis for the FALCON side-channel reproduction.

``repro.sast`` is a zero-dependency (stdlib ``ast`` + ``tokenize``)
analyzer with three passes over the package source:

* secret-flow taint (:mod:`repro.sast.taint`, rules SF001-SF006);
* determinism lint (:mod:`repro.sast.determinism`, DT001-DT003);
* concurrency/durability lint (:mod:`repro.sast.concurrency`,
  CC001-CC002).

It never imports the code it analyzes — everything is parsed — so it
runs identically over ``src/repro`` and over test fixture trees. See
``docs/static-analysis.md`` for the rule catalog, the ``# sast:``
annotation grammar, and the leakage-contract workflow.
"""

from repro.sast.cli import collect_findings, main
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

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "RULES",
    "Finding",
    "Project",
    "collect_findings",
    "load_project",
    "main",
    "render_json",
    "render_text",
    "sort_findings",
]
