"""Shared name-lookup plumbing for the pluggable registries.

The repo has two user-facing registries resolved by name — leakage
surfaces (:mod:`repro.targets`) and distinguishers
(:mod:`repro.attack.distinguisher`) — each reachable from a CLI flag.
They share one failure mode: a typo'd name. :func:`resolve_name` gives
them one error message shape (the sorted list of registered names), so
``--target`` and ``--distinguisher`` fail the same helpful way and the
message is tested once.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

__all__ = ["unknown_name_error", "resolve_name"]

T = TypeVar("T")


def unknown_name_error(kind: str, name: object, registered: Mapping[str, T]) -> ValueError:
    """The uniform lookup-failure error: kind, offender, sorted choices."""
    choices = ", ".join(repr(k) for k in sorted(registered))
    return ValueError(f"unknown {kind} {name!r}; registered {kind}s: {choices}")


def resolve_name(kind: str, name: str, registered: Mapping[str, T]) -> T:
    """Look ``name`` up in ``registered`` or raise the uniform error."""
    try:
        return registered[name]
    except KeyError:
        raise unknown_name_error(kind, name, registered) from None
