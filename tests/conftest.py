"""Shared fixtures."""

from __future__ import annotations

import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO_SRC = os.path.join(REPO_ROOT, "src", "repro")


@pytest.fixture(scope="session")
def repo_sast_cache(tmp_path_factory) -> str:
    """A ``--cache`` file warmed once over ``src/repro``.

    The whole-tree sast tests pass it to ``repro-sast verify --cache`` or
    :func:`repro.sast.cache.run_with_cache`, so the tree is analyzed once
    per session and every later run takes the full-tree fast path.
    """
    from repro.sast.cache import run_with_cache
    from repro.sast.project import load_project

    path = str(tmp_path_factory.mktemp("sast-cache") / "cache.json")
    run_with_cache(load_project(REPRO_SRC, package="repro"), path)
    return path
