"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the package from src."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class Built(Exception):
    """Raised where a builder patched with trip starts: the size check let
    the case through."""


def trip(*args, **kwargs):
    """Stands in for a builder, so that no matrix or board gets built."""
    raise Built
