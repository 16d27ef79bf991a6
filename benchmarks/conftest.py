"""Shared fixture for the benchmark suite: ``emit`` prints the line a
bench reports past pytest's capture, so a run's stdout records it."""

from __future__ import annotations

import pytest


@pytest.fixture
def emit(capsys):
    """Print to the real stdout (past pytest's capture)."""
    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _emit
