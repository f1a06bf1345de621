"""Shared test plumbing: a human-readable acceptance-criteria report, and inputs
written by the benchmark's generators."""

from __future__ import annotations

import contextlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_LINES: list[tuple[int, str]] = []


@pytest.fixture
def acceptance():
    """Context manager recording one PASS/FAIL line per acceptance criterion.

    Usage::

        with acceptance(3, "oracle equivalence") as note:
            ...asserts...
            note["detail"] = "worst gap 9.6e-04 over 1000 tournaments"

    The body completing marks the criterion PASS; any exception marks it FAIL
    (and still fails the test). Lines are echoed immediately and repeated in a
    terminal-summary section so they survive output capture.
    """

    @contextlib.contextmanager
    def runner(number: int, title: str):
        note: dict[str, str] = {}
        try:
            yield note
        except BaseException:
            _record(number, f"criterion {number:2d} — {title}: FAIL")
            raise
        detail = note.get("detail", "")
        suffix = f" ({detail})" if detail else ""
        _record(number, f"criterion {number:2d} — {title}: PASS{suffix}")

    return runner


@pytest.fixture
def overflowing_network(tmp_path) -> Path:
    """A contrast table whose fit has ability intervals too wide to represent: the
    benchmark's network design at 200 treatments and only 400 contrasts (seed 7), where
    50 log-scale standard errors exceed 362, past which the exp(z * se) of a 0.95
    interval overflows."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.write_network(np.random.default_rng(7), tmp_path, 200, 400)["contrasts"]


def _record(number: int, line: str) -> None:
    _LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_LINES):
        terminalreporter.write_line(line)
