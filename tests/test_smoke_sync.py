"""Guard-list sync: ``repro.harness.smoke._MARKERS`` is the source of
truth for the tier-1 smoke guards; this test keeps
``scripts/check_all_smoke.sh`` and the pyproject marker declarations
from drifting away from it (a guard added in one place but not the
others silently stops running).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.harness.smoke import _MARKERS, marker_expression

REPO = Path(__file__).resolve().parent.parent


def script_guards() -> dict[str, str]:
    """name -> marker for every ``run_pytest_guard`` call in
    scripts/check_all_smoke.sh."""
    text = (REPO / "scripts" / "check_all_smoke.sh").read_text()
    return dict(re.findall(
        r'^run_pytest_guard\s+(\S+)\s+(\S+)', text, flags=re.MULTILINE))


def pyproject_markers() -> set[str]:
    text = (REPO / "pyproject.toml").read_text()
    return set(re.findall(r'^\s*"(\w+_smoke):', text, flags=re.MULTILINE))


def test_shell_guard_list_matches_markers():
    assert script_guards() == _MARKERS


def test_pyproject_declares_exactly_the_smoke_markers():
    assert pyproject_markers() == set(_MARKERS.values())


def test_marker_expression_covers_all_guards():
    expression = marker_expression()
    for marker in _MARKERS.values():
        assert marker in expression
    assert marker_expression(only="perf") == "perf_smoke"


def test_racecheck_guard_script_exists_and_is_executable():
    script = REPO / "scripts" / "check_racecheck_smoke.sh"
    assert script.exists()
    assert script.stat().st_mode & 0o111, "guard script not executable"
    text = script.read_text()
    assert "repro.verify.concurrency.cli" in text
    assert "racecheck_smoke" in text


def test_ci_runs_the_racecheck_job():
    """The dynamic detector only exists in CI through this job; a
    deleted or renamed job silently turns the lockset prong off."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "racecheck:" in ci
    assert 'REPRO_RACECHECK: "1"' in ci
    assert "repro-racecheck --replay RACECHECK_REPORT.json" in ci
    assert "check_racecheck_smoke.sh" in ci


def test_every_guard_selects_at_least_one_test():
    """A marker that matches nothing is a guard that silently passes."""
    import pytest

    class MarkerCounter:
        """Counts collected items per smoke marker, the way ``-m``
        matches them (``item.iter_markers()``), in one collection."""

        def __init__(self):
            self.counts = dict.fromkeys(_MARKERS.values(), 0)

        def pytest_collection_finish(self, session):
            for item in session.items:
                for name in {mark.name for mark in item.iter_markers()}:
                    if name in self.counts:
                        self.counts[name] += 1

    counter = MarkerCounter()
    code = pytest.main(
        ["--collect-only", "-q", "--no-header", "-p", "no:cacheprovider",
         str(REPO / "tests")],
        plugins=[counter])
    assert code == 0, "collection of tests/ failed"
    for marker, count in counter.counts.items():
        assert count > 0, f"marker {marker} selects no tests under tests/"
