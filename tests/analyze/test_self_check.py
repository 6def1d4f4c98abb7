"""Self-check: the live tree passes its own static-analysis gate.

This is the test that makes the gate bite in CI even when the
dedicated ``analyze`` job is skipped: any commit that introduces an
unseeded RNG, an un-checkpointed field, or a shared-object mutation
into ``repro.*`` — or an unused import anywhere — fails the plain
pytest run.
"""

from pathlib import Path

import pytest

from repro.analyze import Baseline, run_analysis
from repro.analyze.baseline import BASELINE_FILENAME

pytestmark = pytest.mark.analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def live_report():
    """One analysis of the live tree, shared by every self-check."""
    baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
    return run_analysis(root=REPO_ROOT, baseline=baseline), baseline


def test_live_tree_is_clean(live_report):
    report, _ = live_report
    assert report.ok, "new findings on the live tree:\n" + "\n".join(
        f"  {f.location()} {f.rule_id} {f.message}" for f in report.new
    )


def test_baseline_has_no_stale_entries(live_report):
    report, _ = live_report
    assert not report.stale_entries, (
        "baseline entries matching nothing (fix landed — delete them): "
        + ", ".join(f"{e.rule}@{e.path}" for e in report.stale_entries)
    )


def test_shipped_baseline_is_empty(live_report):
    """ISSUE 8 acceptance: the tree is clean, so the committed baseline
    carries zero entries — any future entry must arrive with a
    justification and survive review."""
    _, baseline = live_report
    assert baseline.entries == []
