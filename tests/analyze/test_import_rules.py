"""Unit tests for the import/definition hygiene rules (IMP001/IMP002)."""

import pytest

from rule_fixtures import sim

pytestmark = pytest.mark.analyze


# ---------------------------------------------------------------------------
# IMP001 — unused import (F401)
# ---------------------------------------------------------------------------
def test_unused_import_flagged(run_rule):
    findings = run_rule(
        "IMP001",
        sim(
            '"""m."""\n'
            "import json\n"
            "import os\n"
            "print(os.sep)\n"
        ),
    )
    assert [f.line for f in findings] == [2]
    assert "'json'" in findings[0].message


def test_future_and_all_exports_exempt(run_rule):
    assert not run_rule(
        "IMP001",
        sim(
            '"""m."""\n'
            "from __future__ import annotations\n"
            "from json import dumps\n"
            "__all__ = ['dumps']\n"
        ),
    )


def test_hygiene_rules_scan_outside_sim_scope(run_rule):
    # Unlike the invariant families, IMP rules cover tests/scripts too.
    findings = run_rule(
        "IMP001", {"tests/test_x.py": '"""m."""\nimport sys\n'}
    )
    assert len(findings) == 1


def test_aliased_import_reports_display_name(run_rule):
    findings = run_rule(
        "IMP001", sim('"""m."""\nimport numpy as np\n')
    )
    assert len(findings) == 1
    assert "'numpy'" in findings[0].message


# ---------------------------------------------------------------------------
# IMP002 — mutable default argument (B006)
# ---------------------------------------------------------------------------
def test_mutable_defaults_flagged(run_rule):
    findings = run_rule(
        "IMP002",
        sim(
            '"""m."""\n'
            "def f(xs=[]):\n"
            "    return xs\n"
            "def g(*, opts={}):\n"
            "    return opts\n"
            "def h(pool=set()):\n"
            "    return pool\n"
        ),
    )
    assert sorted(f.line for f in findings) == [2, 4, 6]
    assert all("mutable default" in f.message for f in findings)


def test_immutable_defaults_ok(run_rule):
    assert not run_rule(
        "IMP002",
        sim(
            '"""m."""\n'
            "def f(x=0, name='a', pair=(1, 2), flag=None):\n"
            "    return x, name, pair, flag\n"
        ),
    )


def test_mutable_call_default_flagged(run_rule):
    findings = run_rule(
        "IMP002",
        sim('"""m."""\ndef f(xs=list()):\n    return xs\n'),
    )
    assert len(findings) == 1
