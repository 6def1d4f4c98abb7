"""Unit tests for the import/definition hygiene rules (IMP001-IMP003)."""

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


# ---------------------------------------------------------------------------
# IMP003 — undefined name (F821)
# ---------------------------------------------------------------------------
def test_undefined_name_in_function_flagged(run_rule):
    findings = run_rule(
        "IMP003",
        sim(
            '"""m."""\n'
            "def render(lists):\n"
            "    n = len(lists)\n"
            "    return n + len(trace_lists)\n"
        ),
    )
    assert [(f.line, f.message) for f in findings] == [
        (4, "undefined name 'trace_lists' in render()")
    ]


def test_undefined_name_at_module_level_and_in_lambda(run_rule):
    findings = run_rule(
        "IMP003",
        sim('"""m."""\nx = missing\nf = lambda q: q + other\n'),
    )
    assert sorted((f.line, f.message) for f in findings) == [
        (2, "undefined name 'missing' at module level"),
        (3, "undefined name 'other' in lambda()"),
    ]


def test_bound_names_not_flagged(run_rule):
    assert not run_rule(
        "IMP003",
        sim(
            '"""m."""\n'
            "from __future__ import annotations\n"
            "import os\n"
            "def f(a: Unimported):\n"
            "    global counter\n"
            "    counter = 1\n"
            "    squares = [i * i for i in range(a)]\n"
            "    total = sum(v for v in squares)\n"
            "    return len(__file__), later(), os.sep, counter, total\n"
            "class C:\n"
            "    attr = 1\n"
            "    other = attr + 1\n"
            "    def m(self):\n"
            "        return __class__, self.attr\n"
            "def later():\n"
            "    return {k: v for k, v in ((1, 2),)}\n"
        ),
    )


def test_class_body_names_are_not_method_globals(run_rule):
    # A class attribute is not in scope inside its methods.
    findings = run_rule(
        "IMP003",
        sim(
            '"""m."""\n'
            "class C:\n"
            "    attr = 1\n"
            "    def m(self):\n"
            "        return attr\n"
        ),
    )
    assert [(f.line, f.message) for f in findings] == [
        (5, "undefined name 'attr' in m()")
    ]


def test_star_import_module_skipped(run_rule):
    assert not run_rule(
        "IMP003", sim('"""m."""\nfrom os import *\nprint(sep)\n')
    )


def test_module_the_compiler_rejects_skipped(run_rule):
    # Parses, but symtable raises: global declared after assignment.
    assert not run_rule(
        "IMP003",
        sim('"""m."""\ndef f():\n    x = 1\n    global x\n    return y\n'),
    )
