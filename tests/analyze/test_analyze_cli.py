"""End-to-end tests for the ``scripts/analyze.py`` CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
ANALYZE = REPO_ROOT / "scripts" / "analyze.py"


def _run(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def clean_tree(tmp_path):
    """A small tree with nothing to report: a sim module and its test.
    The live tree's own scan is ``test_self_check.py``'s (and CI's
    ``analyze`` job's)."""
    module = tmp_path / "src" / "repro" / "clean.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        '"""Seeded, import-clean fixture module."""\n'
        "import numpy as np\n\n\n"
        "def draw(seed: int) -> float:\n"
        "    return float(np.random.default_rng(seed).random())\n"
    )
    test = tmp_path / "tests" / "test_clean.py"
    test.parent.mkdir()
    test.write_text(
        '"""Fixture test."""\n'
        "from repro.clean import draw\n\n\n"
        "def test_draw():\n"
        "    assert draw(0) == draw(0)\n"
    )
    return [str(module.parent.parent), str(test.parent)]


def test_cli_clean_tree_exits_zero(clean_tree):
    proc = _run(*clean_tree)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "analyze OK" in proc.stdout


def test_cli_json_output_shape(clean_tree):
    proc = _run(*clean_tree, "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert data["counts"]["new"] == 0
    assert {"DET101", "CKPT201", "RACE301", "IMP001"} <= set(data["rules"])


def test_cli_list_rules():
    proc = _run("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("DET101", "DET102", "DET103", "CKPT201", "CKPT202",
                    "RACE301", "IMP001", "IMP002", "IMP003"):
        assert rule_id in proc.stdout


def test_cli_new_finding_fails_gate(tmp_path):
    # The three ISSUE acceptance fixtures all fail through the real CLI.
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        '"""Deliberately broken fixture."""\n'
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
    )
    proc = _run(str(bad), "--rules", "DET101")
    assert proc.returncode == 1
    assert "analyze FAILED" in proc.stderr
    assert "DET101" in proc.stdout


def test_cli_rules_filter_limits_scope(tmp_path):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text('"""m."""\nimport numpy as np\nrng = np.random.default_rng()\n')
    # IMP001 alone does not see the determinism violation (np is used).
    proc = _run(str(bad), "--rules", "IMP001")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_update_baseline_writes_todo_entries(tmp_path):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text('"""m."""\nimport random\nx = random.random()\n')
    baseline_path = tmp_path / "baseline.json"
    proc = _run(
        str(bad),
        "--rules",
        "DET101",
        "--baseline",
        str(baseline_path),
        "--update-baseline",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(baseline_path.read_text())
    assert len(data["entries"]) == 1
    entry = data["entries"][0]
    assert entry["rule"] == "DET101"
    assert "TODO" in entry["justification"]
    # With the updated baseline the same scan now passes...
    again = _run(
        str(bad), "--rules", "DET101", "--baseline", str(baseline_path)
    )
    assert again.returncode == 0
    assert "baselined" in again.stdout
