"""Docs gate: modules stay docstringed, docs reference live paths.

CI runs ``scripts/check_docs.py`` directly; this test runs the same
dependency-free checker inside the tier-1 suite so documentation rot
(an undocumented module, a renamed file leaving a dead link in
``docs/``, ``README.md`` or a ``src/`` docstring) fails fast offline
too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_docs_gate():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"documentation errors:\n{result.stdout}{result.stderr}"
    )


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dead_src_docstring_path_is_caught(tmp_path):
    """A ``src/`` docstring naming a missing test file fails the gate,
    with its line; live paths and pytest node ids pass."""
    (tmp_path / "mod.py").write_text(
        '"""Module.\n\nSee ``tests/test_docs.py::test_docs_gate``."""\n\n\n'
        "def f():\n"
        '    """Pinned by\n    ``tests/stream/test_no_such_file.py``."""\n'
    )
    assert _check_docs().check_docstring_paths(tmp_path) == [
        f"{tmp_path / 'mod.py'}:8: dead path 'tests/stream/test_no_such_file.py'"
    ]
