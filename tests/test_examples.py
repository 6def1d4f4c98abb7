"""Every script under ``examples/`` runs to completion.

The examples exercise the public API end to end, so an API change
that breaks one fails here instead of going unnoticed.  Each runs in
a fresh interpreter with ``PYTHONPATH=src``, as its docstring says to
run it; none writes a file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
