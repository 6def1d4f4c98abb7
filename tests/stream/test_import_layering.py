"""The serving stack imports without the paper-analysis layer or scipy.

``setup.py`` declares only numpy, so ``repro.stream`` must not reach
``repro.analysis`` or ``repro.metrics`` (which loads ``scipy.signal``).
The check runs in a fresh interpreter with scipy blocked by a
meta-path finder, so modules this test process already imported
cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import repro.stream
import repro.stream.gateway

print(sorted(
    name for name in sys.modules
    if name.startswith(("repro.analysis", "repro.metrics"))
))
"""


def test_serving_stack_imports_without_scipy_or_analysis():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
