"""The serving stack and the metrics import without scipy.

``setup.py`` declares only numpy, so no module may need scipy, and
``repro.stream`` (its CLI included) must not reach ``repro.analysis``
or ``repro.metrics``.  The check runs in a fresh interpreter with
scipy blocked by a meta-path finder, so modules this test process
already imported cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import importlib
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
for module in sys.argv[1:]:
    importlib.import_module(module)

print(sorted(
    name for name in sys.modules
    if name.startswith(("repro.analysis", "repro.metrics"))
))
"""


def _probe(*modules: str) -> str:
    """Import ``modules`` with scipy blocked; the analysis/metrics
    modules that got loaded, as printed by the probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *modules],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_serving_stack_imports_without_scipy_or_analysis():
    loaded = _probe("repro.stream", "repro.stream.gateway", "repro.stream.cli")
    assert loaded == "[]"


def test_metrics_import_without_scipy():
    assert "'repro.metrics.image'" in _probe("repro.metrics")
