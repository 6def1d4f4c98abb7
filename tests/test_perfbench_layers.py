"""The traced benchmark can wrap every layer it names.

``perfbench/layers.py`` wraps attributes it finds in each owner's own
``__dict__`` (``tracing.install`` reads ``owner.__dict__[attr]``), so a
method moved to a base class, or a module global renamed, breaks
``perfbench/run.py --trace 1`` at start-up.  Installing (and undoing)
every wrapper in a fresh interpreter catches that in the tier-1 suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import layers
import tracing

tracer = tracing.Tracer()
layers.install(tracer)
tracer.uninstall()
"""


def test_perfbench_layers_install_on_the_current_tree():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
