"""The traced benchmark can wrap every layer it names.

``perfbench/layers.py`` wraps attributes it finds in each owner's own
``__dict__`` (``tracing.install`` reads ``owner.__dict__[attr]``), so a
method moved to a base class, or a module global renamed, breaks
``perfbench/run.py --trace 1`` at start-up.  Installing (and undoing)
every wrapper in a fresh interpreter catches that in the tier-1 suite.

A wrapper can also install and still never fire: ``layers.py`` wraps
module globals such as ``repro.core.gbu.render_irss``, and a caller
that stops going through that global leaves its span silently empty.
So the probe serves one tiny exact session under the wrappers and
checks that every render-stack and server span was entered.  The
session is extracted and injected back after its first frame: that is
when an in-process server captures a checkpoint.
"""

import json

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json

import layers
import tracing
from repro.scenes.catalog import CATALOG
from repro.stream import CameraTrajectory, StreamServer, StreamSession

tracer = tracing.Tracer()
layers.install(tracer)
tracer.enabled = True
trajectory = CameraTrajectory.for_scene(
    CATALOG["nerf_lego"], "orbit", n_frames=2, detail=0.25
)
with StreamServer(workers=0) as server:
    server.begin([StreamSession("probe", "nerf_lego", trajectory, detail=0.25)])
    server.step()
    # An in-process worker cuts a checkpoint only when one is asked for.
    server.inject_session(*server.extract_session("probe"))
    while server.n_active:
        server.step()
    server.finish()
tracer.uninstall()
print(json.dumps({name: calls for name, (_, _, calls) in tracer.totals().items()}))
"""

#: Spans one exact session must enter; ``core.irss.blend`` wraps the
#: ``render_irss`` global that ``GBUDevice.render`` calls.
SERVED_SPANS = (
    "gaussians.projection.project",
    "stream.binning.build",
    "core.irss.blend",
    "core.tile_engine.model",
    "core.reuse_cache.observe",
    "core.gbu.render",
    "stream.pipeline.frame",
    "stream.checkpoint.capture",
    "stream.server.step",
)


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
    calls = json.loads(done.stdout.splitlines()[-1])
    silent = [span for span in SERVED_SPANS if calls.get(span, 0) < 1]
    assert not silent, f"spans never entered while serving: {silent}"
