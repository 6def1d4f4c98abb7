"""Shared fixtures: small deterministic scenes and rendered frames.

Module-scoped fixtures keep the suite fast: most tests inspect the
same small rendered frame rather than re-rendering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.irss import render_irss
from repro.gaussians import (
    Camera,
    GaussianCloud,
    build_render_lists,
    project,
    render_reference,
)


@pytest.fixture
def exact_renders(monkeypatch):
    """Scene names of the exact-pipeline frame renders made during the
    test, one entry per device render; content-cache and digest serves
    add none.  Counts calls, never times them."""
    from repro.stream.pipeline import FrameStream

    calls = []
    render = FrameStream._render

    def counting(self, *args, **kwargs):
        calls.append(self.spec.name)
        return render(self, *args, **kwargs)

    monkeypatch.setattr(FrameStream, "_render", counting)
    return calls


@pytest.fixture
def no_scene_builds(monkeypatch):
    """Fail the test if any scene bundle is built: a request that must
    be refused before it exists allocates nothing."""
    import repro.scenes.catalog
    import repro.stream.content_cache
    import repro.stream.pipeline

    def refuse(*args, **kwargs):
        raise AssertionError(f"build_scene{args} called")

    for module in (
        repro.scenes.catalog,
        repro.stream.pipeline,
        repro.stream.content_cache,
    ):
        monkeypatch.setattr(module, "build_scene", refuse)


@pytest.fixture
def dispatches(monkeypatch):
    """Session id -> how many tick payloads named the session during
    the test (a spy on in-process workers' ``render_tick``)."""
    from collections import Counter

    from repro.stream.server import _WorkerState

    counts = Counter()
    render_tick = _WorkerState.render_tick

    def counting(self, sessions):
        counts.update(s if isinstance(s, str) else s.session_id for s in sessions)
        return render_tick(self, sessions)

    monkeypatch.setattr(_WorkerState, "render_tick", counting)
    return counts


@pytest.fixture
def irss_chunks(monkeypatch):
    """``count(projected, lists=None, **kwargs)`` renders once through
    the vectorized IRSS engine at the current chunk budget and returns
    ``(tile_chunks, depth_chunks)``: the tile chunks it materialized and
    the depth chunks it scanned.  More depth chunks than tile chunks
    means some tile chunk really was split in depth.  Counts calls,
    never times them."""
    import repro.render.vectorized as vectorized

    def count(projected, lists=None, **kwargs):
        calls = {"tile": 0, "depth": 0}

        def counting(name, fn):
            def wrapped(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return wrapped

        batch = vectorized._TileBatch
        with monkeypatch.context() as patch:
            patch.setattr(
                batch, "padded_members", counting("tile", batch.padded_members)
            )
            patch.setattr(
                vectorized,
                "_chunk_transmittance",
                counting("depth", vectorized._chunk_transmittance),
            )
            vectorized.render_irss_vectorized(projected, lists, **kwargs)
        return calls["tile"], calls["depth"]

    return count


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_cloud():
    """A compact random cloud covering the whole frame."""
    rng = np.random.default_rng(42)
    return GaussianCloud.random(250, rng, extent=1.0, scale_range=(0.03, 0.12))


@pytest.fixture(scope="session")
def small_camera():
    return Camera.look_at(
        eye=[0.2, 0.4, -2.8], target=[0, 0, 0], width=96, height=80
    )


@pytest.fixture(scope="session")
def small_projected(small_cloud, small_camera):
    return project(small_cloud, small_camera)


@pytest.fixture(scope="session")
def small_lists(small_projected):
    return build_render_lists(small_projected)


@pytest.fixture(scope="session")
def reference_render(small_projected, small_lists):
    return render_reference(small_projected, small_lists)


@pytest.fixture(scope="session")
def irss_render(small_projected, small_lists):
    return render_irss(small_projected, small_lists)


@pytest.fixture(scope="session")
def tiny_projected():
    """A handful of Gaussians on a single-tile image (hand-inspectable)."""
    rng = np.random.default_rng(7)
    cloud = GaussianCloud.random(12, rng, extent=0.25, scale_range=(0.05, 0.2))
    camera = Camera.look_at(eye=[0, 0, -1.5], target=[0, 0, 0], width=16, height=16)
    return project(cloud, camera)
