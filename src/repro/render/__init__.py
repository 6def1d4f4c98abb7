"""Rendering engines: the backend table and the vectorized backends.

Quick start::

    from repro.render import get_backend

    result = get_backend("vectorized").render_pfs(projected)

Every render entry point (``render_reference``, ``render_irss``,
``GBUConfig``, ``evaluate_scene``, ``streaming_config``) takes
``backend=``, defaulting to ``"vectorized"``.  See
:mod:`repro.render.backends` for the table and
:mod:`repro.render.vectorized` for the instance-batched engine.
"""

from repro.render.backends import BACKENDS, RasterizerBackend, get_backend
from repro.render.vectorized import (
    build_tile_batches,
    render_irss_vectorized,
    render_pfs_vectorized,
)

__all__ = [
    "BACKENDS",
    "RasterizerBackend",
    "build_tile_batches",
    "get_backend",
    "render_irss_vectorized",
    "render_pfs_vectorized",
]
