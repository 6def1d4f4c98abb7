"""Pluggable rendering engine: backend registry + vectorized backends.

Quick start::

    from repro.render import get_backend, use_backend

    result = get_backend("vectorized").render_pfs(projected)
    with use_backend("vectorized"):
        ...  # every render_reference / render_irss call in scope

See :mod:`repro.render.backends` for the registry contract and
:mod:`repro.render.vectorized` for the instance-batched engine.
"""

from repro.render.backends import (
    BACKEND_ENV_VAR,
    RasterizerBackend,
    default_backend,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.render.vectorized import (
    build_tile_batches,
    render_irss_vectorized,
    render_pfs_vectorized,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "RasterizerBackend",
    "build_tile_batches",
    "default_backend",
    "get_backend",
    "list_backends",
    "register_backend",
    "render_irss_vectorized",
    "render_pfs_vectorized",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
