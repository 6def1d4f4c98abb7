"""Pluggable rendering engine: backend registry + vectorized backends.

Quick start::

    from repro.render import get_backend, use_backend

    result = get_backend("vectorized").render_pfs(projected)
    with use_backend("vectorized"):
        ...  # every render_reference / render_irss call in scope

See :mod:`repro.render.backends` for the registry contract,
:mod:`repro.render.vectorized` for the instance-batched engine,
:mod:`repro.render.approx` for the measured-quality approximate mode,
and :mod:`repro.render.sharding` for intra-frame tile sharding.
"""

from repro.render.approx import (
    APPROX_TOLERANCE_ENV_VAR,
    DEFAULT_TOLERANCE,
    ApproxPolicy,
    CullStats,
    cull_render_lists,
    default_policy,
    render_irss_approx,
    render_pfs_approx,
    set_approx_policy,
    tolerance_for_rung,
    use_approx_policy,
)
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
from repro.render.sharding import (
    ShardedRenderer,
    render_irss_sharded,
    render_pfs_sharded,
    shard_tile_ranges,
)
from repro.render.vectorized import (
    build_tile_batches,
    render_irss_vectorized,
    render_pfs_vectorized,
)

__all__ = [
    "APPROX_TOLERANCE_ENV_VAR",
    "ApproxPolicy",
    "BACKEND_ENV_VAR",
    "CullStats",
    "DEFAULT_TOLERANCE",
    "RasterizerBackend",
    "ShardedRenderer",
    "build_tile_batches",
    "cull_render_lists",
    "default_backend",
    "default_policy",
    "get_backend",
    "list_backends",
    "register_backend",
    "render_irss_approx",
    "render_irss_sharded",
    "render_irss_vectorized",
    "render_pfs_approx",
    "render_pfs_sharded",
    "render_pfs_vectorized",
    "resolve_backend",
    "set_approx_policy",
    "set_default_backend",
    "shard_tile_ranges",
    "tolerance_for_rung",
    "use_approx_policy",
    "use_backend",
]
