"""Pluggable rasterizer backend registry.

Every rasterizer in the repository comes in (at least) two
implementations with identical observable behavior:

* ``reference`` — the scalar per-(tile, Gaussian) loops of
  :mod:`repro.gaussians.rasterizer` (PFS) and :mod:`repro.core.irss`
  (IRSS).  These are the numerical ground truth and the easiest code
  to audit against the paper.
* ``vectorized`` — the instance-batched engine of
  :mod:`repro.render.vectorized`: PFS in depth-slab bricks over flat
  (tile, Gaussian) instance arrays, IRSS blending only the fragments
  enumerated from each row's ``[c0, c1]`` segment.  It is pixel-exact
  against the reference (bit-identical images and workload counters;
  property-tested) and typically an order of magnitude faster.

Selection is threaded through every render entry point as a
``backend=`` keyword; ``backend=None`` resolves to the process-wide
default, which is ``reference`` unless overridden by
``set_default_backend`` or the ``REPRO_RENDER_BACKEND`` environment
variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ValidationError

#: Environment variable consulted for the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_RENDER_BACKEND"


@dataclass(frozen=True)
class RasterizerBackend:
    """One rendering engine: a PFS and an IRSS implementation.

    Attributes
    ----------
    name:
        Registry key ("reference", "vectorized", ...).
    render_pfs:
        Callable with the :func:`repro.gaussians.rasterizer.render_reference`
        signature ``(projected, lists=None, settings=...)`` returning a
        :class:`~repro.gaussians.rasterizer.RenderResult`.
    render_irss:
        Callable with the :func:`repro.core.irss.render_irss` signature
        ``(projected, lists=None, settings=..., transform=None,
        fp16=False)`` returning an
        :class:`~repro.core.irss.IRSSRenderResult`.
    description:
        One-line summary shown by :func:`list_backends`.
    """

    name: str
    render_pfs: Callable[..., object]
    render_irss: Callable[..., object]
    description: str = ""


_REGISTRY: dict[str, RasterizerBackend] = {}
_default_override: str | None = None


def register_backend(backend: RasterizerBackend) -> RasterizerBackend:
    """Add (or replace) a backend in the registry."""
    if not backend.name:
        raise ValidationError("backend name must be non-empty")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> RasterizerBackend:
    """Look up a backend by name."""
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown render backend '{name}'; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_backends() -> dict[str, str]:
    """Mapping of registered backend names to their descriptions."""
    return {name: b.description for name, b in sorted(_REGISTRY.items())}


def default_backend() -> str:
    """The backend used when callers pass ``backend=None``."""
    if _default_override is not None:
        return _default_override
    return os.environ.get(BACKEND_ENV_VAR, "reference")


def set_default_backend(name: str | None) -> str | None:
    """Override the process-wide default backend.

    ``None`` clears the override (falling back to the environment
    variable / "reference").  Returns the previous override so callers
    can restore it.
    """
    global _default_override
    if name is not None:
        get_backend(name)  # validate eagerly
    previous = _default_override
    _default_override = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[RasterizerBackend]:
    """Context manager scoping a default-backend override."""
    previous = set_default_backend(name)
    try:
        yield get_backend(name)
    finally:
        set_default_backend(previous)


def resolve_backend(name: str | None) -> RasterizerBackend:
    """Resolve an explicit name or the configured default."""
    return get_backend(name if name is not None else default_backend())


def _register_builtin_backends() -> None:
    # Imported here (not at module top) so the registry module stays
    # importable from inside rasterizer/irss without a cycle.
    from repro.core.irss import render_irss_loop
    from repro.gaussians.rasterizer import render_reference_loop
    from repro.render.vectorized import (
        render_irss_vectorized,
        render_pfs_vectorized,
    )

    register_backend(
        RasterizerBackend(
            name="reference",
            render_pfs=render_reference_loop,
            render_irss=render_irss_loop,
            description="scalar per-(tile, Gaussian) loops (numerical ground truth)",
        )
    )
    register_backend(
        RasterizerBackend(
            name="vectorized",
            render_pfs=render_pfs_vectorized,
            render_irss=render_irss_vectorized,
            description=(
                "instance-batched engine: PFS depth slabs, IRSS row segments "
                "(pixel-exact, fast)"
            ),
        )
    )


_register_builtin_backends()
