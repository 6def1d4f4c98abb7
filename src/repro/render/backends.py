"""The two rasterizer backends and their lookup by name.

Every rasterizer in the repository comes in two implementations with
identical observable behavior:

* ``reference`` — the scalar per-(tile, Gaussian) loops of
  :mod:`repro.gaussians.rasterizer` (PFS) and :mod:`repro.core.irss`
  (IRSS).  These are the numerical ground truth and the easiest code
  to audit against the paper; the parity tests use them as the oracle.
* ``vectorized`` — the instance-batched engine of
  :mod:`repro.render.vectorized`: PFS in depth-slab bricks over flat
  (tile, Gaussian) instance arrays, IRSS blending only the fragments
  enumerated from each row's ``[c0, c1]`` segment.  It is pixel-exact
  against the reference (bit-identical images and workload counters;
  property-tested) and typically an order of magnitude faster.

Every render entry point takes ``backend: str = DEFAULT_BACKEND``
(``"vectorized"``, defined in :mod:`repro.config`); pass
``backend="reference"`` to run the scalar loops instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.irss import render_irss_loop
from repro.errors import ValidationError
from repro.gaussians.rasterizer import render_reference_loop
from repro.render.vectorized import render_irss_vectorized, render_pfs_vectorized


@dataclass(frozen=True)
class RasterizerBackend:
    """One rendering engine: a PFS and an IRSS implementation.

    Attributes
    ----------
    render_pfs:
        Callable with the :func:`repro.gaussians.rasterizer.render_reference`
        signature ``(projected, lists=None, settings=...)`` returning a
        :class:`~repro.gaussians.rasterizer.RenderResult`.
    render_irss:
        Callable with the :func:`repro.core.irss.render_irss` signature
        ``(projected, lists=None, settings=..., transform=None,
        fp16=False)`` returning an
        :class:`~repro.core.irss.IRSSRenderResult`.
    """

    render_pfs: Callable[..., object]
    render_irss: Callable[..., object]


#: Every backend, by name.
BACKENDS: dict[str, RasterizerBackend] = {
    "reference": RasterizerBackend(render_reference_loop, render_irss_loop),
    "vectorized": RasterizerBackend(render_pfs_vectorized, render_irss_vectorized),
}


def get_backend(name: str) -> RasterizerBackend:
    """Look up a backend by name."""
    if name not in BACKENDS:
        raise ValidationError(
            f"unknown render backend '{name}'; known: {sorted(BACKENDS)}"
        )
    return BACKENDS[name]
