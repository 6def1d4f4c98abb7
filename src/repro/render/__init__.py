"""The rendering engine: instance-batched PFS and IRSS.

Quick start::

    from repro.render import render_pfs_vectorized

    result = render_pfs_vectorized(projected)

This is the one engine every render runs on: ``render_reference``,
``render_irss``, ``GBUDevice``, ``evaluate_scene`` and the stream
pipelines all call it.  The scalar loops ``render_reference_loop``,
``render_irss_loop`` and ``render_irss_sequential`` stay only as test
oracles, bit-identical to it.  See :mod:`repro.render.vectorized`.
"""

from repro.render.vectorized import (
    build_tile_batches,
    render_irss_vectorized,
    render_pfs_vectorized,
)

__all__ = [
    "build_tile_batches",
    "render_irss_vectorized",
    "render_pfs_vectorized",
]
