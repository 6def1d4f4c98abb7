"""Quickstart: render a random scene three ways and compare.

Builds a small random Gaussian cloud, renders it with

1. the reference PFS rasterizer (the 3DGS baseline),
2. the IRSS dataflow (same image, ~80-90% fewer fragments),
3. the GBU hardware model (fp16 datapath, cycle + energy accounting),

and prints the equivalence/speedup numbers the paper is built on.
Every render runs the instance-batched engine (`repro.render`); the
scalar loop `render_reference_loop` is its test oracle and gives a
bit-identical image.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

import numpy as np

from repro import (
    Camera,
    GaussianCloud,
    GBUConfig,
    GBUDevice,
    project,
    render_irss,
    render_reference,
)
from repro.gaussians.rasterizer import render_reference_loop
from repro.metrics.image import psnr


def main() -> None:
    rng = np.random.default_rng(7)
    cloud = GaussianCloud.random(800, rng, extent=1.0, scale_range=(0.02, 0.12))
    camera = Camera.look_at(
        eye=[0.5, 0.4, -3.0], target=[0, 0, 0], width=160, height=120
    )

    projected = project(cloud, camera)
    print(f"visible Gaussians: {len(projected)} / {len(cloud)}")

    # 1. Reference: Parallel Fragment Shading (tile-lockstep).
    reference = render_reference(projected)
    loops = render_reference_loop(projected)
    print(
        f"PFS     : {reference.stats.fragments_shaded:>9,} fragments shaded, "
        f"{reference.stats.significant_fraction:.1%} significant, "
        f"scalar loops bit-identical: {np.array_equal(loops.image, reference.image)}"
    )

    # 2. IRSS: row-sequential shading with compute sharing + skipping.
    irss = render_irss(projected)
    max_diff = np.abs(irss.image - reference.image).max()
    print(
        f"IRSS    : {irss.stats.fragments_shaded:>9,} fragments shaded "
        f"(skip rate {irss.stats.skip_rate:.1%}), "
        f"{irss.stats.flops_per_fragment:.2f} Eq.7 FLOPs/fragment, "
        f"max image diff vs PFS = {max_diff:.2e}"
    )

    # 3. GBU: the hardware model (D&B + tile engine + reuse cache, fp16).
    # GBUConfig carries the feature configuration (Tab. V axes).
    device = GBUDevice(
        config=GBUConfig(
            use_dnb=True,
            use_cache=True,
            cache_policy="reuse_distance",
            fp16=True,
        )
    )
    report = device.render(projected)
    print(
        f"GBU     : {report.step3_seconds * 1e6:8.1f} us simulated Step-3, "
        f"Row-PE utilization {report.utilization:.1%}, "
        f"cache hit rate {report.cache.hit_rate:.1%}, "
        f"PSNR vs PFS = {psnr(reference.image, report.image):.1f} dB (fp16)"
    )


if __name__ == "__main__":
    main()
