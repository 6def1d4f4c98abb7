"""Global constants and render settings shared across the library.

The values here mirror the conventions of the 3D Gaussian Splatting
reference implementation (Kerbl et al., 2023) that the paper builds on,
plus the hardware constants of the Gaussian Blending Unit (GBU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tile edge length in pixels.  Both the 3DGS CUDA rasterizer and the GBU
# render in units of 16 x 16 pixel tiles (Sec. II-B, Sec. V-C).
TILE_SIZE = 16

# Alpha below which a fragment is treated as not contributing (1/255 in
# the 3DGS reference implementation; the paper's "predefined threshold").
ALPHA_MIN = 1.0 / 255.0

# Alpha is clamped from above to keep (1 - alpha) bounded away from zero,
# exactly as in the 3DGS reference rasterizer.
ALPHA_MAX = 0.99

# Per-pixel blending stops once accumulated transmittance drops below
# this value (early termination in the 3DGS reference rasterizer).
TRANSMITTANCE_EPS = 1e-4

# Hard cap on the Mahalanobis-squared truncation threshold.  Corresponds
# to the classic 3-sigma footprint bound used for tile binning.
MAX_MAHALANOBIS_SQ = 9.0

# Low-pass dilation added to the diagonal of every projected 2D
# covariance (EWA splatting anti-aliasing term used by 3DGS).
COV2D_DILATION = 0.3

# Minimum camera-space depth for a Gaussian to be considered visible.
NEAR_PLANE = 0.2

# DRAM bytes moved per (tile, Gaussian) feature fetch in Rendering
# Step 3: the fp32 record (2D mean, conic/Cholesky coefficients,
# color, opacity, threshold, index) padded to DRAM burst granularity.
# This value makes Step 3 demand ~62% of the Orin NX's bandwidth at
# 60 FPS on static scenes, matching the paper's Sec. V-A measurement.
FEATURE_BYTES = 128

# Default number of Gaussians per chunk in the two-level pipeline
# between the Decomposition & Binning engine and the Tile PE (Fig. 13).
# Sized for the simulated (reduced-scale) scenes so that a frame spans
# roughly the same number of chunks as the paper's full-size scenes.
DEFAULT_CHUNK_SIZE = 128


@dataclass(frozen=True)
class RenderSettings:
    """Settings shared by every rasterizer implementation in the repo.

    Attributes
    ----------
    alpha_min:
        Fragments with blended alpha below this value are discarded;
        this is the truncation threshold of Sec. II-B.
    alpha_max:
        Upper clamp applied to fragment alpha before blending.
    transmittance_eps:
        Early-termination threshold on accumulated transmittance.
    max_mahalanobis_sq:
        Hard cap for the per-Gaussian truncation threshold ``Th``.
    background:
        RGB background color composited behind the splats.
    sh_degree:
        Active spherical-harmonics degree used for view-dependent color.
    """

    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    transmittance_eps: float = TRANSMITTANCE_EPS
    max_mahalanobis_sq: float = MAX_MAHALANOBIS_SQ
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sh_degree: int = 2

    def background_array(self) -> np.ndarray:
        """Return the background color as a float64 array of shape (3,)."""
        return np.asarray(self.background, dtype=np.float64)


DEFAULT_SETTINGS = RenderSettings()


@dataclass(frozen=True)
class FlopConvention:
    """FLOP-counting convention used throughout the paper.

    The paper counts only the cost of evaluating the Mahalanobis
    quadratic form of Eq. 7 when comparing dataflows (Fig. 6):

    * PFS evaluates ``(P - mu)^T Sigma^-1 (P - mu)`` from scratch for
      every fragment: 2 subs + 4 muls + 2 adds (mat-vec) + 2 muls +
      1 add (dot) = 11 FLOPs.
    * IRSS shares intermediates along a row: after the two-step
      transform, each new fragment needs one multiply (``x''^2``) and
      one add (``x''^2 + y''^2``) = 2 FLOPs; the coordinate increment
      is treated as index bookkeeping, matching the paper's "2 FLOPs
      per fragment" claim.
    * The first fragment of each (Gaussian, row) segment pays the full
      setup, equivalent to the 11-FLOP direct evaluation.
    """

    pfs_flops_per_fragment: int = 11
    irss_flops_per_fragment: int = 2
    irss_flops_first_fragment: int = 11
    # 1-step transform (P -> P' only) still recomputes both squared
    # coordinates each step: 3 FLOPs per fragment (Sec. IV-B).
    irss_flops_per_fragment_one_step: int = 3


FLOPS = FlopConvention()
