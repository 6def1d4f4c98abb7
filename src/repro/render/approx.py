"""Contribution-aware approximate rendering (the "approx" backend).

The ``reference`` and ``vectorized`` backends are exact: every binned
(tile, Gaussian) instance is blended until the per-pixel transmittance
crosses the conservative ``transmittance_eps``.  Profiling (Challenge 2
of the paper; FLICKER makes the same observation) shows that most of
that work is spent on Gaussians whose alpha mass within a tile is
negligible — they are fetched, set up and shaded, then contribute
below perceptual significance.  This backend trades *measured* image
quality for latency along two axes:

* **Per-tile contribution-aware culling** — for every (tile, Gaussian)
  instance a closed-form *blended-contribution* estimate is computed:
  the Gaussian's mean per-pixel alpha over the tile (opacity at the
  nearest tile point, scaled by how much of the tile its footprint
  covers), weighted by the transmittance accumulated through the
  members in front of it in depth order.  Instances whose estimated
  contribution falls below a tolerance-scaled threshold are culled —
  this removes both negligible-alpha Gaussians *and* the occluded tail
  behind nearly-opaque foregrounds, while blending order stays depth
  order and membership only shrinks.
* **Aggressive early termination** — the per-pixel transmittance
  cutoff is raised from the exact ``transmittance_eps`` to
  ``term_eps``: a pixel that is already ``1 - term_eps`` opaque stops
  accumulating.  The residual error per pixel is bounded by the
  discarded transmittance.
* **Reduced-precision datapath** — any approximating policy renders
  in float32 (the exact engines accumulate in float64).  The
  rasterizer sweeps are memory-bound, so halving their bandwidth is
  nearly free speed; the ~1e-7 relative rounding is noise against the
  culling error above.

Both knobs fold into one scalar :attr:`ApproxPolicy.tolerance` in
``[0, 1]``; tolerance 0 disables both (bit-identical to the exact
vectorized backend, tested), larger tolerances cull and terminate more
aggressively.  Quality is never assumed: every configuration is scored
with PSNR/SSIM against the exact backend (``repro.metrics.image``) in
``tests/render/test_approx.py`` (quality-banded goldens) and
``benchmarks/bench_approx_quality.py`` (asserted per-rung floors).

The QoS ladder maps its relative detail rung to a tolerance through
:func:`tolerance_for_rung`, so a session under deadline pressure that
drops a rung also renders that rung cheaper — the explicit
quality-for-latency trade the serving layer needed a faster rung for.

The active policy is process-wide (like the default backend in
:mod:`repro.render.backends`): ``set_approx_policy`` /
:func:`use_approx_policy` override it, the ``REPRO_APPROX_TOLERANCE``
environment variable seeds it, and the default tolerance is
:data:`DEFAULT_TOLERANCE`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.config import (
    ALPHA_MAX,
    DEFAULT_SETTINGS,
    RenderSettings,
    TRANSMITTANCE_EPS,
)
from repro.core.irss import IRSSRenderResult
from repro.core.transform import IRSSTransform
from repro.errors import ValidationError
from repro.gaussians.projection import Projected2D
from repro.gaussians.rasterizer import RenderResult
from repro.gaussians.sorting import RenderLists, build_render_lists
from repro.render.vectorized import render_irss_vectorized, render_pfs_vectorized

#: Environment variable seeding the process-wide approx tolerance.
APPROX_TOLERANCE_ENV_VAR = "REPRO_APPROX_TOLERANCE"

#: Tolerance used when nothing overrides it.  Chosen so the default
#: scene clears the PSNR >= 35 dB / SSIM >= 0.95 floors with a >= 2x
#: speedup over the exact vectorized backend (asserted in
#: ``benchmarks/bench_approx_quality.py``).
DEFAULT_TOLERANCE = 0.25


#: Scale from tolerance to the per-instance contribution cutoff.  At
#: tolerance 1 an instance may be culled when its estimated mean
#: per-pixel blended alpha is below 2e-3 (half an 8-bit code).
CONTRIBUTION_SCALE = 2e-3

#: Scale from tolerance to the early-termination threshold.
TERM_EPS_SCALE = 0.02


@dataclass(frozen=True)
class ApproxPolicy:
    """One approximate-rendering configuration.

    Attributes
    ----------
    tolerance:
        The scalar quality knob in ``[0, 1]`` both derived knobs come
        from (0 = exact).
    min_contribution:
        Estimated mean per-pixel blended-alpha cutoff: tile members
        contributing less are culled (0 keeps everything).
    term_eps:
        Early-termination transmittance threshold (the exact engines
        use the conservative ``RenderSettings.transmittance_eps``).
    min_keep:
        Tiles never cull below this many members, so sparsely covered
        tiles keep their (individually significant) Gaussians.
    """

    tolerance: float
    min_contribution: float
    term_eps: float
    min_keep: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerance <= 1.0:
            raise ValidationError("approx tolerance must be in [0, 1]")
        if self.min_contribution < 0.0:
            raise ValidationError("min_contribution cannot be negative")
        if self.term_eps < TRANSMITTANCE_EPS:
            raise ValidationError(
                "term_eps cannot undercut the exact transmittance_eps"
            )
        if self.min_keep < 1:
            raise ValidationError("min_keep must be at least 1")

    @staticmethod
    def for_tolerance(tolerance: float) -> "ApproxPolicy":
        """Derive both approximation knobs from one scalar tolerance.

        Tolerance 0 keeps every instance and the exact termination
        threshold (the renders are then bit-identical to
        ``vectorized``); the knobs open linearly from there.
        """
        if not 0.0 <= tolerance <= 1.0:
            raise ValidationError("approx tolerance must be in [0, 1]")
        return ApproxPolicy(
            tolerance=tolerance,
            min_contribution=CONTRIBUTION_SCALE * tolerance,
            term_eps=max(TRANSMITTANCE_EPS, TERM_EPS_SCALE * tolerance),
        )


def tolerance_for_rung(rung_scale: float) -> float:
    """Tolerance for one QoS detail rung (relative scale in ``(0, 1]``).

    The full-detail rung renders with a small tolerance; every rung
    the controller drops widens it, so the latency relief per rung
    comes from *both* fewer Gaussians (the smaller bundle) and cheaper
    blending.  Clamped to the band measured in
    ``benchmarks/bench_approx_quality.py``.
    """
    if rung_scale <= 0:
        raise ValidationError("detail rung scale must be positive")
    return float(np.clip(0.15 + 0.4 * (1.0 - min(rung_scale, 1.0)), 0.0, 0.55))


_policy_override: ApproxPolicy | None = None


def default_policy() -> ApproxPolicy:
    """The policy used when no override is active."""
    if _policy_override is not None:
        return _policy_override
    env = os.environ.get(APPROX_TOLERANCE_ENV_VAR)
    if env is not None:
        try:
            tolerance = float(env)
        except ValueError:
            raise ValidationError(
                f"{APPROX_TOLERANCE_ENV_VAR} must be a float in [0, 1], "
                f"got '{env}'"
            ) from None
        return ApproxPolicy.for_tolerance(tolerance)
    return ApproxPolicy.for_tolerance(DEFAULT_TOLERANCE)


def set_approx_policy(policy: ApproxPolicy | None) -> ApproxPolicy | None:
    """Override the process-wide approx policy (``None`` clears it).

    Returns the previous override so callers can restore it.
    """
    global _policy_override
    previous = _policy_override
    _policy_override = policy
    return previous


@contextmanager
def use_approx_policy(policy: ApproxPolicy | float) -> Iterator[ApproxPolicy]:
    """Scope an approx-policy override (accepts a bare tolerance)."""
    if not isinstance(policy, ApproxPolicy):
        policy = ApproxPolicy.for_tolerance(policy)
    previous = set_approx_policy(policy)
    try:
        yield policy
    finally:
        set_approx_policy(previous)


def tile_alpha_estimate(
    projected: Projected2D, lists: RenderLists
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated mean per-pixel alpha of every (tile, Gaussian) instance.

    Returns ``(members, alpha)``: the flat member array (concatenated
    ``lists.per_tile``, depth order within each tile) and, per
    instance, the Gaussian's opacity evaluated at the nearest point of
    the tile, scaled by the fraction of the tile its footprint covers
    — a closed-form estimate of the mean alpha it contributes per tile
    pixel, before occlusion.
    """
    grid = lists.grid
    counts = lists.instances_per_tile()
    if counts.sum() == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0)
    members = np.concatenate([m for m in lists.per_tile if len(m)])
    tiles = np.repeat(np.arange(grid.n_tiles, dtype=np.int64), counts)
    tx = tiles % grid.tiles_x
    ty = tiles // grid.tiles_x
    x0 = tx * grid.tile
    y0 = ty * grid.tile
    x1 = np.minimum(x0 + grid.tile, grid.width) - 1.0
    y1 = np.minimum(y0 + grid.tile, grid.height) - 1.0
    means = projected.means2d[members]
    # Nearest tile pixel to the Gaussian center: where its alpha over
    # the tile peaks (the conic quadratic is monotone in the distance
    # along each axis once clamped to the rectangle).
    dx = np.clip(means[:, 0], x0, x1) - means[:, 0]
    dy = np.clip(means[:, 1], y0, y1) - means[:, 1]
    con = projected.conics[members]
    q = con[:, 0] * dx * dx + 2.0 * con[:, 1] * dx * dy + con[:, 2] * dy * dy
    det = np.maximum(con[:, 0] * con[:, 2] - con[:, 1] ** 2, 1e-12)
    footprint = 2.0 * np.pi / np.sqrt(det)
    area = (x1 - x0 + 1.0) * (y1 - y0 + 1.0)
    peak = projected.opacities[members] * np.exp(-0.5 * np.minimum(q, 30.0))
    alpha = np.minimum(peak, ALPHA_MAX) * np.minimum(1.0, footprint / area)
    return members, alpha


@dataclass(frozen=True)
class CullStats:
    """What contribution-aware culling removed from one frame."""

    instances_before: int
    instances_after: int

    @property
    def culled_fraction(self) -> float:
        if self.instances_before == 0:
            return 0.0
        return 1.0 - self.instances_after / self.instances_before


def cull_render_lists(
    projected: Projected2D,
    lists: RenderLists,
    policy: ApproxPolicy | None = None,
) -> tuple[RenderLists, CullStats]:
    """Drop each tile's negligible-contribution members, keeping depth order.

    For every tile, members are walked front to back accumulating an
    estimated tile transmittance from :func:`tile_alpha_estimate`; a
    member's *blended* contribution is its alpha estimate times the
    transmittance remaining in front of it.  Members below the
    policy's ``min_contribution`` are culled — faint Gaussians anywhere
    and any Gaussian behind a nearly opaque foreground.  The ``min_keep``
    highest-contributing members of each tile always survive, and
    surviving members keep their near-to-far order, so blending
    semantics are unchanged — only membership shrinks.
    """
    if policy is None:
        policy = default_policy()
    before = int(lists.n_instances)
    if policy.min_contribution <= 0.0 or before == 0:
        return lists, CullStats(instances_before=before, instances_after=before)
    _, alpha = tile_alpha_estimate(projected, lists)
    per_tile: list[np.ndarray] = []
    after = 0
    offset = 0
    for members in lists.per_tile:
        n = len(members)
        if n == 0:
            per_tile.append(members)
            continue
        a = alpha[offset : offset + n]
        offset += n
        if n <= policy.min_keep:
            per_tile.append(members)
            after += n
            continue
        # Transmittance estimate in front of each member (depth order).
        trans = np.empty(n)
        trans[0] = 1.0
        np.cumprod(1.0 - a[:-1], out=trans[1:])
        weight = trans * a
        keep = weight >= policy.min_contribution
        if keep.sum() < policy.min_keep:
            top = np.argpartition(-weight, policy.min_keep - 1)
            keep[top[: policy.min_keep]] = True
        kept = members[keep]
        per_tile.append(kept)
        after += len(kept)
    culled = RenderLists(grid=lists.grid, per_tile=per_tile)
    return culled, CullStats(instances_before=before, instances_after=after)


def _approx_settings(
    settings: RenderSettings, policy: ApproxPolicy
) -> RenderSettings:
    eps = max(settings.transmittance_eps, policy.term_eps)
    if eps == settings.transmittance_eps:
        return settings
    return replace(settings, transmittance_eps=eps)


def _approx_dtype(settings: RenderSettings, policy: ApproxPolicy) -> type:
    """Datapath precision for one approx render.

    An exact-equivalent policy (nothing culled, no raised termination —
    e.g. tolerance 0) keeps the float64 datapath so the advertised
    bit-identity with ``vectorized`` holds; every approximating policy
    renders in float32, whose ~1e-7 relative error is noise against the
    culling error but halves the working-set bandwidth.
    """
    exact_equivalent = (
        policy.min_contribution <= 0.0
        and policy.term_eps <= settings.transmittance_eps
    )
    return np.float64 if exact_equivalent else np.float32


def render_pfs_approx(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
) -> RenderResult:
    """PFS rasterizer under the active approx policy."""
    policy = default_policy()
    if lists is None:
        lists = build_render_lists(projected)
    culled, _ = cull_render_lists(projected, lists, policy)
    return render_pfs_vectorized(
        projected,
        culled,
        settings=_approx_settings(settings, policy),
        dtype=_approx_dtype(settings, policy),
    )


def render_irss_approx(
    projected: Projected2D,
    lists: RenderLists | None = None,
    settings: RenderSettings = DEFAULT_SETTINGS,
    transform: IRSSTransform | None = None,
    fp16: bool = False,
) -> IRSSRenderResult:
    """IRSS rasterizer under the active approx policy."""
    policy = default_policy()
    if lists is None:
        lists = build_render_lists(projected)
    culled, _ = cull_render_lists(projected, lists, policy)
    return render_irss_vectorized(
        projected,
        culled,
        settings=_approx_settings(settings, policy),
        transform=transform,
        fp16=fp16,
        dtype=_approx_dtype(settings, policy),
    )
