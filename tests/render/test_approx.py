"""The approx backend: policy plumbing, culling properties, and
measured (never assumed) quality bands against the exact backend.

Tolerance 0 must be *bit-identical* to the exact vectorized backend
(the advertised exactness anchor); positive tolerances are scored with
PSNR/SSIM from ``repro.metrics.image`` against the exact render and
asserted against quality floors — approximate rendering with a golden
quality band instead of golden bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.render.vectorized as vectorized
from repro.config import TRANSMITTANCE_EPS
from repro.core.irss import render_irss
from repro.errors import ValidationError
from repro.gaussians import build_render_lists, render_reference
from repro.metrics.image import psnr, ssim
from repro.render import get_backend, list_backends, render_irss_vectorized
from repro.render.approx import (
    APPROX_TOLERANCE_ENV_VAR,
    DEFAULT_TOLERANCE,
    ApproxPolicy,
    cull_render_lists,
    default_policy,
    render_irss_approx,
    render_pfs_approx,
    set_approx_policy,
    tile_alpha_estimate,
    tolerance_for_rung,
    use_approx_policy,
)

from repro.gaussians import Camera, GaussianCloud, project


#: sha256 of ``_scene(7, 600)`` rendered by the float32 IRSS datapath
#: at a 2^16 IRSS chunk budget (image, transmittance, n_contrib bytes,
#: then the stats tuple's repr).
FLOAT32_IRSS_SHA256 = (
    "eed256a883ba43ebe436e7908cddbccb9be9d83c8622576b3302fb88211a8475"
)
#: The same digest of ``_scene(7, 1500, opacity_lo=0.005,
#: opacity_hi=0.05)`` at the default IRSS chunk budget.
FLOAT32_IRSS_DEFAULT_BUDGET_SHA256 = (
    "c789ac312e7afe115e668f6f3c18d9a209515e2df80d97e630de7eef23d72b37"
)


def _float32_irss_digest(projected) -> str:
    """sha256 of a float32 IRSS render's image, transmittance and
    n_contrib bytes, then the stats tuple's repr."""
    result = render_irss_vectorized(projected, dtype=np.float32)
    digest = hashlib.sha256()
    for array in (result.image, result.transmittance, result.n_contrib):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(dataclasses.astuple(result.stats)).encode())
    return digest.hexdigest()


def _scene(seed: int, n: int, width: int = 72, height: int = 56,
           opacity_lo: float = 0.05, opacity_hi: float = 0.95):
    """A random projected scene (odd resolutions exercise clipped tiles)."""
    rng = np.random.default_rng(seed)
    cloud = GaussianCloud.random(n, rng, extent=0.6, scale_range=(0.03, 0.3))
    cloud = GaussianCloud(
        means=cloud.means,
        scales=cloud.scales,
        quats=cloud.quats,
        opacities=np.clip(cloud.opacities, opacity_lo, opacity_hi),
        sh=cloud.sh,
    )
    camera = Camera.look_at(
        eye=[0.1, 0.2, -2.0], target=[0, 0, 0], width=width, height=height
    )
    return project(cloud, camera)


class TestApproxPolicy:
    def test_tolerance_band_enforced(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                ApproxPolicy.for_tolerance(bad)
        with pytest.raises(ValidationError):
            ApproxPolicy(tolerance=2.0, min_contribution=0.0,
                         term_eps=TRANSMITTANCE_EPS)

    def test_knob_validation(self):
        with pytest.raises(ValidationError):
            ApproxPolicy(tolerance=0.5, min_contribution=-1e-3,
                         term_eps=TRANSMITTANCE_EPS)
        with pytest.raises(ValidationError):
            # term_eps may never undercut the exact threshold.
            ApproxPolicy(tolerance=0.5, min_contribution=0.0,
                         term_eps=TRANSMITTANCE_EPS / 10)
        with pytest.raises(ValidationError):
            ApproxPolicy(tolerance=0.5, min_contribution=0.0,
                         term_eps=TRANSMITTANCE_EPS, min_keep=0)

    def test_for_tolerance_knobs_open_linearly(self):
        exact = ApproxPolicy.for_tolerance(0.0)
        assert exact.min_contribution == 0.0
        assert exact.term_eps == TRANSMITTANCE_EPS
        loose = ApproxPolicy.for_tolerance(1.0)
        assert loose.min_contribution > ApproxPolicy.for_tolerance(0.5).min_contribution
        assert loose.term_eps > TRANSMITTANCE_EPS

    def test_tolerance_for_rung_monotone_and_clamped(self):
        tols = [tolerance_for_rung(s) for s in (1.0, 0.75, 0.5, 0.25, 0.05)]
        assert tols == sorted(tols)  # lower rung -> wider tolerance
        assert tols[0] == pytest.approx(0.15)
        assert max(tols) <= 0.55
        # Scales above 1 (nominal > band) behave like full detail.
        assert tolerance_for_rung(2.0) == tols[0]
        with pytest.raises(ValidationError):
            tolerance_for_rung(0.0)


class TestPolicyOverride:
    def test_registered_backend(self):
        assert "approx" in list_backends()
        assert get_backend("approx").name == "approx"

    def test_default_policy_uses_default_tolerance(self):
        assert default_policy().tolerance == DEFAULT_TOLERANCE

    def test_env_var_seeds_tolerance(self, monkeypatch):
        monkeypatch.setenv(APPROX_TOLERANCE_ENV_VAR, "0.4")
        assert default_policy().tolerance == pytest.approx(0.4)

    def test_env_var_invalid_is_clean_error(self, monkeypatch):
        monkeypatch.setenv(APPROX_TOLERANCE_ENV_VAR, "brisk")
        with pytest.raises(ValidationError):
            default_policy()

    def test_use_approx_policy_scopes_and_restores(self):
        outer = ApproxPolicy.for_tolerance(0.6)
        previous = set_approx_policy(outer)
        try:
            with use_approx_policy(0.3) as inner:
                assert default_policy() is inner
                assert inner.tolerance == pytest.approx(0.3)
            assert default_policy() is outer
        finally:
            set_approx_policy(previous)


class TestCulling:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 150),
           tolerance=st.floats(0.05, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_cull_preserves_depth_order_and_subsets(self, seed, n, tolerance):
        projected = _scene(seed, n)
        lists = build_render_lists(projected)
        policy = ApproxPolicy.for_tolerance(tolerance)
        culled, stats = cull_render_lists(projected, lists, policy)
        assert stats.instances_before == lists.n_instances
        assert stats.instances_after == culled.n_instances
        assert 0.0 <= stats.culled_fraction <= 1.0
        assert culled.grid is lists.grid
        for kept, members in zip(culled.per_tile, lists.per_tile):
            # Subset, in the original (depth) order.
            pos = {int(g): i for i, g in enumerate(members)}
            idx = [pos[int(g)] for g in kept]
            assert idx == sorted(idx)
            # Busy tiles never drop below the keep floor.
            if len(members) >= policy.min_keep:
                assert len(kept) >= policy.min_keep
            else:
                assert len(kept) == len(members)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 150))
    @settings(max_examples=10, deadline=None)
    def test_culling_is_monotone_in_tolerance(self, seed, n):
        projected = _scene(seed, n)
        lists = build_render_lists(projected)
        kept = [
            cull_render_lists(
                projected, lists, ApproxPolicy.for_tolerance(t)
            )[1].instances_after
            for t in (0.0, 0.25, 0.5, 1.0)
        ]
        assert kept == sorted(kept, reverse=True)
        assert kept[0] == lists.n_instances  # tolerance 0 culls nothing

    def test_alpha_estimate_covers_every_instance(self):
        projected = _scene(7, 80)
        lists = build_render_lists(projected)
        members, alpha = tile_alpha_estimate(projected, lists)
        assert members.shape == alpha.shape == (lists.n_instances,)
        assert (alpha >= 0.0).all() and (alpha <= 1.0).all()

    def test_empty_scene(self):
        rng = np.random.default_rng(0)
        cloud = GaussianCloud.random(10, rng, extent=0.3)
        # Camera faces away from the cloud, so projection culls all.
        camera = Camera.look_at(
            eye=[0, 0, -2], target=[0, 0, -4], width=48, height=32
        )
        projected = project(cloud, camera)
        assert len(projected) == 0
        empty = build_render_lists(projected)
        culled, stats = cull_render_lists(
            projected, empty, ApproxPolicy.for_tolerance(1.0)
        )
        assert stats.instances_before == stats.instances_after == 0
        assert stats.culled_fraction == 0.0
        assert culled.n_instances == 0


class TestQuality:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
    @settings(max_examples=8, deadline=None)
    def test_tolerance_zero_is_bit_identical(self, seed, n):
        """The exactness anchor: tolerance 0 means no culling, the
        exact termination threshold, and the float64 datapath."""
        projected = _scene(seed, n)
        lists = build_render_lists(projected)
        with use_approx_policy(0.0):
            appr_pfs = render_pfs_approx(projected, lists)
            appr_irss = render_irss_approx(projected, lists)
        exact_pfs = render_reference(projected, lists, backend="vectorized")
        exact_irss = render_irss(projected, lists, backend="vectorized")
        np.testing.assert_array_equal(appr_pfs.image, exact_pfs.image)
        np.testing.assert_array_equal(
            appr_pfs.transmittance, exact_pfs.transmittance
        )
        assert appr_pfs.stats == exact_pfs.stats
        np.testing.assert_array_equal(appr_irss.image, exact_irss.image)
        assert appr_irss.stats == exact_irss.stats

    def test_float32_irss_render_is_pinned(self, monkeypatch, irss_chunks):
        """The approx datapath's float32 IRSS render, pinned by digest.

        Its log-cumsum transmittance scan rounds differently when the
        fragments of a depth chunk change, so this digest fails if the
        tile or depth chunking moves.  It was recorded at a 2^16 IRSS
        chunk budget, which this test keeps; there the scene's deepest
        tile (501 instances) spans two depth chunks.
        """
        monkeypatch.setattr(vectorized, "IRSS_CHUNK_FRAGMENT_BUDGET", 1 << 16)
        projected = _scene(7, 600)
        tile_chunks, depth_chunks = irss_chunks(projected, dtype=np.float32)
        assert depth_chunks > tile_chunks
        assert _float32_irss_digest(projected) == FLOAT32_IRSS_SHA256

    def test_float32_irss_render_is_pinned_at_default_budget(self, irss_chunks):
        """The same pin at the default IRSS chunk budget.  The scene is
        deep (1,168 instances in its deepest tile) and faint enough that
        most pixels stay above eps past the first depth chunk, so the
        default budget still splits tiles in depth."""
        projected = _scene(7, 1500, opacity_lo=0.005, opacity_hi=0.05)
        tile_chunks, depth_chunks = irss_chunks(projected, dtype=np.float32)
        assert depth_chunks > tile_chunks
        assert _float32_irss_digest(projected) == FLOAT32_IRSS_DEFAULT_BUDGET_SHA256

    def test_default_tolerance_quality_band(self):
        """Quality-banded golden: at the default tolerance the default
        catalog scene stays within the advertised PSNR/SSIM band of the
        exact render (the exact goldens continue to guard
        reference/vectorized byte-for-byte).  The floors match the
        acceptance bar asserted in ``benchmarks/bench_approx_quality.py``."""
        from repro.scenes.catalog import build_scene

        bundle = build_scene("bicycle")
        cloud, _ = bundle.frame_cloud(0)
        projected = project(cloud, bundle.camera)
        lists = build_render_lists(projected)
        exact = render_reference(projected, lists, backend="vectorized")
        with use_approx_policy(DEFAULT_TOLERANCE):
            appr = render_reference(projected, lists, backend="approx")
        assert psnr(appr.image, exact.image) >= 35.0
        assert ssim(appr.image, exact.image) >= 0.95
        # It must actually approximate: strictly fewer instances reach
        # the rasterizer (culling) than in the exact render.
        assert appr.stats.instances < exact.stats.instances

    def test_quality_degrades_monotonically_enough(self):
        """Wider tolerance never *improves* fidelity by more than noise
        (the knobs only ever discard more work)."""
        projected = _scene(13, 300, width=96, height=80)
        lists = build_render_lists(projected)
        exact = render_reference(projected, lists, backend="vectorized")
        scores = []
        for tol in (0.1, 0.5, 1.0):
            with use_approx_policy(tol):
                appr = render_reference(projected, lists, backend="approx")
            scores.append(psnr(appr.image, exact.image))
        assert scores[0] >= scores[-1]
        # Even the loosest tolerance on this adversarial random scene
        # (far denser overlap than any catalog scene) stays recognizable.
        assert min(scores) > 15.0
