"""Tests for the two-step IRSS coordinate transformation.

The key properties from Sec. IV-B: the transform is *exact*
(||P''||^2 equals Eq. 7), the column step is axis-aligned in P''-space,
and the hardware's binary-search + walk-off agrees with the
closed-form interval oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.core.transform import (
    binary_search_first_fragment,
    compute_transforms,
    compute_transforms_evd,
    walk_last_fragment,
)


def _random_conic(rng) -> np.ndarray:
    """A random symmetric positive-definite conic."""
    a = rng.uniform(0.05, 3.0)
    c = rng.uniform(0.05, 3.0)
    b = rng.uniform(-0.9, 0.9) * np.sqrt(a * c)
    return np.array([a, b, c])


@st.composite
def conic_strategy(draw):
    a = draw(st.floats(0.02, 5.0, allow_nan=False))
    c = draw(st.floats(0.02, 5.0, allow_nan=False))
    rho = draw(st.floats(-0.95, 0.95, allow_nan=False))
    return np.array([a, rho * np.sqrt(a * c), c])


def _build(conics, means=None, thresholds=None):
    conics = np.atleast_2d(conics)
    n = conics.shape[0]
    if means is None:
        means = np.zeros((n, 2))
    if thresholds is None:
        thresholds = np.full(n, 9.0)
    return compute_transforms(conics, means, thresholds)


class TestCholeskyConstruction:
    def test_dx_col_is_sqrt_a(self, rng):
        conics = np.stack([_random_conic(rng) for _ in range(20)])
        transform = _build(conics)
        np.testing.assert_allclose(transform.dx_col, np.sqrt(conics[:, 0]))

    def test_factorization_reconstructs_conic(self, rng):
        conics = np.stack([_random_conic(rng) for _ in range(20)])
        t = _build(conics)
        for i in range(20):
            u = np.array([[t.u00[i], t.u01[i]], [0.0, t.u11[i]]])
            recon = u.T @ u
            np.testing.assert_allclose(
                recon, [[conics[i, 0], conics[i, 1]], [conics[i, 1], conics[i, 2]]],
                rtol=1e-10,
            )

    def test_degenerate_conic_rejected(self):
        with pytest.raises(ValidationError):
            _build(np.array([[1.0, 1.0, 1.0]]))  # b^2 == a*c

    def test_negative_a_rejected(self):
        with pytest.raises(ValidationError):
            _build(np.array([[-1.0, 0.0, 1.0]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            compute_transforms(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))


class TestEvdEquivalence:
    """The paper's EVD + rotation construction equals the Cholesky."""

    @given(conic=conic_strategy())
    @settings(max_examples=60, deadline=None)
    def test_constructions_agree(self, conic):
        means = np.array([[1.5, -2.0]])
        th = np.array([9.0])
        chol = compute_transforms(conic[None, :], means, th)
        evd = compute_transforms_evd(conic[None, :], means, th)
        # Both are upper-triangular factors with positive u11; they can
        # differ by the sign of the first row (a reflection), which
        # does not change any distance.
        np.testing.assert_allclose(np.abs(chol.u00), np.abs(evd.u00), rtol=1e-8)
        np.testing.assert_allclose(np.abs(chol.u11), np.abs(evd.u11), rtol=1e-8)
        pts = np.array([[0.3, 1.2], [-4.0, 2.0], [10.0, -3.0]])
        np.testing.assert_allclose(
            chol.mahalanobis_sq(0, pts), evd.mahalanobis_sq(0, pts), rtol=1e-8
        )


class TestExactness:
    """||P''||^2 must equal Eq. 7 — the transform is not an
    approximation (Sec. IV-B)."""

    @given(
        conic=conic_strategy(),
        px=st.floats(-50, 50, allow_nan=False),
        py=st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_equals_quadratic_form(self, conic, px, py):
        mean = np.array([3.0, -1.0])
        t = _build(conic[None, :], means=mean[None, :])
        point = np.array([[px, py]])
        d = point[0] - mean
        a, b, c = conic
        direct = a * d[0] ** 2 + 2 * b * d[0] * d[1] + c * d[1] ** 2
        via_transform = t.mahalanobis_sq(0, point)[0]
        assert via_transform == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_row_invariant_y(self, rng):
        """y'' is constant along a row (the point of Theta)."""
        conic = _random_conic(rng)
        t = _build(conic[None, :])
        y = 7
        ys = [t.row_start(0, x0, y)[1] for x0 in range(-5, 25, 3)]
        np.testing.assert_allclose(ys, ys[0])

    def test_column_step_constant(self, rng):
        conic = _random_conic(rng)
        t = _build(conic[None, :])
        x0_a, _ = t.row_start(0, 0, 3)
        x0_b, _ = t.row_start(0, 1, 3)
        assert x0_b - x0_a == pytest.approx(t.dx_col[0], rel=1e-12)


class TestRowInterval:
    def test_interval_contains_exactly_inside_fragments(self, rng):
        conic = _random_conic(rng)
        mean = np.array([[8.0, 8.0]])
        th = np.array([rng.uniform(1.0, 9.0)])
        t = compute_transforms(conic[None, :], mean, th)
        for y in range(16):
            c0, c1 = t.row_interval(0, 0, y, 16)
            for col in range(16):
                point = np.array([[col + 0.5, y + 0.5]])
                inside = t.mahalanobis_sq(0, point)[0] <= th[0]
                assert inside == (c0 <= col <= c1), (y, col)

    def test_empty_row(self):
        conic = np.array([[1.0, 0.0, 1.0]])
        t = compute_transforms(conic, np.array([[8.0, 100.0]]), np.array([4.0]))
        assert t.row_interval(0, 0, 0, 16) == (0, -1)


class TestHardwareSearch:
    """The 3-step binary search + walk-off must agree with the oracle."""

    @given(
        conic=conic_strategy(),
        mx=st.floats(-20.0, 36.0, allow_nan=False),
        my=st.floats(-20.0, 36.0, allow_nan=False),
        th=st.floats(0.5, 9.0, allow_nan=False),
        y=st.integers(0, 15),
    )
    @settings(max_examples=150, deadline=None)
    # On the threshold ellipse: column 1 of row 0 rounds to
    # x''^2 = 2.0000000000000004 > Th while sqrt(Th) / dx'' is exactly 1.
    @example(conic=np.array([2.0, 0.0, 1.0]), mx=0.5, my=0.5, th=2.0, y=0)
    def test_search_matches_oracle(self, conic, mx, my, th, y):
        t = compute_transforms(
            conic[None, :], np.array([[mx, my]]), np.array([th])
        )
        c0, c1 = t.row_interval(0, 0, y, 16)
        first, steps = binary_search_first_fragment(t, 0, 0, y, 16)
        if c1 < c0:
            assert first == -1
        else:
            assert first == c0
            last = walk_last_fragment(t, 0, 0, y, first, 16)
            assert last == c1
        assert steps <= int(np.ceil(np.log2(16))) + 1

    def test_step1_rejects_distant_rows_without_search(self):
        conic = np.array([[1.0, 0.0, 1.0]])
        t = compute_transforms(conic, np.array([[8.0, 100.0]]), np.array([9.0]))
        first, steps = binary_search_first_fragment(t, 0, 0, 0, 16)
        assert first == -1 and steps == 0

    def test_step2_leftmost_inside_without_search(self):
        conic = np.array([[0.05, 0.0, 0.05]])  # huge footprint
        t = compute_transforms(conic, np.array([[8.0, 8.0]]), np.array([9.0]))
        first, steps = binary_search_first_fragment(t, 0, 0, 8, 16)
        assert first == 0 and steps == 0

    def test_step3_sign_agreement_skips(self):
        # Gaussian entirely to the left of the tile.
        conic = np.array([[1.0, 0.0, 1.0]])
        t = compute_transforms(conic, np.array([[-10.0, 8.0]]), np.array([4.0]))
        first, steps = binary_search_first_fragment(t, 0, 0, 8, 16)
        assert first == -1 and steps == 0
