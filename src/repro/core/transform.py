"""The IRSS two-step coordinate transformation (Sec. IV-B).

The paper exposes sharable intermediates by transforming pixel
coordinates twice:

* ``P -> P'``: an eigenvalue decomposition of the conic
  ``Sigma*^-1 = Q D Q^T`` gives ``P' = D^{1/2} Q^T (P - mu*)`` so that
  Eq. 7 equals ``||P'||^2`` — the anisotropic Gaussian becomes an
  isotropic circle (Fig. 7b).
* ``P' -> P''``: a rotation ``Theta`` aligns the inter-column step
  ``Delta P'`` with the x''-axis (Fig. 7c), so that moving one pixel
  right changes only ``x''`` and ``y''^2`` is constant along a row.

The composition ``U = Theta D^{1/2} Q^T`` maps the column step to
``(dx'', 0)`` and is therefore *upper triangular* with positive
diagonal — i.e. the two-step transform is exactly the Cholesky factor
of the conic:

    U = [[sqrt(a),  b / sqrt(a)          ],
         [0,        sqrt(c - b^2 / a)    ]],    U^T U = Sigma*^-1.

Both construction routes are implemented; a property test asserts they
agree (up to the sign of each row, which does not affect distances).
All quantities needed by the hardware are derived here:
``dx'' = sqrt(a)`` (column step), the row steps, and the per-row
closed-form intersection interval used for redundancy skipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

# Guard against degenerate conics; dilation in projection keeps
# eigenvalues well above this in practice.
_MIN_DIAG = 1e-12


@dataclass
class IRSSTransform:
    """Per-Gaussian IRSS stepping coefficients, vectorized over M
    Gaussians.

    With ``U`` the upper-triangular transform and pixel centers
    ``P = (x + 0.5, y + 0.5)``, the transformed coordinates obey:

    * moving right one pixel:  ``x'' += dx_col``; ``y''`` unchanged,
    * moving down one pixel:   ``x'' += dx_row``; ``y'' += dy_row``.

    Attributes
    ----------
    u00, u01, u11:
        Entries of ``U`` (``u10`` is zero by construction).
    means2d:
        (M, 2) screen-space centers the transforms are anchored at.
    thresholds:
        (M,) Mahalanobis-squared truncation thresholds ``Th``.
    """

    u00: np.ndarray
    u01: np.ndarray
    u11: np.ndarray
    means2d: np.ndarray
    thresholds: np.ndarray

    def __len__(self) -> int:
        return self.u00.shape[0]

    # -- per-Gaussian steps ------------------------------------------------
    @property
    def dx_col(self) -> np.ndarray:
        """x'' increment per one-pixel step right (= sqrt(conic a))."""
        return self.u00

    @property
    def dx_row(self) -> np.ndarray:
        """x'' increment per one-pixel step down."""
        return self.u01

    @property
    def dy_row(self) -> np.ndarray:
        """y'' increment per one-pixel step down."""
        return self.u11

    def mahalanobis_sq(self, index: int, points: np.ndarray) -> np.ndarray:
        """Eq. 7 via ``||P''||^2`` for a batch of pixel-space points."""
        points = np.asarray(points, dtype=np.float64)
        d = points - self.means2d[index]
        xpp = self.u00[index] * d[:, 0] + self.u01[index] * d[:, 1]
        ypp = self.u11[index] * d[:, 1]
        return xpp * xpp + ypp * ypp

    # -- row geometry ------------------------------------------------------
    def row_start(self, index: int, x0: float, y: float) -> tuple[float, float]:
        """(x'', y'') of the pixel center ``(x0 + 0.5, y + 0.5)``.

        ``x0`` and ``y`` are integer pixel coordinates of a row's
        leftmost fragment (e.g. a tile's left edge).
        """
        dx = x0 + 0.5 - self.means2d[index, 0]
        dy = y + 0.5 - self.means2d[index, 1]
        return (
            float(self.u00[index] * dx + self.u01[index] * dy),
            float(self.u11[index] * dy),
        )

    def row_interval(
        self, index: int, x0: int, y: int, width: int
    ) -> tuple[int, int]:
        """Closed-form first/last significant column in a row.

        Returns column offsets ``(c0, c1)`` relative to ``x0`` such
        that pixel centers ``x0 + c`` for ``c in [c0, c1]`` satisfy
        ``x''^2 + y''^2 <= Th``; returns ``(0, -1)`` when the row does
        not intersect the truncated Gaussian.  This is the oracle the
        hardware's binary search must agree with (Sec. IV-C).
        """
        th = float(self.thresholds[index])
        x_start, ypp = self.row_start(index, x0, y)
        y_sq = ypp * ypp
        remaining = th - y_sq
        if remaining < 0.0:
            return (0, -1)
        half_width = np.sqrt(remaining)
        dx = float(self.u00[index])
        if dx <= 0.0:
            raise ValidationError("dx_col must be positive for a valid conic")
        # x''(c) = x_start + c * dx in [-half_width, +half_width].
        c0 = int(np.ceil((-half_width - x_start) / dx))
        c1 = int(np.floor((half_width - x_start) / dx))
        # The sqrt bounds can miss a boundary tie by a column; settle
        # both ends on the test the search and the walk use.
        inside = lambda c: _inside(x_start, y_sq, dx, th, c)
        while inside(c0 - 1):
            c0 -= 1
        while c0 <= c1 and not inside(c0):
            c0 += 1
        while inside(c1 + 1):
            c1 += 1
        while c1 >= c0 and not inside(c1):
            c1 -= 1
        c0 = max(c0, 0)
        c1 = min(c1, width - 1)
        if c0 > c1:
            return (0, -1)
        return (c0, c1)


def _validate_conics(conics: np.ndarray) -> np.ndarray:
    conics = np.asarray(conics, dtype=np.float64)
    if conics.ndim != 2 or conics.shape[1] != 3:
        raise ValidationError(f"conics must be (M, 3), got {conics.shape}")
    return conics


def compute_transforms(
    conics: np.ndarray, means2d: np.ndarray, thresholds: np.ndarray
) -> IRSSTransform:
    """Build IRSS transforms for all Gaussians via Cholesky (fast path).

    The conic ``[[a, b], [b, c]]`` must be symmetric positive definite
    (guaranteed by the low-pass dilation in projection).  The Cholesky
    factorization is algebraically identical to the paper's EVD +
    rotation construction (see module docstring); the EVD route is
    kept in :func:`compute_transforms_evd` for validation.
    """
    conics = _validate_conics(conics)
    means2d = np.asarray(means2d, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    a = conics[:, 0]
    b = conics[:, 1]
    c = conics[:, 2]
    if np.any(a <= _MIN_DIAG):
        raise ValidationError("conic 'a' entries must be positive")
    u00 = np.sqrt(a)
    u01 = b / u00
    rest = c - u01 * u01
    if np.any(rest <= _MIN_DIAG):
        raise ValidationError("conic is not positive definite")
    u11 = np.sqrt(rest)
    return IRSSTransform(
        u00=u00, u01=u01, u11=u11, means2d=means2d, thresholds=thresholds
    )


def compute_transforms_evd(
    conics: np.ndarray, means2d: np.ndarray, thresholds: np.ndarray
) -> IRSSTransform:
    """Build IRSS transforms following the paper's construction
    literally: EVD of the conic, then the row-aligning rotation.

    For each Gaussian:

    1. ``Sigma*^-1 = Q D Q^T``  (Eq. 8-9), giving ``M = D^{1/2} Q^T``
       with ``P' = M (P - mu*)``.
    2. ``Delta P' = M e_x`` is the inter-column step; ``Theta`` rotates
       it onto the x'-axis (Eq. 13).
    3. ``U = Theta M``; the signs of the rows are normalized so the
       diagonal is positive (a reflection does not change ``||P''||``).
    """
    conics = _validate_conics(conics)
    means2d = np.asarray(means2d, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    m = conics.shape[0]
    u00 = np.empty(m)
    u01 = np.empty(m)
    u11 = np.empty(m)
    for i in range(m):
        a, b, c = conics[i]
        mat = np.array([[a, b], [b, c]])
        eigenvalues, q = np.linalg.eigh(mat)
        if np.any(eigenvalues <= _MIN_DIAG):
            raise ValidationError("conic is not positive definite")
        half = np.diag(np.sqrt(eigenvalues)) @ q.T
        step = half @ np.array([1.0, 0.0])
        norm = np.linalg.norm(step)
        cos_t = step[0] / norm
        sin_t = step[1] / norm
        theta = np.array([[cos_t, sin_t], [-sin_t, cos_t]])
        u = theta @ half
        # Theta maps the column step to (norm, 0); numerical noise can
        # leave a tiny u[1, 0], which we zero by construction.
        if u[1, 1] < 0:
            u[1, :] = -u[1, :]
        u00[i] = u[0, 0]
        u01[i] = u[0, 1]
        u11[i] = u[1, 1]
    return IRSSTransform(
        u00=u00, u01=u01, u11=u11, means2d=means2d, thresholds=thresholds
    )


def _inside(x_start: float, y_sq: float, dx: float, th: float, col: int) -> bool:
    """Eq. 7 at column ``col`` of a row: ``x''(col)^2 + y''^2 <= Th``.

    ``x''(col) = x_start + col * dx`` is evaluated exactly as the
    renderers shade it.  :meth:`IRSSTransform.row_interval`, the binary
    search and the walk-off all decide membership here, so they agree
    on columns that lie exactly on the threshold ellipse.
    """
    xpp = x_start + col * dx
    return xpp * xpp + y_sq <= th


def binary_search_first_fragment(
    transform: IRSSTransform, index: int, x0: int, y: int, width: int
) -> tuple[int, int]:
    """The hardware's 3-step first-fragment location (Sec. IV-C).

    Implements the paper's algorithm literally and returns
    ``(first_column, search_steps)`` where ``search_steps`` counts the
    binary-search iterations the Row Generation Engine would spend
    (zero when steps 1-2 decide immediately).  Returns ``(-1, steps)``
    when no fragment in the row intersects the Gaussian.
    """
    th = float(transform.thresholds[index])
    x_start, ypp = transform.row_start(index, x0, y)
    y_sq = ypp * ypp
    # Step 1: whole-row rejection on y''^2.
    if y_sq > th:
        return (-1, 0)
    dx = float(transform.u00[index])
    # Step 2: leftmost fragment already inside.
    if _inside(x_start, y_sq, dx, th, 0):
        return (0, 0)
    # Step 3: sign agreement means the ellipse lies left of the tile
    # (x'' grows away from zero) -> no intersection in this tile...
    if x_start > 0.0 and dx > 0.0:
        return (-1, 0)
    # ...otherwise binary search for the first inside column.
    lo, hi = 0, width - 1
    steps = 0
    # Invariant: column lo-1 (or the left edge) is outside; search the
    # first c with x''(c)^2 + y''^2 <= th.
    first = -1
    while lo <= hi:
        steps += 1
        midpoint = (lo + hi) // 2
        if _inside(x_start, y_sq, dx, th, midpoint):
            first = midpoint
            hi = midpoint - 1
        else:
            # Decide which side of the circle we are on.
            if x_start + midpoint * dx < 0.0:
                lo = midpoint + 1
            else:
                hi = midpoint - 1
    return (first, steps)


def walk_last_fragment(
    transform: IRSSTransform, index: int, x0: int, y: int, first: int, width: int
) -> int:
    """Sequential walk-off detection of the last fragment (Sec. IV-C).

    Starting from ``first``, steps right until ``x''^2 + y''^2 > Th``;
    the previous column is the last significant fragment.  This mirrors
    the Row PE behavior: the walk itself is the shading loop, so it
    costs no extra cycles.  Each step evaluates ``x''`` as the shading
    does (``x_start + col * dx``) rather than accumulating ``dx``, so
    the walk ends where :meth:`IRSSTransform.row_interval` does.
    """
    th = float(transform.thresholds[index])
    x_start, ypp = transform.row_start(index, x0, y)
    y_sq = ypp * ypp
    dx = float(transform.u00[index])
    col = first
    while col < width:
        if not _inside(x_start, y_sq, dx, th, col):
            return col - 1
        col += 1
    return width - 1
