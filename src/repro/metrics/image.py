"""Image quality metrics: PSNR, SSIM, and an LPIPS proxy.

PSNR and SSIM follow their standard definitions.  LPIPS requires a
pretrained network unavailable offline, so :func:`lpips_proxy`
implements a deterministic multi-scale perceptual distance: a fixed,
seeded bank of random convolutional filters per scale, channel-wise
feature normalization, and averaged squared feature differences —
structurally the LPIPS recipe with random (untrained) features, which
is known to correlate with perceptual distance far better than pixel
MSE.  It is used only for *relative* comparisons (Tab. IV/V deltas);
see DESIGN.md, Substitution 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def _convolve_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D convolution over the positions where ``kernel`` fits fully
    inside ``img`` (``mode="valid"``)."""
    windows = np.lib.stride_tricks.sliding_window_view(img, kernel.shape)
    return np.einsum("ijkl,kl->ij", windows, kernel[::-1, ::-1])


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a_in = np.asarray(a)
    b_in = np.asarray(b)
    # Distinct errors per defect so callers (and their tests) can tell a
    # resolution mismatch from a representation mismatch: comparing a
    # float render against a uint8 one is a *units* bug (0..1 vs 0..255
    # against one data_range), not a resizing bug.
    if a_in.dtype.kind != b_in.dtype.kind:
        raise ValidationError(
            f"image dtypes differ in kind: {a_in.dtype} vs {b_in.dtype}; "
            "convert both to the same representation before comparing"
        )
    a = a_in.astype(np.float64)
    b = b_in.astype(np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ValidationError("images must be HxW or HxWxC")
    return a, b


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error."""
    a, b = _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher is better).

    Returns ``inf`` for identical images.
    """
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range * data_range / err))


def _to_gray(img: np.ndarray) -> np.ndarray:
    if img.ndim == 2:
        return img
    return img @ np.array([0.299, 0.587, 0.114])


def ssim(
    a: np.ndarray,
    b: np.ndarray,
    data_range: float = 1.0,
    window: int = 7,
) -> float:
    """Structural similarity (mean over a uniform-window map)."""
    a, b = _check_pair(a, b)
    x = _to_gray(a)
    y = _to_gray(b)
    if min(x.shape) < window:
        raise ValidationError("image smaller than the SSIM window")
    kernel = np.ones((window, window)) / (window * window)

    def filt(img: np.ndarray) -> np.ndarray:
        return _convolve_valid(img, kernel)

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_x = filt(x)
    mu_y = filt(y)
    xx = filt(x * x) - mu_x * mu_x
    yy = filt(y * y) - mu_y * mu_y
    xy = filt(x * y) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


class _RandomFeatureBank:
    """Fixed random conv filters for the LPIPS proxy (lazily built)."""

    _filters: list[np.ndarray] | None = None

    @classmethod
    def filters(cls) -> list[np.ndarray]:
        if cls._filters is None:
            rng = np.random.default_rng(1234567)
            banks = []
            for n_filters, size in ((8, 3), (8, 5), (8, 7)):
                bank = rng.normal(0.0, 1.0, size=(n_filters, 3, size, size))
                bank -= bank.mean(axis=(2, 3), keepdims=True)
                bank /= np.linalg.norm(bank, axis=(2, 3), keepdims=True) + 1e-12
                banks.append(bank)
            cls._filters = banks
        return cls._filters


def _features(img: np.ndarray, bank: np.ndarray, stride: int) -> np.ndarray:
    """Apply one filter bank (F, 3, k, k) to an HxWx3 image."""
    maps = []
    for f in bank:
        acc = None
        for ch in range(3):
            conv = _convolve_valid(img[:, :, ch], f[ch])
            acc = conv if acc is None else acc + conv
        maps.append(acc[::stride, ::stride])
    feats = np.stack(maps, axis=0)
    # LPIPS-style unit normalization across the channel axis.
    norm = np.sqrt((feats**2).sum(axis=0, keepdims=True)) + 1e-10
    return feats / norm


def lpips_proxy(a: np.ndarray, b: np.ndarray) -> float:
    """Deterministic perceptual distance (lower is better, 0 = equal).

    Three scales of random (fixed-seed) convolutional features,
    unit-normalized per position, squared differences averaged — the
    LPIPS computation with an untrained backbone.
    """
    a, b = _check_pair(a, b)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValidationError("lpips_proxy expects HxWx3 images")
    total = 0.0
    banks = _RandomFeatureBank.filters()
    for level, bank in enumerate(banks):
        stride = 2**level
        fa = _features(a, bank, stride)
        fb = _features(b, bank, stride)
        total += float(np.mean((fa - fb) ** 2))
    return total / len(banks)
