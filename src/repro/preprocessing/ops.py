"""Vectorized NumPy implementations of every preprocessing op.

All ops take ``(H, W, C)`` float or uint8 arrays and are loop-free over
pixels (gather-based bilinear sampling), per the HPC guides.  The
perspective pathway is real: :func:`solve_homography` solves the 8-DOF
direct linear transform from four point correspondences and
:func:`warp_perspective` inverse-maps through it with bilinear sampling —
the op the CRSA ground-vehicle feed needs (Section 3.2).
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class _GridCache:
    """Bounded FIFO cache for sampling grids and tables.

    A preprocessing pipeline resizes (or warps) a stream of same-shaped
    frames, recomputing identical sampling coordinates per frame; those
    depend only on the geometry, so they are cached keyed by it.
    Entries are marked read-only — downstream math never writes into
    them.  The bound keeps a long multi-resolution sweep from pinning
    every geometry it ever saw.
    """

    def __init__(self, maxsize: int = 8):
        self.maxsize = maxsize
        self._entries: dict[tuple, tuple[Array, ...]] = {}

    def get(self, key: tuple, build) -> tuple[Array, ...]:
        grids = self._entries.get(key)
        if grids is None:
            grids = build()
            for g in grids:
                g.setflags(write=False)
            if len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = grids
        return grids


_RESIZE_GRIDS = _GridCache()
_WARP_TABLES = _GridCache()


def _as_float(image: Array) -> Array:
    if image.dtype == np.uint8:
        return image.astype(np.float32)
    return image


def _bilinear_gather(image: Array, xs: Array, ys: Array) -> Array:
    """Sample ``image`` at float coordinates (vectorized bilinear).

    ``xs``/``ys`` are same-shaped float arrays of source coordinates;
    out-of-bounds samples clamp to the edge.
    """
    h, w = image.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[..., None]
    fy = np.clip(ys - y0, 0.0, 1.0)[..., None]

    img = _as_float(image)
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def resize_bilinear(image: Array, out_h: int, out_w: int) -> Array:
    """Bilinear resize of ``(H, W, C)`` to ``(out_h, out_w, C)`` float32.

    Uses the half-pixel-centers convention (matches torchvision's
    ``antialias=False`` bilinear for upscaling).
    """
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    if min(out_h, out_w) < 1:
        raise ValueError("output size must be positive")
    h, w = image.shape[:2]

    def build() -> tuple[Array, Array]:
        scale_y, scale_x = h / out_h, w / out_w
        ys = (np.arange(out_h, dtype=np.float32) + 0.5) * scale_y - 0.5
        xs = (np.arange(out_w, dtype=np.float32) + 0.5) * scale_x - 0.5
        return tuple(np.meshgrid(xs, ys))

    grid_x, grid_y = _RESIZE_GRIDS.get((h, w, out_h, out_w), build)
    return _bilinear_gather(image, grid_x, grid_y).astype(np.float32)


def center_crop(image: Array, crop_h: int, crop_w: int) -> Array:
    """Center crop; the image must be at least the crop size."""
    h, w = image.shape[:2]
    if crop_h > h or crop_w > w:
        raise ValueError(
            f"crop {crop_h}x{crop_w} exceeds image {h}x{w}")
    top = (h - crop_h) // 2
    left = (w - crop_w) // 2
    return image[top:top + crop_h, left:left + crop_w]


def normalize(image: Array, mean: Array, std: Array) -> Array:
    """Scale uint8 [0,255] to [0,1] then per-channel standardize."""
    mean = np.asarray(mean, dtype=np.float32)
    std = np.asarray(std, dtype=np.float32)
    if np.any(std <= 0):
        raise ValueError("std must be positive")
    c = image.shape[-1]
    if mean.shape != (c,) or std.shape != (c,):
        raise ValueError(
            f"mean/std must have shape ({c},), got {mean.shape}/{std.shape}")
    scaled = _as_float(image) / 255.0
    return ((scaled - mean) / std).astype(np.float32)


def to_chw(image: Array) -> Array:
    """``(H, W, C)`` → ``(C, H, W)`` (the model input layout)."""
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    return np.ascontiguousarray(image.transpose(2, 0, 1))


# ----------------------------------------------------------------------
# Perspective transform (the CRSA dataset-specific op)
# ----------------------------------------------------------------------

def solve_homography(src: Array, dst: Array) -> Array:
    """3×3 homography mapping 4 source points to 4 destination points.

    Direct linear transform: stack the 8 linear constraints with h33 = 1
    and solve the 8×8 system.  Raises for degenerate (collinear) inputs.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != (4, 2) or dst.shape != (4, 2):
        raise ValueError("need exactly four (x, y) point pairs")
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        b[2 * i] = u
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate point configuration: {exc}") from exc
    return np.append(h, 1.0).reshape(3, 3)


def _warp_table(homography: Array, h: int, w: int,
                out_h: int, out_w: int) -> tuple[Array, Array, Array]:
    """The per-geometry sampling table of :func:`warp_perspective`.

    Returns ``(base, fx, fy)`` over the ``out_h * out_w`` output pixels:
    ``base`` (int32) is the flat index of each sample's top-left tap in
    the edge-padded planar source that :func:`warp_perspective` builds
    (row stride ``w + 1``), and ``fx``/``fy`` (float64) are its
    bilinear fractions.  Clamping the right and bottom taps to the edge
    becomes the padding column and row; a sample outside the source
    frame points all four taps at the zero block after the padded
    grid, so it reads 0, the value of a masked lerp.  Every
    coordinate is computed with the same operations as per-call
    sampling, so the table reproduces it bit for bit.
    """
    inv = np.linalg.inv(homography)
    xs = np.arange(out_w, dtype=np.float64)
    ys = np.arange(out_h, dtype=np.float64)
    grid_x, grid_y = np.meshgrid(xs, ys)
    coords = np.stack([grid_x, grid_y, np.ones_like(grid_x)],
                      axis=0).reshape(3, -1)
    mapped = inv @ coords
    denom = mapped[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        src_x = mapped[0] / denom
        src_y = mapped[1] / denom
    src_x = np.nan_to_num(src_x, nan=-1.0)
    src_y = np.nan_to_num(src_y, nan=-1.0)
    x0 = np.clip(np.floor(src_x).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(src_y).astype(np.int64), 0, h - 1)
    fx = np.clip(src_x - x0, 0.0, 1.0)
    fy = np.clip(src_y - y0, 0.0, 1.0)
    inside = ((src_x >= -0.5) & (src_x <= w - 0.5)
              & (src_y >= -0.5) & (src_y <= h - 0.5))
    stride = w + 1
    base = np.where(inside, y0 * stride + x0,
                    (h + 1) * stride).astype(np.int32)
    return base, fx, fy


def warp_perspective(image: Array, homography: Array,
                     out_h: int, out_w: int) -> Array:
    """Warp ``image`` through ``homography`` (dst→src inverse mapping).

    ``homography`` maps *source* to *destination* coordinates (the
    :func:`solve_homography` convention); sampling inverts it.  Output
    pixels whose source falls outside the frame are 0.

    The sampling table (taps and bilinear fractions) depends only on
    the homography and the input/output sizes, so it is built once per
    geometry and cached; each frame then gathers its four taps from the
    raw (uint8) pixels and runs the float64 lerp.
    """
    homography = np.asarray(homography, dtype=np.float64)
    if homography.shape != (3, 3):
        raise ValueError("homography must be 3x3")
    if min(out_h, out_w) < 1:
        raise ValueError("output size must be positive")
    if image.ndim != 3:
        raise ValueError(f"expected (H, W, C), got shape {image.shape}")
    h, w, c = image.shape
    base, fx, fy = _WARP_TABLES.get(
        (homography.tobytes(), h, w, out_h, out_w),
        lambda: _warp_table(homography, h, w, out_h, out_w))

    # Planar source, one padding column and row replicating the edge
    # (the clamped taps), then zeros for out-of-frame samples.
    stride = w + 1
    zeros_at = (h + 1) * stride
    src = np.empty((c, zeros_at + stride + 2), image.dtype)
    grid = src[:, :zeros_at].reshape(c, h + 1, stride)
    np.copyto(grid[:, :h, :w], image.transpose(2, 0, 1))
    grid[:, :h, w] = grid[:, :h, w - 1]
    grid[:, h] = grid[:, h - 1]
    src[:, zeros_at:] = 0

    left = 1.0 - fx
    top = np.multiply(src.take(base, axis=1), left)
    tap = np.multiply(src.take(base + 1, axis=1), fx)
    top += tap
    bottom = np.multiply(src.take(base + stride, axis=1), left)
    np.multiply(src.take(base + (stride + 1), axis=1), fx, out=tap)
    bottom += tap
    top *= 1.0 - fy
    bottom *= fy
    top += bottom
    out = np.empty((out_h, out_w, c), np.float32)
    np.copyto(out.reshape(-1, c).T, top)
    return out


def ground_plane_homography(width: int, height: int,
                            horizon_fraction: float = 0.35,
                            top_squeeze: float = 0.5) -> Array:
    """The rectifying homography for a forward-tilted vehicle camera.

    Maps the trapezoidal ground region (rows converging toward the
    vanishing point, as produced by
    :func:`repro.data.synthetic.synth_crsa_frame`) to a rectangle —
    the CRSA dataset-specific correction.  ``top_squeeze`` is the
    fraction of the frame width the ground plane spans at the horizon
    row (``horizon_fraction`` from the top).
    """
    if not 0.0 < horizon_fraction < 1.0:
        raise ValueError("horizon_fraction must be in (0, 1)")
    if not 0.0 < top_squeeze <= 1.0:
        raise ValueError("top_squeeze must be in (0, 1]")
    cx = width / 2.0
    y_top = height * horizon_fraction
    half_top = width * top_squeeze / 2.0
    src = np.array([
        [cx - half_top, y_top], [cx + half_top, y_top],
        [width - 1.0, height - 1.0], [0.0, height - 1.0],
    ])
    dst = np.array([
        [0.0, 0.0], [width - 1.0, 0.0],
        [width - 1.0, height - 1.0], [0.0, height - 1.0],
    ])
    return solve_homography(src, dst)
