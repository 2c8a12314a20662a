"""Perceptual frame fingerprinting for content-aware caching.

A fixed-mount field camera (the CRSA raw-capture scenario) produces
overwhelmingly redundant consecutive frames: the scene only changes when
a vehicle passes, lighting shifts, or the camera pans.  Exact byte
equality never fires on real sensors — thermal noise alone flips pixels
— so cache keys must be *perceptual*: two frames that look the same
must map to fingerprints within a small Hamming distance.

Two complementary signatures over the downsampled luma plane:

* **dHash** (difference hash): row-wise gradient signs over an
  ``hash_size x (hash_size + 1)`` block-mean grid.  Robust to global
  brightness/contrast shifts, sensitive to structural change.
* **block-mean signature**: each cell of a ``block_grid x block_grid``
  partition compared against the frame's mean luma.  Catches large
  uniform changes (a cloud shadow, a tarp over half the field) that
  leave local gradients untouched.

Both are bit strings; a :class:`FrameFingerprint` concatenates them and
matching is a single Hamming-distance test with a tunable threshold
(``threshold=0`` degenerates to exact fingerprint equality).  Everything
is plain NumPy and fully deterministic.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np


def luma(frame: np.ndarray) -> np.ndarray:
    """The luminance plane of a frame as float64 ``(H, W)``.

    Accepts grayscale ``(H, W)``, single-channel ``(H, W, 1)``, RGB
    ``(H, W, 3)`` (Rec. 601 weights), or any other channel count
    (plain channel mean).
    """
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (H, W) or (H, W, C) array, got shape "
            f"{arr.shape}")
    if arr.shape[2] == 1:
        return arr[..., 0]
    if arr.shape[2] == 3:
        return (0.299 * arr[..., 0] + 0.587 * arr[..., 1]
                + 0.114 * arr[..., 2])
    return arr.mean(axis=2)


def block_means(plane: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Area-mean downsample of a 2-D plane to ``(rows, cols)``.

    Cell boundaries come from ``np.linspace`` over each axis, so any
    input resolution works (no divisibility requirement) and the result
    is deterministic.  Inputs smaller than the grid repeat pixels.
    """
    if plane.ndim != 2:
        raise ValueError("block_means needs a 2-D plane")
    h, w = plane.shape
    if h < 1 or w < 1:
        raise ValueError("plane must be non-empty")
    # Integral image: every cell sum is four corner reads, gathered for
    # all cells at once.
    integral = np.zeros((h + 1, w + 1), dtype=np.float64)
    integral[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    ys = np.linspace(0, h, rows + 1).round().astype(np.int64)
    xs = np.linspace(0, w, cols + 1).round().astype(np.int64)
    # Degenerate cells (input smaller than the grid) borrow the nearest
    # pixel so every cell stays defined and non-empty.
    y0 = np.minimum(ys[:-1], h - 1)
    y1 = np.minimum(np.maximum(ys[1:], y0 + 1), h)
    x0 = np.minimum(xs[:-1], w - 1)
    x1 = np.minimum(np.maximum(xs[1:], x0 + 1), w)
    y0, y1 = y0[:, None], y1[:, None]
    total = (integral[y1, x1] - integral[y0, x1]
             - integral[y1, x0] + integral[y0, x0])
    return total / ((y1 - y0) * (x1 - x0))


def _pack_bits(bits: np.ndarray) -> int:
    """Fold a flat boolean array into an int, MSB first."""
    flat = bits.ravel()
    packed = int.from_bytes(np.packbits(flat).tobytes(), "big")
    # packbits zero-pads the last byte on the right.
    return packed >> (-flat.size % 8)


def dhash_bits(frame: np.ndarray, hash_size: int = 8) -> int:
    """The dHash of a frame: ``hash_size**2`` gradient-sign bits.

    Downsamples luma to ``hash_size x (hash_size + 1)`` block means and
    emits one bit per horizontally adjacent pair (left < right).  An
    all-uniform frame (e.g. all black) hashes to 0 — valid, and equal
    to every other uniform frame's hash, which is exactly the wanted
    semantics for a content-addressed cache.
    """
    if hash_size < 2:
        raise ValueError("hash_size must be >= 2")
    means = block_means(luma(frame), hash_size, hash_size + 1)
    return _pack_bits(means[:, :-1] < means[:, 1:])


def block_signature_bits(frame: np.ndarray, block_grid: int = 4) -> int:
    """Block-mean signature: one bit per cell (above frame mean).

    ``block_grid**2`` bits comparing each cell of a ``block_grid``
    square partition against the global mean luma.
    """
    if block_grid < 1:
        raise ValueError("block_grid must be >= 1")
    plane = luma(frame)
    means = block_means(plane, block_grid, block_grid)
    return _pack_bits(means > plane.mean())


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two fingerprint words."""
    return (a ^ b).bit_count()


@dataclasses.dataclass(frozen=True)
class FrameFingerprint:
    """A frame's perceptual identity: dHash + block-mean signature.

    Hashable and totally ordered by its packed bits, so fingerprints
    can key dicts, sort deterministically, and feed the TinyLFU
    frequency sketch directly.
    """

    dhash: int
    blocks: int
    hash_size: int = 8
    block_grid: int = 4

    def __post_init__(self) -> None:
        if self.hash_size < 2 or self.block_grid < 1:
            raise ValueError("invalid fingerprint geometry")
        # packed, and the cache index over it, assume each signature
        # fits its own bit field.
        if not (0 <= self.dhash < 1 << self.hash_size ** 2
                and 0 <= self.blocks < 1 << self.block_grid ** 2):
            raise ValueError(
                "dhash and blocks must fit the geometry's bit widths")

    @property
    def nbits(self) -> int:
        """Total bit width of the fingerprint."""
        return self.hash_size ** 2 + self.block_grid ** 2

    @functools.cached_property
    def packed(self) -> int:
        """Both signatures folded into one integer key.

        Computed once per fingerprint: the cache store reads it for
        every candidate it compares.  The Hamming distance between two
        fingerprints of one geometry is the popcount of their packed
        XOR.
        """
        return (self.dhash << (self.block_grid ** 2)) | self.blocks

    def distance(self, other: "FrameFingerprint") -> int:
        """Hamming distance to another fingerprint (same geometry)."""
        if (self.hash_size, self.block_grid) != (other.hash_size,
                                                 other.block_grid):
            raise ValueError(
                "cannot compare fingerprints of different geometry: "
                f"{self.hash_size}/{self.block_grid} vs "
                f"{other.hash_size}/{other.block_grid}")
        return hamming(self.dhash, other.dhash) + hamming(self.blocks,
                                                          other.blocks)

    def matches(self, other: "FrameFingerprint", threshold: int) -> bool:
        """Whether ``other`` is within ``threshold`` differing bits.

        ``threshold=0`` is exact-match mode: only bit-identical
        fingerprints hit.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        return self.distance(other) <= threshold


def fingerprint(frame: np.ndarray, hash_size: int = 8,
                block_grid: int = 4) -> FrameFingerprint:
    """Fingerprint one frame (any resolution, grayscale or color)."""
    # Both signatures read one luma plane; luma() passes a float64
    # plane through without copying it.
    plane = luma(frame)
    return FrameFingerprint(
        dhash=dhash_bits(plane, hash_size=hash_size),
        blocks=block_signature_bits(plane, block_grid=block_grid),
        hash_size=hash_size,
        block_grid=block_grid,
    )
