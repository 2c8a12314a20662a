"""Differential tests for the kernel plane's cached and pooled paths.

``warp_perspective`` samples through a per-geometry table and the
``WeightPack`` path of ``vit_forward`` runs in pooled buffers.  Both
must reproduce the direct per-call math bit for bit: the reference
copies below write that math out directly (per-call coordinates and a
masked bilinear gather; fresh arrays per op with a split-copy
attention), and generated inputs run through both.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import synth_crsa_frame
from repro.models import functional
from repro.models.vit import VIT_CONFIGS
from repro.models.workspace import WeightPack
from repro.preprocessing import ops


# ----------------------------------------------------------------------
# Warp: sampling table vs per-call coordinates
# ----------------------------------------------------------------------

def _gather_reference(image, xs, ys):
    """Per-call bilinear sampling with edge-clamped taps."""
    h, w = image.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[..., None]
    fy = np.clip(ys - y0, 0.0, 1.0)[..., None]
    img = image.astype(np.float32) if image.dtype == np.uint8 else image
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def _warp_reference(image, homography, out_h, out_w):
    """Per-call inverse mapping, gather, then the out-of-frame mask."""
    inv = np.linalg.inv(np.asarray(homography, dtype=np.float64))
    grid_x, grid_y = np.meshgrid(np.arange(out_w, dtype=np.float64),
                                 np.arange(out_h, dtype=np.float64))
    coords = np.stack([grid_x, grid_y, np.ones_like(grid_x)],
                      axis=0).reshape(3, -1)
    mapped = inv @ coords
    with np.errstate(divide="ignore", invalid="ignore"):
        src_x = (mapped[0] / mapped[2]).reshape(out_h, out_w)
        src_y = (mapped[1] / mapped[2]).reshape(out_h, out_w)
    src_x = np.nan_to_num(src_x, nan=-1.0)
    src_y = np.nan_to_num(src_y, nan=-1.0)
    out = _gather_reference(image, src_x, src_y)
    h, w = image.shape[:2]
    inside = ((src_x >= -0.5) & (src_x <= w - 0.5)
              & (src_y >= -0.5) & (src_y <= h - 0.5))
    out *= inside[..., None]
    return out.astype(np.float32)


def _image(seed, h, w, channels, dtype):
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        return rng.integers(0, 256, (h, w, channels)).astype(np.uint8)
    return rng.normal(0.0, 60.0, (h, w, channels)).astype(np.float32)


#: A homography whose inverse is exact and maps output pixel (0, 0) to
#: (0, 1, 0): a zero denominator with a zero x numerator (the
#: ``nan_to_num`` NaN path) and an infinite y.
ZERO_DENOM = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -1.0]

dims = st.integers(1, 24)


@given(h=dims, w=dims, out_h=dims, out_w=dims,
       channels=st.sampled_from([1, 3]),
       dtype=st.sampled_from(["uint8", "float32"]),
       entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       seed=st.integers(0, 2 ** 16))
@example(h=9, w=7, out_h=5, out_w=6, channels=3, dtype="uint8",
         entries=None, seed=1)
@settings(max_examples=80, deadline=None)
def test_warp_table_matches_per_call_math(h, w, out_h, out_w, channels,
                                          dtype, entries, seed):
    if entries is None:
        hom = np.array(ZERO_DENOM).reshape(3, 3)
    else:
        # Affine part up to ±0.5 per axis and ±12 px of shift (samples
        # leave the frame); projective terms up to ±0.1 per pixel, so
        # the denominator crosses zero inside many output grids.
        scale = np.array([0.5, 0.5, 12.0, 0.5, 0.5, 12.0, 0.1, 0.1])
        hom = np.append(np.asarray(entries) * scale, 0.0).reshape(3, 3)
        hom += np.eye(3)
        assume(abs(np.linalg.det(hom)) > 1e-3)
    image = _image(seed, h, w, channels, dtype)
    with np.errstate(invalid="ignore"):
        expected = _warp_reference(image, hom, out_h, out_w)
        got = ops.warp_perspective(image, hom, out_h, out_w)
    assert got.dtype == np.float32 and got.shape == expected.shape
    assert got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got, expected)


def test_zero_denominator_case_takes_the_nan_path():
    inv = np.linalg.inv(np.array(ZERO_DENOM).reshape(3, 3))
    mapped = inv @ np.array([0.0, 0.0, 1.0])
    assert mapped[0] == 0.0 and mapped[2] == 0.0 and mapped[1] != 0.0


@pytest.mark.parametrize("dtype", ["uint8", "float32"])
def test_crsa_frame_bytes_identical(dtype):
    frame = synth_crsa_frame(160, 120, np.random.default_rng(4),
                             grid_spacing=20)
    if dtype == "float32":
        frame = frame.astype(np.float32) / 255.0
    hom = ops.ground_plane_homography(160, 120)
    expected = _warp_reference(frame, hom, 120, 160)
    assert ops.warp_perspective(frame, hom, 120, 160).tobytes() \
        == expected.tobytes()


def _cached_table(hom, h, w, out_h, out_w):
    key = (np.asarray(hom, dtype=np.float64).tobytes(), h, w, out_h, out_w)
    return ops._WARP_TABLES._entries[key]


class TestWarpTableCache:
    def test_homographies_at_one_size_get_distinct_tables(self):
        shifted = np.eye(3)
        shifted[0, 2] = 2.5
        image = _image(0, 30, 40, 3, "uint8")
        for hom in (np.eye(3), shifted):
            ops.warp_perspective(image, hom, 30, 40)
        plain = _cached_table(np.eye(3), 30, 40, 30, 40)
        moved = _cached_table(shifted, 30, 40, 30, 40)
        assert not np.array_equal(plain[1], moved[1])

    def test_input_sizes_with_one_homography_get_distinct_tables(self):
        hom = ops.ground_plane_homography(40, 30)
        for h, w in ((30, 40), (24, 32)):
            ops.warp_perspective(_image(1, h, w, 1, "uint8"), hom, 30, 40)
        large = _cached_table(hom, 30, 40, 30, 40)
        small = _cached_table(hom, 24, 32, 30, 40)
        assert not np.array_equal(large[0], small[0])

    def test_tables_are_read_only(self):
        hom = ops.ground_plane_homography(20, 10)
        ops.warp_perspective(_image(2, 10, 20, 3, "uint8"), hom, 10, 20)
        for array in _cached_table(hom, 10, 20, 10, 20):
            assert not array.flags.writeable

    def test_crsa_table_fits_rss_budget(self):
        # One int32 tap index and two float64 fractions per output
        # pixel.  The budget is 1.5 MB in perfbench's peak_rss_mb unit
        # (MiB): the kernels_frames bound on peak RSS is 4%.
        hom = ops.ground_plane_homography(320, 240)
        ops.warp_perspective(_image(3, 240, 320, 3, "uint8"), hom, 240, 320)
        table = _cached_table(hom, 240, 320, 240, 320)
        assert [a.dtype for a in table] == [np.int32, np.float64,
                                            np.float64]
        assert sum(a.nbytes for a in table) <= 1.5 * 2 ** 20


def test_warp_rejects_non_hwc_input():
    with pytest.raises(ValueError, match="H, W, C"):
        ops.warp_perspective(np.zeros((4, 4)), np.eye(3), 4, 4)


# ----------------------------------------------------------------------
# ViT forward: pooled pack path vs fresh arrays per op
# ----------------------------------------------------------------------

def _layernorm_reference(x, gamma, beta, eps=1e-6):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _linear_reference(x, weight, bias, pack):
    return x @ pack.linear_operand(weight) + bias


def _gelu_reference(x):
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= math.sqrt(2.0 / math.pi)
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def _attention_reference(qkv, heads):
    n, t, three_d = qkv.shape
    d = three_d // 3
    head_dim = d // heads
    split = np.ascontiguousarray(
        qkv.reshape(n, t, 3, heads, head_dim).transpose(2, 0, 3, 1, 4))
    q, k, v = split
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= math.sqrt(head_dim)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    ctx = scores @ v
    return np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(n, t, d)


def _vit_reference(cfg, weights, x, pack, return_features=False):
    """The pack path with a fresh array per op (conv2d is shared)."""
    n = x.shape[0]
    tokens = functional.conv2d(x, weights["patch_embed.weight"],
                               weights["patch_embed.bias"],
                               stride=cfg.patch_size, pack=pack)
    tokens = tokens.reshape(n, cfg.dim, -1).transpose(0, 2, 1)
    cls = np.broadcast_to(weights["cls_token"], (n, 1, cfg.dim))
    seq = np.concatenate([cls, tokens], axis=1) + weights["pos_embed"]
    for i in range(cfg.depth):
        p = f"block{i}"
        y = _layernorm_reference(seq, weights[f"{p}.norm1.gamma"],
                                 weights[f"{p}.norm1.beta"])
        qkv = _linear_reference(y, weights[f"{p}.qkv.weight"],
                                weights[f"{p}.qkv.bias"], pack)
        seq = seq + _linear_reference(
            _attention_reference(qkv, cfg.heads),
            weights[f"{p}.proj.weight"], weights[f"{p}.proj.bias"], pack)
        y = _layernorm_reference(seq, weights[f"{p}.norm2.gamma"],
                                 weights[f"{p}.norm2.beta"])
        y = _gelu_reference(_linear_reference(
            y, weights[f"{p}.fc1.weight"], weights[f"{p}.fc1.bias"], pack))
        seq = seq + _linear_reference(y, weights[f"{p}.fc2.weight"],
                                      weights[f"{p}.fc2.bias"], pack)
    seq = _layernorm_reference(seq, weights["norm.gamma"],
                               weights["norm.beta"])
    if return_features:
        return seq[:, 0]
    return _linear_reference(seq[:, 0], weights["head.weight"],
                             weights["head.bias"], pack)


@pytest.fixture(scope="module")
def tiny():
    cfg = VIT_CONFIGS["vit_tiny"]
    weights = functional.init_vit_weights(cfg, seed=5)
    rng = np.random.default_rng(8)
    inputs = [rng.standard_normal((2, 3, cfg.img_size, cfg.img_size))
              .astype(np.float32) for _ in range(2)]
    return cfg, weights, inputs


class TestPooledForward:
    def test_logits_and_features_bit_identical_to_reference(self, tiny):
        cfg, weights, (x, _) = tiny
        pack = WeightPack(weights)
        for features in (False, True):
            got = functional.vit_forward(cfg, weights, x, pack=pack,
                                         return_features=features)
            expected = _vit_reference(cfg, weights, x, pack, features)
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_outputs_survive_the_next_call(self, tiny):
        cfg, weights, (first, second) = tiny
        pack = WeightPack(weights)
        saved_weights = {k: v.copy() for k, v in weights.items()}
        saved_input = first.copy()
        logits = functional.vit_forward(cfg, weights, first, pack=pack)
        features = functional.vit_forward(cfg, weights, first, pack=pack,
                                          return_features=True)
        kept = logits.copy(), features.copy()
        functional.vit_forward(cfg, weights, second, pack=pack)
        functional.vit_forward(cfg, weights, second, pack=pack,
                               return_features=True)
        assert np.array_equal(logits, kept[0])
        assert np.array_equal(features, kept[1])
        assert np.array_equal(first, saved_input)
        assert weights.keys() == saved_weights.keys()
        assert all(np.array_equal(weights[k], v)
                   for k, v in saved_weights.items())
        pooled = list(pack.arena._buffers.values())
        assert pooled
        for out in (logits, features):
            assert not any(np.shares_memory(out, buf) for buf in pooled)

    def test_steady_state_reuses_the_pool(self, tiny):
        cfg, weights, (x, _) = tiny
        pack = WeightPack(weights)
        functional.vit_forward(cfg, weights, x, pack=pack)
        buffers = len(pack.arena)
        functional.vit_forward(cfg, weights, x, pack=pack)
        assert len(pack.arena) == buffers
