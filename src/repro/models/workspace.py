"""Reusable scratch buffers and pre-packed GEMM operands.

The functional models in :mod:`repro.models.functional` are allocation
-bound, not FLOP-bound, at characterization batch sizes: every conv
re-materializes its im2col patch matrix, every linear re-transposes its
weight for the GEMM, and every attention re-splits QKV into heads.  The
arithmetic is identical across calls — only the *buffers* churn.  This
module factors the churn out:

* :class:`WorkspaceArena` — a ``(tag, shape, dtype)``-keyed pool of
  scratch arrays.  A forward pass asks for its workspaces by role and
  shape; steady-state repeated inference (the serving replay pattern)
  reuses the same buffers with zero new allocations.
* :class:`WeightPack` — per-model GEMM-ready operands built once at
  model build time: linear weights stored pre-transposed and
  contiguous (``W.T``), conv weights stored as the flattened
  ``(C·k², out_c)`` matrix the im2col GEMM consumes.  Lookup is by the
  identity of the original weight array, so the op-level API
  (``linear(x, weight, ...)``) is unchanged — ops that receive a pack
  swap in the packed operand, ops that don't fall back to the seed
  math.

Nothing here changes results: the packed operand holds the same values
as the on-the-fly transpose it replaces, and arena buffers are fully
overwritten before use.
"""

from __future__ import annotations

import numpy as np


class WorkspaceArena:
    """A ``(tag, shape, dtype)``-keyed pool of reusable scratch arrays.

    ``take`` hands out a buffer that the caller must fully overwrite;
    the buffer stays parked under its key, so the next ``take`` with
    the same tag and shape returns the same memory.  Callers must
    therefore finish consuming a buffer before requesting the same key
    again; buffers of one shape that are live at the same time (the
    ViT residual stream and its normed copy) get distinct tags.
    Nothing a forward pass returns may alias a pooled buffer.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        """Distinct buffers currently pooled."""
        return len(self._buffers)

    @property
    def pooled_bytes(self) -> int:
        """Total bytes resident in the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def take(self, shape: tuple[int, ...], dtype=np.float32,
             tag: str = "") -> np.ndarray:
        """An uninitialized scratch array of the given shape/dtype."""
        key = (tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf


class WeightPack:
    """GEMM-ready operands for one model's weight dict, built once.

    Packs every 2D ``*.weight`` as a contiguous transpose (the ``x @
    W.T`` right operand) and every 4D conv kernel as the contiguous
    ``(in_c·k², out_c)`` matrix the im2col GEMM multiplies by.  Ops
    resolve packs by the original array's identity (:func:`id`), which
    stays valid because the pack keeps the source dict alive.
    """

    __slots__ = ("weights", "arena", "_linear_t", "_conv_mat")

    def __init__(self, weights: dict[str, np.ndarray],
                 arena: WorkspaceArena | None = None):
        self.weights = weights
        self.arena = arena if arena is not None else WorkspaceArena()
        self._linear_t: dict[int, np.ndarray] = {}
        self._conv_mat: dict[int, np.ndarray] = {}
        for name, w in weights.items():
            if not name.endswith((".weight", ".conv")):
                continue
            if w.ndim == 2:
                self._linear_t[id(w)] = np.ascontiguousarray(w.T)
            elif w.ndim == 4:
                out_c = w.shape[0]
                self._conv_mat[id(w)] = np.ascontiguousarray(
                    w.reshape(out_c, -1).T)

    def linear_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The pre-transposed operand for ``weight``, if packed."""
        return self._linear_t.get(id(weight))

    def conv_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The flattened im2col operand for ``weight``, if packed."""
        return self._conv_mat.get(id(weight))

    @property
    def packed_count(self) -> int:
        """Number of operands held by the pack."""
        return len(self._linear_t) + len(self._conv_mat)
