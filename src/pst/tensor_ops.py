"""Dense numeric primitives on row-major numpy arrays.

Shape conventions used throughout the package:

* feature map: float array of shape ``[C, H, W]``
* token matrix: float array of shape ``[N, d]``, flattened row-major from a
  grid, so token ``t`` of an ``H x W`` map sits at ``(t // W, t % W)``

Operations are pure. Inputs are never mutated; batch normalization returns
updated running statistics instead of writing them in place. Computation
happens in the dtype of the inputs (float32 or float64).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)

_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Validate that every op output is finite. Slow; meant for test runs."""
    global _debug_checks
    _debug_checks = bool(enabled)


def _checked(x: np.ndarray) -> np.ndarray:
    if _debug_checks and not np.all(np.isfinite(x)):
        raise NumericError("operation produced non-finite values")
    return x


def require_finite(*arrays: np.ndarray) -> None:
    """Raise :class:`NumericError` unless every array holds only finite values."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"input of shape {a.shape} holds non-finite values")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two rank-2 arrays."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    return _checked(a @ b)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a rank-2 array, stabilized by max subtraction."""
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a rank-2 array, got {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return _checked(e / e.sum(axis=1, keepdims=True))


def split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """View a [L, heads*d_head] token matrix as [heads, L, d_head]; no copy."""
    if heads == 1:
        return t[None]
    rows, dim = t.shape
    return t.reshape(rows, heads, dim // heads).transpose(1, 0, 2)


def merge_heads(t: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: [heads, L, d_head] to [L, heads*d_head].
    Copies only when there is more than one head."""
    heads, rows, d_head = t.shape
    if heads == 1:
        return t[0]
    return t.transpose(1, 0, 2).reshape(rows, heads * d_head)


# Logits held at once by one query-row tile of :func:`attention`, over all
# heads: 4 MiB of float32, where the full logits of one head at 16384 fine
# tokens take 256 MiB. A fixed size, not a knob.
ATTENTION_TILE_LOGITS = 1 << 20


def attention_weights_buffer(q: np.ndarray, k: np.ndarray, heads: int) -> np.ndarray:
    """An uninitialized [heads, N, M] array for :func:`attention` to fill."""
    return np.empty((heads, q.shape[0], k.shape[0]), dtype=np.result_type(q, k))


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
              weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention and its key scores.

    ``q`` is [N, d], ``k`` and ``v`` are [M, d]; head ``h`` owns columns
    ``h*d/heads`` to ``(h+1)*d/heads``. Returns ``(out, scores)``: ``out`` is
    [N, d]; ``scores`` is the float64 [M] mean post-softmax weight of each key
    over heads and queries, which sums to one.

    The scale ``1/sqrt(d_head)`` is folded into the queries, and all heads run
    as one batched matmul. Queries are walked in row tiles of about
    ``ATTENTION_TILE_LOGITS`` logits; every tile sees every key, so its softmax
    is exact. A tile is exponentiated in place after its row max is taken out;
    its rows of ``out`` are normalized after the value product, and its column
    sums, each row weighted by its inverse row sum, go into a float64
    accumulator. The [heads, N, M] post-softmax weights are written to
    ``weights`` only when that buffer is given.
    """
    if (q.ndim != 2 or k.ndim != 2 or v.shape != k.shape or k.shape[1] != q.shape[1]
            or not k.shape[0]):
        raise DimensionError(
            f"attention expects [N, d] queries and [M >= 1, d] keys and values, "
            f"got {q.shape}, {k.shape}, {v.shape}")
    n, dim = q.shape
    m = k.shape[0]
    if heads < 1 or dim % heads:
        raise DimensionError(f"width {dim} does not split into {heads} heads")
    if weights is not None and weights.shape != (heads, n, m):
        raise DimensionError(f"weights buffer {weights.shape} is not {(heads, n, m)}")
    dtype = np.result_type(q, k, v)
    qh = split_heads(q * dtype.type(1.0 / math.sqrt(dim // heads)), heads)
    kt = split_heads(k, heads).transpose(0, 2, 1)
    vh = split_heads(v, heads)
    out = np.empty((n, dim), dtype=dtype)
    out_h = split_heads(out, heads)
    rows = max(1, min(n, ATTENTION_TILE_LOGITS // (heads * m)))
    buffer = np.empty((heads, rows, m), dtype=dtype)
    colsum = np.zeros(m, dtype=np.float64)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        tile = buffer[:, : hi - lo]
        np.matmul(qh[:, lo:hi], kt, out=tile)
        tile -= tile.max(axis=2, keepdims=True)
        np.exp(tile, out=tile)
        inv = 1.0 / tile.sum(axis=2, keepdims=True)
        colsum += np.matmul(inv.transpose(0, 2, 1), tile).sum(axis=(0, 1))
        rows_out = out_h[:, lo:hi]
        np.matmul(tile, vh, out=rows_out)
        rows_out *= inv
        if weights is not None:
            np.multiply(tile, inv, out=weights[:, lo:hi])
    return _checked(out), colsum / (heads * n)


def conv1x1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise convolution: per-pixel linear map over channels.

    ``x`` is ``[C_in, H, W]``, ``w`` is ``[C_out, C_in]``.
    """
    if x.ndim != 3:
        raise DimensionError(f"conv1x1 expects a [C, H, W] input, got {x.shape}")
    if w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise DimensionError(f"conv1x1 weight {w.shape} does not match input channels of {x.shape}")
    c_in, h, wd = x.shape
    out = w @ x.reshape(c_in, h * wd)
    return _checked(out.reshape(w.shape[0], h, wd))


def depthwise_conv7x7(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-channel 7x7 spatial correlation with zero padding of 3.

    ``kernel`` is ``[C, 7, 7]``; output extents equal input extents. A delta
    kernel (1 at the center tap) reproduces the input exactly.
    """
    if x.ndim != 3:
        raise DimensionError(f"depthwise_conv7x7 expects a [C, H, W] input, got {x.shape}")
    c, h, w = x.shape
    if kernel.shape != (c, 7, 7):
        raise DimensionError(f"depthwise kernel {kernel.shape} does not match input {x.shape}")
    xp = np.zeros((c, h + 6, w + 6), dtype=x.dtype)
    xp[:, 3 : h + 3, 3 : w + 3] = x
    out = np.zeros_like(x)
    for u in range(7):
        for v in range(7):
            out += kernel[:, u, v][:, None, None] * xp[:, u : u + h, v : v + w]
    return _checked(out)


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    mode: str = "infer",
    channel_axis: int = 0,
    eps: float = 1e-5,
    momentum: float = 0.03,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel normalization followed by a learned affine.

    Train mode normalizes with batch statistics taken over every non-channel
    axis (biased variance) and returns running statistics advanced by
    ``momentum``; infer mode normalizes with the running statistics and
    returns them unchanged.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    channels = x.shape[channel_axis]
    for name, arr in (("gamma", gamma), ("beta", beta),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (channels,):
            raise DimensionError(
                f"batch_norm {name} has shape {arr.shape}, expected ({channels},)")
    if np.any(running_var < 0):
        raise StateCorruptionError("negative running variance")
    pshape = [1] * x.ndim
    pshape[channel_axis] = channels
    reduce_axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    if mode == "train":
        mean = x.mean(axis=reduce_axes)
        var = x.var(axis=reduce_axes)
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
        new_mean = running_mean
        new_var = running_var
    inv = 1.0 / np.sqrt(var.reshape(pshape) + eps)
    xhat = (x - mean.reshape(pshape)) * inv
    y = gamma.reshape(pshape) * xhat + beta.reshape(pshape)
    return _checked(y), new_mean, new_var


def upsample_nearest2x(x: np.ndarray) -> np.ndarray:
    """Replicate each pixel of a [C, H, W] map into a 2x2 block."""
    if x.ndim != 3:
        raise DimensionError(f"upsample_nearest2x expects a [C, H, W] input, got {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def downsample_avg2x(x: np.ndarray) -> np.ndarray:
    """Average non-overlapping 2x2 blocks of a [C, H, W] map."""
    if x.ndim != 3:
        raise DimensionError(f"downsample_avg2x expects a [C, H, W] input, got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"downsample_avg2x requires even extents, got {x.shape}")
    return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two feature maps along the channel axis."""
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError(f"concat_channels expects [C, H, W] inputs, got {a.shape}, {b.shape}")
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError(f"concat_channels spatial extents differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=0)


def map_to_tokens(x: np.ndarray) -> np.ndarray:
    """Flatten a [C, H, W] map to a [H*W, C] token matrix, row-major."""
    if x.ndim != 3:
        raise DimensionError(f"map_to_tokens expects a [C, H, W] input, got {x.shape}")
    c = x.shape[0]
    return np.ascontiguousarray(x.reshape(c, -1).T)


def tokens_to_map(t: np.ndarray, h: int, w: int) -> np.ndarray:
    """Inverse of :func:`map_to_tokens` for the given grid extents."""
    if t.ndim != 2:
        raise DimensionError(f"tokens_to_map expects a [N, d] input, got {t.shape}")
    if t.shape[0] != h * w:
        raise DimensionError(f"token count {t.shape[0]} does not match grid {h}x{w}")
    return np.ascontiguousarray(t.T).reshape(t.shape[1], h, w)


def gather_rows(t: np.ndarray, indices) -> np.ndarray:
    """Select rows of a token matrix. Indices may repeat; order is kept."""
    if t.ndim != 2:
        raise DimensionError(f"gather_rows expects a [N, d] input, got {t.shape}")
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    n = t.shape[0]
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0:
            raise GatherIndexError(lo, n)
        if hi >= n:
            raise GatherIndexError(hi, n)
    return t[idx]


def topk_indices(scores: np.ndarray, k: int, threshold: float) -> np.ndarray:
    """Indices of at most ``k`` scores strictly above ``threshold``.

    Ordered by descending score; ties broken by ascending index. The result
    is deterministic for identical inputs.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise DimensionError(f"topk_indices expects a rank-1 score vector, got {s.shape}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    keep = np.flatnonzero(s > threshold)
    if keep.size == 0 or k == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((keep, -s[keep]))
    return keep[order[:k]].astype(np.int64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _checked(out)


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x)."""
    return _checked(x * sigmoid(x))
