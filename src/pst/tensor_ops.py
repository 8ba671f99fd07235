"""Dense numeric primitives on row-major numpy arrays.

Shape conventions used throughout the package:

* feature map: float array of shape ``[..., C, H, W]``
* token matrix: float array of shape ``[..., N, d]``, flattened row-major
  from a grid, so token ``t`` of an ``H x W`` map sits at ``(t // W, t % W)``

The leading ``...`` axes are the batch: one stacked array carries every
sample, and a bare ``[C, H, W]`` map or ``[N, d]`` matrix is the no-batch
case. Every op acts on each sample alone, and a sample of a stack gives the
same bytes as the sample on its own; batch normalization in train mode is
the one op that mixes samples, through its statistics.

Operations do not mutate their inputs, except a buffer the caller hands
over to be written (``silu``'s ``out``, ``_batch_norm``'s ``in_place``);
batch normalization returns updated running statistics instead of writing
them in place. Computation happens in the dtype of the inputs (float32 or
float64).
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import threads
from .errors import (
    DimensionError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)

_debug_checks = False

# Most tap products one chunk of depthwise_conv7x7 holds: 256 KiB of float32,
# which stays in L2 between the multiply that writes it and the reduce.
DEPTHWISE_CHUNK = 1 << 16

# The variance floor of every normalization site.
BN_EPS = 1e-5

# Most elements each temporary of sigmoid and silu holds: the same 256 KiB of
# float32, walked through every step while it stays in L2. A fixed size, not
# a knob; an array of at most this many elements runs whole.
ACTIVATION_CHUNK = 1 << 16


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
    """Product of a ``[..., n, k]`` stack and a rank-2 ``[k, m]`` matrix."""
    if a.ndim < 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects [..., n, k] x [k, m] operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
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
    """View a [..., L, heads*d_head] token matrix as [..., heads, L, d_head];
    no copy."""
    if heads == 1:
        return t[..., None, :, :]
    *lead, rows, dim = t.shape
    return t.reshape(*lead, rows, heads, dim // heads).swapaxes(-3, -2)


def merge_heads(t: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: [..., heads, L, d_head] to
    [..., L, heads*d_head]. Copies only when there is more than one head."""
    *lead, heads, rows, d_head = t.shape
    if heads == 1:
        return t[..., 0, :, :]
    return t.swapaxes(-3, -2).reshape(*lead, rows, heads * d_head)


# Logits held at once by one query-row tile of :func:`attention`, over all
# heads: 4 MiB of float32, where the full logits of one head at 16384 fine
# tokens take 256 MiB. A fixed size, not a knob.
ATTENTION_TILE_LOGITS = 1 << 20


def attention_weights_buffer(q: np.ndarray, k: np.ndarray, heads: int) -> np.ndarray:
    """An uninitialized [..., heads, N, M] array for :func:`attention` to fill."""
    return np.empty((*q.shape[:-2], heads, q.shape[-2], k.shape[-2]),
                    dtype=np.result_type(q, k))


# Fewest logits a unit of :func:`attention` holds for the call to share its
# units with a second thread: below about this size, handing the GIL between
# two threads at every numpy call costs more than the second CPU saves. A
# fixed size, not a knob.
ATTENTION_SHARED_UNIT_LOGITS = 1 << 16


def _tile_rows(n: int, m: int, heads: int) -> int:
    return max(1, min(n, ATTENTION_TILE_LOGITS // (heads * m)))


def attention_units(n: int, m: int, heads: int) -> int:
    """Work units of one :func:`attention` call over ``n`` queries and ``m``
    keys per sample: one per query-row tile of each head."""
    return heads * -(-n // _tile_rows(n, m, heads))


def attention_shares_units(n: int, m: int, heads: int, samples: int = 1) -> bool:
    """Whether an :func:`attention` call over a stack of ``samples`` hands its
    units to a second thread, where a thread scope allows one: it has two or
    more, and each holds at least ``ATTENTION_SHARED_UNIT_LOGITS`` logits."""
    rows = _tile_rows(n, m, heads)
    return (heads * -(-n // rows) >= 2
            and samples * rows * m >= ATTENTION_SHARED_UNIT_LOGITS)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
              weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention and its key scores.

    ``q`` is [..., N, d], ``k`` and ``v`` are [..., M, d] with the same
    leading axes; head ``h`` owns columns ``h*d/heads`` to ``(h+1)*d/heads``.
    Returns ``(out, scores)``: ``out`` is [..., N, d]; ``scores`` is the
    float64 [..., M] mean post-softmax weight of each key over heads and
    queries, which sums to one per sample.

    The scale ``1/sqrt(d_head)`` is folded into the queries, which are
    scaled into ``out`` itself: a unit reads the scaled queries of its rows
    and head before it writes its result over them, and no other unit reads
    them, so the call holds no second [..., N, d] array. Queries are
    walked in row tiles of about ``ATTENTION_TILE_LOGITS`` logits per sample
    over all heads; every tile sees every key, so its softmax is exact. One
    tile of one head, over every sample of the stack, is a work unit (see
    :func:`attention_units`), and one function, :func:`_attention_unit`,
    runs it in either runner. A unit's logits are exponentiated in place
    after their row max is taken out: as ``np.fmax.reduce``, which gives
    the bytes of numpy's max and its NaN places (see
    :func:`_attention_unit`), or, for a skinny tile, with at least
    ``ATTENTION_COLUMN_MAX_ROWS`` rows over all samples per key (a stack of
    small maps, or the fine stage's few keys), as a running maximum over its
    key columns (:func:`_column_max`), with the same bytes. Its rows of
    ``out`` are normalized after the value product, and its column sums,
    each row weighted by its inverse row sum, are the unit's key-score
    partial. A tile's partials are summed over heads in float32 and added
    to a float64 accumulator, tile after tile. The [..., heads, N, M]
    post-softmax weights are written to ``weights`` only when that buffer
    is given.

    Inside :func:`pst.threads.single_blas_thread` on a machine with two CPUs,
    the units of a call whose tiles hold at least
    ``ATTENTION_SHARED_UNIT_LOGITS`` logits are handed out in order to the
    calling thread and to one pool worker (:class:`_AttentionUnits`).
    Elsewhere the calling thread runs them all in a plain loop, with no
    lock, no pending tiles and no units object; it allocates its tile, row
    vector and partials in the order and at the sizes the shared runner
    does for one thread. Each unit writes only its own rows and the
    partials are added in the same order either way, so the bytes of
    ``out``, the scores and the weights do not depend on it. Nor does the
    heap: the calling thread allocates every buffer the units write before
    it hands out the first, and frees every array of the call itself
    (:func:`_run_shared`).
    """
    if (q.ndim < 2 or k.ndim != q.ndim or v.shape != k.shape or k.shape[-1] != q.shape[-1]
            or k.shape[:-2] != q.shape[:-2] or not k.shape[-2]):
        raise DimensionError(
            f"attention expects [..., N, d] queries and [..., M >= 1, d] keys and values, "
            f"got {q.shape}, {k.shape}, {v.shape}")
    *lead, n, dim = q.shape
    m = k.shape[-2]
    if heads < 1 or dim % heads:
        raise DimensionError(f"width {dim} does not split into {heads} heads")
    if weights is not None and weights.shape != (*lead, heads, n, m):
        raise DimensionError(f"weights buffer {weights.shape} is not {(*lead, heads, n, m)}")
    dtype = np.result_type(q, k, v)
    out = np.empty(q.shape, dtype=dtype)
    colsum = np.zeros((*lead, m), dtype=np.float64)
    workers = threads.core_workers()
    if workers > 1 and not attention_shares_units(n, m, heads, math.prod(lead)):
        workers = 1
    qh = split_heads(np.multiply(q, dtype.type(1.0 / math.sqrt(dim // heads)), out=out), heads)
    kt, vh = split_heads(k, heads).swapaxes(-1, -2), split_heads(v, heads)
    out_h, rows = split_heads(out, heads), _tile_rows(n, m, heads)
    tile_shape = (*lead, rows, m)
    column_max = m >= 2 and math.prod(tile_shape) >= ATTENTION_COLUMN_MAX_ROWS * m * m
    if workers < 2:
        # Every unit on the calling thread, in the order the shared runner
        # adds their partials. One head's partial is added as it is: the sum
        # over its one-element axes would add it to +0, which changes no
        # partial of non-negative weights.
        tile = np.empty(tile_shape, dtype=dtype)
        row = np.empty((*lead, rows, 1), dtype=dtype)
        partials = np.empty((*lead, heads, 1, m), dtype=dtype)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            for h in range(heads):
                _attention_unit(qh, kt, vh, out_h, weights, column_max, h, lo, hi,
                                tile, row, partials[..., h, :, :])
            if heads == 1:
                colsum += partials[..., 0, 0, :]
            else:
                colsum += partials.sum(axis=(-3, -2))
    else:
        units = _AttentionUnits(qh, kt, vh, out_h, weights, colsum, rows, column_max, workers)
        shared = [units]
        future = threads.pool().submit(_run_shared, shared)
        try:
            units.run()
        finally:
            # Never wait on a worker that has not started: it may be busy
            # with another call, or absent in a forked child.
            units.close()
            error = None if future.cancel() else future.exception()
            shared.clear()
        if error is not None:
            raise error
    return _checked(out), colsum / (heads * n)


def _run_shared(shared: list) -> None:
    """The pool worker's part of a shared :func:`attention` call, reached
    through ``shared``, which the caller empties once the worker is done or
    cancelled. So the worker never drops the last reference to an array of
    the call, such as the scaled queries: each is freed on the calling
    thread, at the same point of every call."""
    if shared:
        shared[0].run()


# Fewest rows per key a tile of :func:`attention` holds, over all samples,
# for its row max to be taken as a running maximum over the key columns, one
# long strided loop per key, instead of numpy's max over each row's few keys.
# A fixed size, not a knob.
ATTENTION_COLUMN_MAX_ROWS = 8


def _column_max(tile: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row's largest entry of a [..., R, M >= 2] tile, into ``out``
    [..., R]: a running ``np.maximum`` over the M columns, where
    ``tile.max(axis=-1)`` loops over M per row. Max is exact, so the two
    differ at most in the sign of a zero maximum (or a NaN's bytes); and
    ``x - (+0)``, ``x - (-0)`` differ only in the sign of a zero, which
    ``exp`` maps to 1, so the weights of :func:`attention` keep their bytes.
    """
    np.maximum(tile[..., 0], tile[..., 1], out=out)
    for j in range(2, tile.shape[-1]):
        np.maximum(out, tile[..., j], out=out)
    return out


def _attention_unit(qh, kt, vh, out_h, weights, column_max: bool, h: int, lo: int, hi: int,
                    tile, row, partial) -> None:
    """Query rows ``lo:hi`` of head ``h``, one unit of :func:`attention`, in
    the ``tile`` [..., rows, M] and ``row`` [..., rows, 1] buffers of the
    thread that runs it: its rows of ``out`` and of the weights, and its
    key-score partial into ``partial`` [..., 1, M]. Both runners call it.

    The row max is taken as ``np.fmax.reduce`` where the tile does not take
    :func:`_column_max`: on rows of 16 to 64 logits it costs about 0.6 of
    ``np.max``. Max is exact, and fmax differs from it only on a row that
    holds a NaN, where it skips the NaN, and in the sign of a zero maximum,
    which ``exp(x - (+0))`` and ``exp(x - (-0))`` map to the same bytes. A
    row with a NaN logit still sums to NaN, so its rows of ``out`` and of
    the weights, and its sample's key scores, are NaN as with ``np.max``.
    The row sum is ``np.add.reduce``, the reduce ``np.sum`` makes, without
    its Python wrapper.
    """
    tile = tile[..., : hi - lo, :]
    row = row[..., : hi - lo, :]
    np.matmul(qh[..., h, lo:hi, :], kt[..., h, :, :], out=tile)
    if column_max:
        _column_max(tile, row[..., 0])
    else:
        np.fmax.reduce(tile, axis=-1, keepdims=True, out=row)
    tile -= row
    np.exp(tile, out=tile)
    inv = np.divide(1.0, np.add.reduce(tile, axis=-1, keepdims=True, out=row), out=row)
    np.matmul(inv.swapaxes(-1, -2), tile, out=partial)
    rows_out = out_h[..., h, lo:hi, :]
    np.matmul(tile, vh[..., h, :, :], out=rows_out)
    rows_out *= inv
    if weights is not None:
        np.multiply(tile, inv, out=weights[..., h, lo:hi, :])


# Key-score partial buffers the calling thread allocates for a shared
# attention call before it hands out any unit: tiles whose heads have
# started but whose partials are not yet in the accumulator. On two threads
# they are rarely more than three; a thread that would start one more waits
# for the other to finish its unit. A fixed size, not a knob.
ATTENTION_PARTIAL_SLOTS = 4


class _AttentionUnits:
    """The (tile, head) units of one shared :func:`attention` call, handed
    out in tile-major order to every thread that calls :meth:`run`; each
    runs :func:`_attention_unit`, the body the inline loop of
    :func:`attention` runs too. An inline call builds none of this: no
    object, no lock and no pending tiles.

    Every array a unit or a flush of the partials writes is allocated here,
    by the calling thread, before any unit runs: one tile and one row vector
    per thread, the partial slots and the flush's two sums. A unit allocates
    no array; the buffers numpy takes for a broadcast step are freed within
    that step, in the thread's own malloc arena. So the heap the call leaves
    behind does not depend on how the units fell to the two threads."""

    def __init__(self, qh, kt, vh, out_h, weights, colsum, rows: int, column_max: bool,
                 workers: int):
        *lead, self.heads, self.n, _ = qh.shape
        m = kt.shape[-1]
        dtype = out_h.dtype
        self.qh, self.kt, self.vh, self.out_h = qh, kt, vh, out_h
        self.weights, self.colsum, self.rows = weights, colsum, rows
        self.column_max = column_max
        self.count = self.heads * -(-self.n // rows)
        self.scratch = [(np.empty((*lead, rows, m), dtype=dtype),
                         np.empty((*lead, rows, 1), dtype=dtype))
                        for _ in range(workers)]
        self.lock = threading.Condition()
        self.runners = 0  # threads that called run(), each with its scratch
        self.next = 0
        self.flushed = 0  # tiles whose partials are in colsum
        self.pending = {}  # tile -> [partials [..., heads, 1, M], heads still running]
        slots = max(1, min(ATTENTION_PARTIAL_SLOTS, self.count // self.heads))
        self.free = list(np.empty((slots, *lead, self.heads, 1, m), dtype=dtype))
        self.sum32 = np.empty(colsum.shape, dtype=dtype)
        self.sum64 = np.empty(colsum.shape, dtype=colsum.dtype)

    def close(self) -> None:
        """Hand out no further unit, and wake a thread waiting for a slot."""
        with self.lock:
            self.next = self.count
            self.lock.notify_all()

    def _flush(self, partials) -> None:
        """Add a finished tile's partials to ``colsum``, in the bytes of
        ``colsum += partials.sum(axis=(-3, -2))``, through the two sums
        allocated for it: widening float32 to float64 is exact."""
        np.sum(partials, axis=(-3, -2), out=self.sum32)
        self.sum64[...] = self.sum32
        self.colsum += self.sum64
        self.free.append(partials)

    def run(self) -> None:
        """Take units in order until none is left. A tile's first unit waits
        for a free partial slot; every slot is held only while the other
        thread runs a unit, whose end flushes at least one tile. On an
        error the call hands out no further unit, so the other thread never
        waits on a tile this one left unfinished."""
        lock, pending, heads, rows = self.lock, self.pending, self.heads, self.rows
        with lock:
            tile, row = self.scratch[self.runners]
            self.runners += 1
        try:
            while True:
                with lock:
                    while self.next < self.count and not self.next % heads and not self.free:
                        lock.wait()
                    unit = self.next
                    if unit >= self.count:
                        return
                    self.next = unit + 1
                    t, h = divmod(unit, heads)
                    if not h:
                        pending[t] = [self.free.pop(), heads]
                    entry = pending[t]
                lo = t * rows
                _attention_unit(self.qh, self.kt, self.vh, self.out_h, self.weights,
                                self.column_max, h, lo, min(self.n, lo + rows),
                                tile, row, entry[0][..., h, :, :])
                with lock:
                    entry[1] -= 1
                    # Tile order: flush every finished tile no earlier one waits on.
                    while self.flushed in pending and not pending[self.flushed][1]:
                        self._flush(pending.pop(self.flushed)[0])
                        self.flushed += 1
                        lock.notify_all()
        finally:
            self.close()


def _require_map(name: str, x: np.ndarray) -> None:
    if x.ndim < 3:
        raise DimensionError(f"{name} expects a [..., C, H, W] input, got {x.shape}")


def conv1x1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise convolution: per-pixel linear map over channels.

    ``x`` is ``[..., C_in, H, W]``, ``w`` is ``[C_out, C_in]``.
    """
    _require_map("conv1x1", x)
    if w.ndim != 2 or w.shape[1] != x.shape[-3]:
        raise DimensionError(f"conv1x1 weight {w.shape} does not match input channels of {x.shape}")
    *lead, c_in, h, wd = x.shape
    out = w @ x.reshape(*lead, c_in, h * wd)
    return _checked(out.reshape(*lead, w.shape[0], h, wd))


def depthwise_conv7x7(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-channel 7x7 spatial correlation with zero padding of 3.

    ``x`` is ``[..., C, H, W]`` and ``kernel`` is ``[C, 7, 7]``; output
    extents equal input extents and the output has ``x``'s dtype (a kernel of
    another dtype is cast to it first). A delta kernel (1 at the center tap)
    reproduces the input exactly.

    Each output element is ``((0 + p_0) + p_1) + ... + p_48``, its 49 tap
    products added in row-major kernel order, as the plain loop over taps
    adds them. The products of a chunk of output rows are written by one
    multiply into a C-contiguous ``[49, ...]`` block of at most
    :data:`DEPTHWISE_CHUNK` elements (or of one row, when a row alone holds
    more), and one reduce over the outer axis adds them. numpy reduces over
    an outer axis one slice after another, in order; it sums pairwise only
    when the slices are a single element. Chunks are balanced, so that
    happens only for one 1x1 map of one channel, whose one nonzero product
    makes any order exact.

    On a wide channel axis over a small grid (C >= 32 and C > 2W), short
    rows make those chunks slow, and one ``np.einsum`` over the
    ``[b, H, W, 7, 7, C]`` tap view of the padded storage (see
    :func:`_position_taps`) against the C-contiguous ``[7, 7, C]`` kernel
    forms the output instead. The channel axis is the smallest stride of
    all three operands, so it is einsum's inner loop, and each step adds one
    product to one output, from +0 and in row-major tap order: the same
    bytes. With one channel a tap axis would become the inner loop and be
    summed apart first. The output is a channel-last view.
    """
    _require_map("depthwise_conv7x7", x)
    *lead, c, h, w = x.shape
    if kernel.shape != (c, 7, 7):
        raise DimensionError(f"depthwise kernel {kernel.shape} does not match input {x.shape}")
    if x.size == 0:
        return np.zeros(x.shape, dtype=x.dtype)
    xp = _pad_channels_last(x)
    if c >= 32 and c > 2 * w:
        kernel_uvc = np.ascontiguousarray(kernel.transpose(1, 2, 0), dtype=x.dtype)
        out = np.einsum("sijuvc,uvc->sijc", _position_taps(xp, h, w, c), kernel_uvc)
    else:
        out = _depthwise_chunks(xp, kernel, h, w, c)
    nl = len(lead)
    return _checked(out.reshape(*lead, h, w, c).transpose(*range(nl), nl + 2, nl, nl + 1))


def _depthwise_chunks(xp: np.ndarray, kernel: np.ndarray, h: int, w: int, c: int) -> np.ndarray:
    """The [b, H, W * C] channel-last correlation of the padded storage
    ``xp`` with ``kernel``, one multiply and one reduce per chunk (see
    :func:`depthwise_conv7x7`)."""
    b, wc = xp.shape[0], w * c
    windows = _tap_windows(xp, h, wc, c)
    taps = np.empty((7, 7, w, c), dtype=xp.dtype)
    taps[...] = kernel.transpose(1, 2, 0)[:, :, None]  # taps[u, v, j, ch] = kernel[ch, u, v]
    taps = taps.reshape(7, 7, 1, 1, wc)
    out = np.empty((b, h, wc), dtype=xp.dtype)
    per_row = 49 * wc
    if h * per_row <= DEPTHWISE_CHUNK:  # groups of whole samples
        groups, blocks = -(-b // (DEPTHWISE_CHUNK // (h * per_row))), 1
    else:  # blocks of rows of one sample
        groups, blocks = b, -(-h // max(1, DEPTHWISE_CHUNK // per_row))
    s_cut = [i * b // groups for i in range(groups + 1)]
    r_cut = [i * h // blocks for i in range(blocks + 1)]
    prod = np.empty(per_row * -(-b // groups) * -(-h // blocks), dtype=xp.dtype)
    for s0, s1 in zip(s_cut, s_cut[1:]):
        for r0, r1 in zip(r_cut, r_cut[1:]):
            p = prod[: per_row * (s1 - s0) * (r1 - r0)].reshape(7, 7, s1 - s0, r1 - r0, wc)
            np.multiply(taps, windows[:, :, s0:s1, r0:r1], out=p)
            np.add.reduce(p.reshape(49, s1 - s0, r1 - r0, wc), axis=0, initial=0,
                          out=out[s0:s1, r0:r1])
    return out


def _pad_channels_last(x: np.ndarray) -> np.ndarray:
    """Channel-last padded storage ``xp`` [b, H + 6, (W + 6) * C] of a
    [..., C, H, W] stack: ``xp[s, 3 + i, (3 + j) * C + ch] = x[s, ch, i, j]``,
    zero elsewhere, so tap (u, v) of every channel is one shifted [H, W * C]
    window."""
    *_, c, h, w = x.shape
    b = x.size // (c * h * w)
    xp = np.zeros((b, h + 6, (w + 6) * c), dtype=x.dtype)
    interior = xp.reshape(b, h + 6, w + 6, c)[:, 3 : h + 3, 3 : w + 3]
    interior[...] = x.reshape(b, c, h, w).transpose(0, 2, 3, 1)
    return xp


def _position_taps(xp: np.ndarray, h: int, w: int, c: int) -> np.ndarray:
    """Read-only view ``[b, h, w, 7, 7, c]`` of the C-contiguous padded
    storage ``xp``: ``taps[s, i, j, u, v, ch] = xp[s, u + i, (v + j) * c + ch]``."""
    s_sample, s_row, s_item = xp.strides
    return as_strided(xp, shape=(xp.shape[0], h, w, 7, 7, c), writeable=False,
                      strides=(s_sample, s_row, c * s_item, s_row, c * s_item, s_item))


def _tap_windows(xp: np.ndarray, h: int, wc: int, c: int) -> np.ndarray:
    """Read-only view ``[7, 7, b, h, wc]`` of the C-contiguous padded storage
    ``xp`` [b, h + 6, wc + 6 * c]: ``windows[u, v, s, i, j] = xp[s, u + i, v * c + j]``.

    Equal in shape, strides and values to
    ``sliding_window_view(xp, (h, wc), axis=(1, 2))[:, :, ::c]`` with its
    tap axes moved to the front, without that function's argument checks.
    Every offset stays inside ``xp``: tap (6, 6) ends on its last element.
    """
    s_sample, s_row, s_item = xp.strides
    return as_strided(xp, shape=(7, 7, xp.shape[0], h, wc),
                      strides=(s_row, c * s_item, s_sample, s_row, s_item), writeable=False)


def depthwise_kernel_grad(x: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(up * depthwise_conv7x7(x, k))`` with respect to the
    [C, 7, 7] kernel ``k``, in the dtype of ``x * up``: per tap, the sum of
    ``up`` times the tap's window of zero-padded ``x`` over every axis but
    the channel axis, with the bytes of numpy's sum of that product.

    On a stack of small grids (C > 2W) the product is stored channel last,
    and numpy adds each (tap, channel)'s products one position after
    another from +0. One ``np.einsum`` over a ``[b, H, W, 7, 7, C]`` view of
    the forward's padded storage adds them in that order without forming
    them: its innermost loop is the channel axis, the smallest stride of
    every operand, so each step adds ``p + acc`` for one position. Channel
    -first products are summed pairwise over each sample's positions, and
    keep one sum per tap.
    """
    *lead, c, h, w = x.shape
    if up.shape != x.shape:
        raise DimensionError(f"depthwise gradient {up.shape} does not match input {x.shape}")
    dtype = np.result_type(x, up)
    x, up = x.astype(dtype, copy=False), up.astype(dtype, copy=False)
    if c > 2 * w and x.size:
        b = x.size // (c * h * w)
        taps = _position_taps(_pad_channels_last(x), h, w, c)
        up_last = np.empty((b, h, w, c), dtype=dtype)
        up_last[...] = up.reshape(b, c, h, w).transpose(0, 2, 3, 1)
        return np.ascontiguousarray(np.einsum("sijuvc,sijc->uvc", taps, up_last).transpose(2, 0, 1))
    xp = np.zeros((*lead, c, h + 6, w + 6), dtype=dtype)
    xp[..., 3 : h + 3, 3 : w + 3] = x
    up = np.ascontiguousarray(up)
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 3)
    grad = np.empty((c, 7, 7), dtype=dtype)
    for u in range(7):
        for v in range(7):
            grad[:, u, v] = (up * xp[..., u : u + h, v : v + w]).sum(axis=axes)
    return grad


def _sample_shape(x: np.ndarray, channel_axis: int) -> tuple | None:
    """The shape of one sample of ``x`` when it is a C-contiguous stack of
    two or more, else None: the channel axis and every axis after it, and
    at least the last two (``[C, H, W]`` for maps, ``[N, d]`` for tokens)."""
    lead = min(channel_axis, x.ndim - 2)
    if lead < 1 or math.prod(x.shape[:lead]) < 2 or not x.flags.c_contiguous:
        return None
    return x.shape[lead:]


def _spread(p: np.ndarray, pshape: tuple, sample: tuple) -> np.ndarray:
    """The per-channel ``p``, of broadcast shape ``pshape``, written out
    over one whole ``sample`` of the stack."""
    out = np.empty(sample, dtype=p.dtype)
    out[...] = p.reshape(pshape[len(pshape) - len(sample):])
    return out


def _check_norm_state(channels: int, gamma, beta, running_mean, running_var) -> None:
    """Every array of a normalization site is ``[channels]``, and its running
    variance holds no negative or NaN entry."""
    if not gamma.shape == beta.shape == running_mean.shape == running_var.shape == (channels,):
        for name, arr in (("gamma", gamma), ("beta", beta),
                          ("running_mean", running_mean), ("running_var", running_var)):
            if arr.shape != (channels,):
                raise DimensionError(
                    f"batch_norm {name} has shape {arr.shape}, expected ({channels},)")
    if not np.minimum.reduce(running_var, initial=np.inf) >= 0:
        raise StateCorruptionError("negative or NaN running variance")


def fold_batch_norm(gamma, beta, running_mean, running_var,
                    channels: int) -> tuple[np.ndarray, np.ndarray]:
    """The infer-mode normalization as a per-channel affine ``(scale, shift)``:
    ``gamma * (x - mean) / sqrt(var + BN_EPS) + beta == x * scale + shift``.

    :func:`channel_affine` applies it to the output of the linear map
    before the site. The state is checked as :func:`_batch_norm` checks it,
    on every fold.
    """
    _check_norm_state(channels, gamma, beta, running_mean, running_var)
    scale = gamma / np.sqrt(running_var + BN_EPS)
    return scale, beta - running_mean * scale


def channel_affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray | None,
                   channel_axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """``x * scale + shift`` with a per-channel ``scale`` and ``shift`` (or
    none) along ``channel_axis``: an infer-mode normalization site as
    :func:`fold_batch_norm` gives it, in two passes where
    :func:`_batch_norm` takes four. On a stack (:func:`_sample_shape`) each
    operand is first written out over one sample, so that each step runs one
    loop per sample rather than one per channel row; each element meets the
    same values either way."""
    channel_axis %= x.ndim
    pshape = scale.shape + (1,) * (x.ndim - channel_axis - 1)
    sample = _sample_shape(x, channel_axis)

    def spread(p):
        return p.reshape(pshape) if sample is None else _spread(p, pshape, sample)

    y = np.multiply(x, spread(scale), out=out)
    if shift is not None:
        y += spread(shift)
    return _checked(y)


def _batch_norm(x, gamma, beta, running_mean, running_var, mode, channel_axis, eps, momentum,
                keep_xhat: bool, in_place: bool):
    """Per-channel normalization followed by a learned affine:
    ``(y, new_running_mean, new_running_var, kept)``.

    Train mode normalizes with batch statistics taken over every non-channel
    axis (biased variance, see :func:`channel_stats`) and returns running
    statistics advanced by ``momentum``; infer mode normalizes with the
    running statistics and returns them unchanged. ``kept`` is ``(xhat,
    inv)`` when ``keep_xhat``, None otherwise: the standardized input
    ``(x - mean) * inv`` and the per-channel ``inv``, which a backward rule
    needs; ``y = xhat * gamma + beta`` is then formed in a buffer of its own
    instead of in x-hat's, by the same operations in the same order, so
    ``y`` has the same bytes either way. With ``in_place`` (and not
    ``keep_xhat``), ``y`` is formed in ``x``'s own buffer when ``x - mean``
    has ``x``'s dtype, again by the same operations.

    On a C-contiguous stack of two or more samples, ``mean``, ``inv``,
    ``gamma`` and ``beta`` enter the four elementwise steps as operands one
    sample in size (see :func:`_sample_shape`), so each step runs one loop
    per sample rather than one per channel row of 16 to 64 elements. Each
    element meets the same values in the same steps, so the bytes are those
    of the ``[C, 1, 1]`` broadcast, which single maps keep."""
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    channel_axis %= x.ndim
    channels = x.shape[channel_axis]
    _check_norm_state(channels, gamma, beta, running_mean, running_var)
    pshape = (1,) * channel_axis + (channels,) + (1,) * (x.ndim - channel_axis - 1)
    sample = _sample_shape(x, channel_axis)
    if mode == "train":
        mean, var = channel_stats(x, channel_axis)
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
        new_mean = running_mean
        new_var = running_var
    inv = 1.0 / np.sqrt(var.reshape(pshape) + eps)
    in_place = in_place and not keep_xhat and np.result_type(x, mean) == x.dtype
    one = sample is None
    xhat = np.subtract(x, mean.reshape(pshape) if one else _spread(mean, pshape, sample),
                       out=x if in_place else None)
    xhat *= inv if one else _spread(inv, pshape, sample)
    g = gamma.reshape(pshape) if one else _spread(gamma, pshape, sample)
    y = xhat * g if keep_xhat else np.multiply(xhat, g, out=xhat)
    y += beta.reshape(pshape) if one else _spread(beta, pshape, sample)
    return _checked(y), new_mean, new_var, ((xhat, inv) if keep_xhat else None)


def channel_stats(x: np.ndarray, channel_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance over every other axis.

    Reduced over the channel-last rows ``[samples * positions, C]``, the
    layout of stacked token matrices, so a map and its tokens give the same
    bytes. The variance takes the steps of ``rows.var(axis=0)`` from the mean
    already at hand, and gives its bytes.

    When the rows are C-contiguous and hold two or more channels, both sums
    are ``np.einsum`` over the rows (``"nc->c"``, ``"nc,nc->c"``); on a
    stack (:func:`_sample_shape`) the mean is taken out through a
    ``[samples, sample size]`` view against the mean tiled over a sample.
    Like numpy's reduce over the outer axis, einsum adds the rows one after
    another from +0, and each rounded ``dev * dev``; it only skips the ufunc
    machinery around each row. A single map's strided rows, which numpy sums
    pairwise, and one channel's column keep the reduce.
    """
    channels = x.shape[channel_axis]
    rows = np.moveaxis(x, channel_axis, -1).reshape(-1, channels)
    n = np.intp(rows.shape[0])
    if channels < 2 or not rows.flags.c_contiguous or not rows.size:
        mean = rows.mean(axis=0)
        dev = rows - mean
        np.multiply(dev, dev, out=dev)
        var = dev.sum(axis=0)
    else:
        mean = np.einsum("nc->c", rows)
        np.true_divide(mean, n, out=mean, casting="unsafe")
        sample = _sample_shape(x, channel_axis % x.ndim)
        if sample is None:
            dev = rows - mean
        else:
            size = math.prod(sample)
            dev = rows.reshape(-1, size) - np.tile(mean, size // channels)
            dev = dev.reshape(rows.shape)
        var = np.einsum("nc,nc->c", dev, dev)
    return mean, np.true_divide(var, n, out=var, casting="unsafe")


def upsample_tokens2x(x: np.ndarray) -> np.ndarray:
    """Nearest 2x upsampling of a [..., C, H, W] map, as the [..., 4HW, C]
    tokens of the upsampled map: token ``(2i + a) * 2W + 2j + b`` holds pixel
    ``(i, j)`` for ``a, b`` in {0, 1}. One copy from the channel-last view of
    ``x``, which the output of :func:`depthwise_conv7x7` already is."""
    _require_map("upsample_tokens2x", x)
    *lead, c, h, w = x.shape
    nl = len(lead)
    out = np.empty((*lead, h, 2, w, 2, c), dtype=x.dtype)
    out[...] = x.transpose(*range(nl), nl + 1, nl + 2, nl)[..., :, None, :, None, :]
    return _checked(out.reshape(*lead, 4 * h * w, c))


def upsample_tokens2x_adjoint(t: np.ndarray, h: int, w: int) -> np.ndarray:
    """Adjoint of :func:`upsample_tokens2x` onto an ``h x w`` grid: each
    pixel of the [..., C, h, w] map (a channel-last view) sums its four
    children in ``t``.

    Adds ``(t00 + t01) + (t10 + t11)`` (row offset, then column offset) over
    strided views: the order, and so the bytes, of numpy's sum over the 2x2
    blocks of the reshaped channel-first map, except at width 1, where numpy
    adds the four in sequence, and so does this.
    """
    *lead, _, c = t.shape
    b = t.reshape(*lead, h, 2, w, 2, c)
    out = b[..., 0, :, 0, :] + b[..., 0, :, 1, :]
    if w == 1:
        out += b[..., 1, :, 0, :]
        out += b[..., 1, :, 1, :]
    else:
        out += b[..., 1, :, 0, :] + b[..., 1, :, 1, :]
    nl = len(lead)
    return out.transpose(*range(nl), nl + 2, nl, nl + 1)


def downsample_avg2x(x: np.ndarray) -> np.ndarray:
    """Average non-overlapping 2x2 blocks of a [..., C, H, W] map.

    Sums ``(x00 + x01) + (x10 + x11)`` over strided views and scales by the
    exact 1/4: the order and the bytes of numpy's mean over the blocks of a
    reshaped map (at every width but 2, where numpy sums the four in
    sequence), without its slow reduction over two axes of length 2.
    """
    _require_map("downsample_avg2x", x)
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"downsample_avg2x requires even extents, got {x.shape}")
    out = x[..., 0::2, 0::2] + x[..., 0::2, 1::2]
    out += x[..., 1::2, 0::2] + x[..., 1::2, 1::2]
    out *= x.dtype.type(0.25)
    return out


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join two feature maps along the channel axis."""
    if a.ndim < 3 or b.ndim != a.ndim:
        raise DimensionError(f"concat_channels expects [..., C, H, W] inputs, got {a.shape}, {b.shape}")
    if a.shape[:-3] != b.shape[:-3] or a.shape[-2:] != b.shape[-2:]:
        raise DimensionError(f"concat_channels extents differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-3)


def map_to_tokens(x: np.ndarray) -> np.ndarray:
    """Flatten a [..., C, H, W] map to a [..., H*W, C] token matrix, row-major."""
    _require_map("map_to_tokens", x)
    *lead, c, h, w = x.shape
    return np.ascontiguousarray(x.reshape(*lead, c, h * w).swapaxes(-1, -2))


def tokens_to_map(t: np.ndarray, h: int, w: int) -> np.ndarray:
    """Inverse of :func:`map_to_tokens` for the given grid extents."""
    if t.ndim < 2:
        raise DimensionError(f"tokens_to_map expects a [..., N, d] input, got {t.shape}")
    *lead, n, d = t.shape
    if n != h * w:
        raise DimensionError(f"token count {n} does not match grid {h}x{w}")
    return np.ascontiguousarray(t.swapaxes(-1, -2)).reshape(*lead, d, h, w)


def gather_rows(t: np.ndarray, indices) -> np.ndarray:
    """Select rows of a token matrix. Indices may repeat; order is kept."""
    if t.ndim != 2:
        raise DimensionError(f"gather_rows expects a [N, d] input, got {t.shape}")
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    check_row_indices(idx, t.shape[0])
    return t[idx]


def check_row_indices(idx: np.ndarray, n: int) -> None:
    """Raise :class:`GatherIndexError` unless every index lies in [0, n)."""
    if idx.size:
        for bad in (int(idx.min()), int(idx.max())):
            if not 0 <= bad < n:
                raise GatherIndexError(bad, n)


def topk_indices(scores: np.ndarray, k: int, threshold: float) -> np.ndarray:
    """Indices of at most ``k`` scores strictly above ``threshold`` per
    sample of [..., M] scores, by descending score with ties to the lower
    index (one stable sort per sample; deterministic). The result is
    [..., c] for the largest count ``c`` any sample keeps, padded with -1,
    so one score vector gives exactly its kept indices.
    """
    s = np.asarray(scores)
    if s.ndim < 1:
        raise DimensionError(f"topk_indices expects [..., M] scores, got {s.shape}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    above = (s > threshold).sum(-1, keepdims=True)
    width = min(k, int(above.max(initial=0)))
    # Every score above the threshold ranks before every other, NaN last.
    order = np.argsort(-s, axis=-1, kind="stable")[..., :width].astype(np.int64)
    if s.ndim > 1:  # one row fills its ``width``; a stack's rows may not
        order[np.arange(width) >= above] = -1
    return order


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, without masked branches.

    ``exp`` sees ``min(x, -x)``, so it never overflows; the minimum keeps the
    NaN of ``x`` itself, where ``-|x|`` would flip the sign bit of a NaN.
    The numerator ``max(e, x >= 0)`` is the select ``1 if x >= 0 else e``:
    where ``x >= 0``, ``e = exp(-x)`` is at most 1; elsewhere ``e`` is at
    least 0, and a NaN ``e`` wins the maximum. An array of more than
    :data:`ACTIVATION_CHUNK` elements runs in chunks (see :func:`silu`).
    """
    if x.size > ACTIVATION_CHUNK:
        return _checked(_by_chunks(x, np.empty_like(x), times_x=False))
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    den = e + 1
    np.maximum(e, x >= 0, out=e, dtype=x.dtype)
    np.divide(e, den, out=e)
    return _checked(e)


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), into ``out`` when given (``x`` itself may be it).

    An array of more than :data:`ACTIVATION_CHUNK` elements runs in chunks
    of at most that many, each through every step before the next, so that
    no temporary is larger than a chunk; each element takes the same steps,
    and so has the same bytes, either way.
    """
    if x.size > ACTIVATION_CHUNK:
        return _checked(_by_chunks(x, np.empty_like(x) if out is None else out, times_x=True))
    s = sigmoid(x)
    return _checked(np.multiply(x, s, out=s if out is None else out))


def _by_chunks(x: np.ndarray, out: np.ndarray, times_x: bool) -> np.ndarray:
    """The steps of :func:`sigmoid` over ``x``, then a product with ``x``
    when ``times_x``, into ``out`` (which may be ``x``), one
    :data:`ACTIVATION_CHUNK` after another through a buffered iterator; each
    temporary holds one chunk."""
    scratch = np.empty(ACTIVATION_CHUNK, dtype=x.dtype) if times_x else None
    den = np.empty(ACTIVATION_CHUNK, dtype=x.dtype)
    mask = np.empty(ACTIVATION_CHUNK, dtype=bool)
    with np.nditer([x, out], flags=["external_loop", "buffered"],
                   op_flags=[["readonly"], ["writeonly"]], buffersize=ACTIVATION_CHUNK) as it:
        for xc, oc in it:
            n = xc.shape[0]
            e = scratch[:n] if times_x else oc
            np.negative(xc, out=e)
            np.minimum(xc, e, out=e)
            np.exp(e, out=e)
            np.add(e, 1, out=den[:n])
            np.greater_equal(xc, 0, out=mask[:n])
            np.maximum(e, mask[:n], out=e, dtype=x.dtype)
            np.divide(e, den[:n], out=e)
            if times_x:
                np.multiply(xc, e, out=oc)
    return out
