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
over to be written (``silu``'s and ``channel_stats``'s ``out``,
``_batch_norm``'s ``in_place``);
batch normalization returns updated running statistics instead of writing
them in place. Computation happens in the dtype of the inputs (float32 or
float64).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import threads
from .errors import (
    DimensionError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)

_debug_checks = False

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
            raise NumericError(f"array of shape {a.shape} holds non-finite values")


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


# Elements of each buffer a ufunc takes while a thread runs units of a
# shared :func:`attention` call (numpy's default is 8192): 1 KiB of float32,
# a size glibc's per-thread cache hands back as it was freed. At the
# default, a unit's broadcast steps take 16 and 32 KiB buffers out of the
# calling thread's large free chunks, so the split of units between the two
# threads moved where later map-sized arrays landed in its heap. Bytes are
# the same at either size. A fixed size, not a knob.
ATTENTION_UFUNC_BUFFER = 256


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
    (:func:`_run_shared`), and each thread of a shared call runs its units
    with small ufunc buffers (``ATTENTION_UFUNC_BUFFER``).
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
    that step, in the thread's own malloc arena, and are small enough to be
    recycled as they were (``ATTENTION_UFUNC_BUFFER``). So the calling
    thread's heap does not depend on how the units fell to the two threads."""

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
        saved = np.setbufsize(ATTENTION_UFUNC_BUFFER)
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
            np.setbufsize(saved)
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
    adds them. One ``np.einsum`` over the ``[b, H, 7, 7, W * C]`` tap view of
    the channel-last padded storage (see :func:`_row_windows`), against the
    kernel tiled once to a C-contiguous ``[7, 7, W * C]``, forms the
    output. A whole output row is the smallest stride of all three operands,
    so it is einsum's inner loop, and each step adds one product to each
    output of the row, from +0 and in row-major tap order. With one channel
    the column tap's stride ties the row's, and einsum may sum the taps
    apart first; a zero second channel breaks the tie and is dropped after.
    The output is a channel-last view.
    """
    _require_map("depthwise_conv7x7", x)
    *lead, c, h, w = x.shape
    if kernel.shape != (c, 7, 7):
        raise DimensionError(f"depthwise kernel {kernel.shape} does not match input {x.shape}")
    if x.size == 0:
        return np.zeros(x.shape, dtype=x.dtype)
    cs = max(c, 2)  # channels in the storage
    xp = _pad_channels_last(x, cs)
    taps = np.zeros((7, 7, w, cs), dtype=x.dtype)
    taps[..., :c] = kernel.transpose(1, 2, 0)[:, :, None]  # taps[u, v, j, ch] = kernel[ch, u, v]
    out = np.einsum("siuvx,uvx->six", _row_windows(xp, h, 7, w * cs, cs),
                    taps.reshape(7, 7, w * cs))
    nl = len(lead)
    out = out.reshape(*lead, h, w, cs)[..., :c]
    return _checked(out.transpose(*range(nl), nl + 2, nl, nl + 1))


def _pad_channels_last(x: np.ndarray, cs: int) -> np.ndarray:
    """Channel-last padded storage ``xp`` [b, H + 6, (W + 6) * cs] of a
    [..., C, H, W] stack, ``cs >= C``: ``xp[s, 3 + i, (3 + j) * cs + ch] =
    x[s, ch, i, j]``, zero elsewhere, so tap (u, v) of every channel is one
    shifted [H, W * cs] window."""
    *_, c, h, w = x.shape
    b = x.size // (c * h * w)
    xp = np.zeros((b, h + 6, (w + 6) * cs), dtype=x.dtype)
    interior = xp.reshape(b, h + 6, w + 6, cs)[:, 3 : h + 3, 3 : w + 3, :c]
    interior[...] = x.reshape(b, c, h, w).transpose(0, 2, 3, 1)
    return xp


def _row_windows(xp: np.ndarray, h: int, count: int, length: int, c: int) -> np.ndarray:
    """Read-only view ``[b, h, 7, count, length]`` of the C-contiguous padded
    storage ``xp`` of ``c`` channels: ``win[s, i, u, k, y] = xp[s, u + i,
    k * c + y]``, row ``u + i`` from column ``k * c`` on. ``count = 7`` with
    ``length = W * c`` gives tap (u, v) of output row i; ``count = W`` with
    ``length = 7 * c`` gives the seven column taps of position (i, j).

    Equal in shape, strides and values to
    ``sliding_window_view(xp, (h, length), axis=(1, 2))[:, :, ::c]`` with its
    row axis moved ahead of the tap axes, without that function's argument
    checks. Every offset stays inside ``xp`` (the last window ends on the
    last element of its row), and ``np.ndarray`` checks that it does. Not
    ``as_strided``: its ``__array_interface__`` dict adds a ``'typestr'``
    key to the interpreter's interned strings and drops it again, so that
    every 10,000 to 30,000 calls that table is rebuilt, a 1.9 MB allocation.
    """
    s_sample, s_row, s_item = xp.strides
    win = np.ndarray((xp.shape[0], h, 7, count, length), xp.dtype, xp,
                     strides=(s_sample, s_row, s_row, c * s_item, s_item))
    win.flags.writeable = False
    return win


def depthwise_kernel_grad(x: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(up * depthwise_conv7x7(x, k))`` with respect to the
    [C, 7, 7] kernel ``k``, in the dtype of ``x * up``: per tap, the sum of
    ``up`` times the tap's window of zero-padded ``x`` over every axis but
    the channel axis, with the bytes of numpy's sum of that product.

    On a stack of small grids (C > 2W) the product is stored channel last,
    and numpy adds each (tap, channel)'s products one position after
    another from +0. One ``np.einsum`` over the ``[b, H, 7, W, 7 * C]``
    column-tap view of the forward's padded storage (see
    :func:`_row_windows`), against ``up`` channel last and tiled 7 times,
    adds them in that order without forming them: its innermost loop is a
    row of 7 * C (column tap, channel) pairs, the smallest stride of every
    operand, so each step adds ``p + acc`` for one position. Channel-first
    products are summed pairwise over each sample's positions, and keep one
    sum per tap.
    """
    *lead, c, h, w = x.shape
    if up.shape != x.shape:
        raise DimensionError(f"depthwise gradient {up.shape} does not match input {x.shape}")
    dtype = np.result_type(x, up)
    x, up = x.astype(dtype, copy=False), up.astype(dtype, copy=False)
    if c > 2 * w and x.size:
        b = x.size // (c * h * w)
        windows = _row_windows(_pad_channels_last(x, c), h, w, 7 * c, c)
        up_rows = np.empty((b, h, w, 7, c), dtype=dtype)
        up_rows[...] = up.reshape(b, c, h, w).transpose(0, 2, 3, 1)[:, :, :, None]
        grad = np.einsum("siujy,sijy->uy", windows, up_rows.reshape(b, h, w, 7 * c))
        return np.ascontiguousarray(grad.reshape(7, 7, c).transpose(2, 0, 1))
    xp = np.zeros((*lead, c, h + 6, w + 6), dtype=dtype)
    xp[..., 3 : h + 3, 3 : w + 3] = x
    up = np.ascontiguousarray(up)
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 3)
    grad = np.empty((c, 7, 7), dtype=dtype)
    for u in range(7):
        for v in range(7):
            grad[:, u, v] = (up * xp[..., u : u + h, v : v + w]).sum(axis=axes)
    return grad


def per_channel(x: np.ndarray, channel_axis: int):
    """How a per-channel ``[C]`` array enters an elementwise step with
    ``x``: a function of it. On a C-contiguous stack of two or more samples
    (a sample is the channel axis and every axis after it, and at least the
    last two: ``[C, H, W]`` for maps, ``[N, d]`` for tokens) it is written
    out over one sample, so that the step runs one loop per sample rather
    than one per channel row of 16 to 64 elements; otherwise it is the
    ``[C, 1, ...]`` broadcast. Each element meets the same value either
    way."""
    pshape = (x.shape[channel_axis],) + (1,) * (x.ndim - channel_axis - 1)
    lead = min(channel_axis, x.ndim - 2)
    if lead < 1 or math.prod(x.shape[:lead]) < 2 or not x.flags.c_contiguous:
        return lambda p: p.reshape(pshape)
    sample = x.shape[lead:]

    def spread(p):
        out = np.empty(sample, dtype=p.dtype)
        out[...] = p.reshape(pshape)
        return out

    return spread


def channel_view(x: np.ndarray, channel_axis: int) -> np.ndarray:
    """``x`` as ``[outer, C, inner]``: the axes before the channel axis, the
    channel axis, the axes after it (``[B, C, H*W]`` for a map stack,
    ``[B*N, C, 1]`` for tokens). A view when ``x`` is C-contiguous."""
    return x.reshape(math.prod(x.shape[:channel_axis]), x.shape[channel_axis],
                     math.prod(x.shape[channel_axis + 1:]))


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
    :func:`_batch_norm` takes four, each operand entering as
    :func:`per_channel` gives it."""
    spread = per_channel(x, channel_axis % x.ndim)
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
    running statistics and returns them unchanged. Either way ``xhat =
    centered * inv``, with ``inv = 1 / sqrt(var + eps)`` per channel, is
    formed in the buffer of the centered input ``x - mean`` (in train mode
    the one :func:`channel_stats` made for the variance, so the mean is
    subtracted once), and ``y = xhat * gamma + beta``. ``kept`` is ``(xhat,
    inv)`` when ``keep_xhat``, None otherwise: what a backward rule needs;
    ``y`` is then formed in a buffer of its own instead of in x-hat's, by
    the same operations in the same order, so ``y`` has the same bytes
    either way. With ``in_place`` (and not ``keep_xhat``), the centered
    input and ``y`` are formed in ``x``'s own buffer when ``x - mean`` has
    ``x``'s dtype, again by the same operations. Per-channel operands enter
    each elementwise step as :func:`per_channel` gives them."""
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    channel_axis %= x.ndim
    _check_norm_state(x.shape[channel_axis], gamma, beta, running_mean, running_var)
    spread = per_channel(x, channel_axis)
    in_place = in_place and not keep_xhat
    if mode == "train":
        mean, var, centered = channel_stats(x, channel_axis, out=x if in_place else None)
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean, var, new_mean, new_var = running_mean, running_var, running_mean, running_var
        in_place = in_place and np.result_type(x, mean) == x.dtype
        centered = np.subtract(x, spread(mean), out=x if in_place else None)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(centered, spread(inv), out=centered)
    y = xhat * spread(gamma) if keep_xhat else np.multiply(xhat, spread(gamma), out=xhat)
    y += spread(beta)
    return _checked(y), new_mean, new_var, ((xhat, inv) if keep_xhat else None)


def channel_stats(x: np.ndarray, channel_axis: int,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance over every other axis, and the
    centered input: ``(mean, var, x - mean)``, the last written into
    ``out`` when given (``x`` itself may be it).

    Each sum is one ``np.einsum`` over the ``[outer, C, inner]`` view of
    :func:`channel_view`, for maps and token stacks alike: ``"oci->c"`` over
    ``x``, then ``"oci,oci->c"`` over the centered input, each divided by
    the count as ``np.mean`` divides. No channel-last copy and no product
    array is formed. einsum orders and groups the additions itself, so the
    bytes are not those of numpy's ``mean`` and ``var``: any order keeps a
    sum of ``n`` terms within about ``n * eps`` times the sum of their
    magnitudes, and measured errors are a few eps (``MEAN_TOL`` and
    ``VAR_TOL`` of ``tests/test_tensor_ops.py``, and
    ``tests/test_training_bound.py``, bound both against float64).
    Statistics over no positions (a zero-sample stack or an empty grid)
    are undefined and raise :class:`DimensionError`.
    """
    channel_axis %= x.ndim
    view = channel_view(x, channel_axis)
    n = view.shape[0] * view.shape[2]
    if n == 0:
        raise DimensionError(f"batch statistics over no positions: input of shape {x.shape}")
    mean = np.einsum("oci->c", view)
    np.true_divide(mean, np.intp(n), out=mean, casting="unsafe")
    centered = np.subtract(x, per_channel(x, channel_axis)(mean), out=out)
    dev = channel_view(centered, channel_axis)
    var = np.einsum("oci,oci->c", dev, dev)
    return mean, np.true_divide(var, np.intp(n), out=var, casting="unsafe"), centered


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
    """The logistic function ``1 / (1 + exp(-x))``, in four passes: negate,
    ``exp``, add one, divide one by it.

    For ``x`` below about -88.7 (float32) or -709.8 (float64), ``exp(-x)``
    overflows to inf, and ``1 / inf`` is exactly 0, the limit; that
    overflow is expected and runs under ``np.errstate(over="ignore")``, so
    no input warns. NaN stays NaN, and ``+-inf`` gives 1 and 0. The steps
    are those of ``oracles.sigmoid_steps`` in ``tests/``, which gives the
    same bytes. An array of more than :data:`ACTIVATION_CHUNK` elements runs
    in chunks (see :func:`silu`).
    """
    return _checked(_logistic(x, None, times_x=False))


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x * sigmoid(x)`` in five passes, into ``out`` when given (``x``
    itself may be it). At ``x = -inf`` that is ``-inf * 0``, NaN, which
    warns as an invalid operation; no other input warns.

    An array of more than :data:`ACTIVATION_CHUNK` elements runs in chunks
    of at most that many, each through every step before the next, so that
    no temporary is larger than a chunk; each element takes the same steps,
    and so has the same bytes, either way.
    """
    return _checked(_logistic(x, out, times_x=True))


def _logistic(x: np.ndarray, out: np.ndarray | None, times_x: bool) -> np.ndarray:
    """The steps of :func:`sigmoid` over ``x``, then a product with ``x``
    when ``times_x``, into ``out`` (which may be ``x``) or a new array.
    Over more than :data:`ACTIVATION_CHUNK` elements, one chunk after
    another through a buffered iterator; each temporary holds one chunk."""
    with np.errstate(over="ignore"):
        if x.size <= ACTIVATION_CHUNK:
            e = np.negative(x)
            np.exp(e, out=e)
            np.add(e, 1, out=e)
            np.divide(1, e, out=e)
            return np.multiply(x, e, out=e if out is None else out) if times_x else e
        out = np.empty_like(x) if out is None else out
        scratch = np.empty(ACTIVATION_CHUNK, dtype=x.dtype) if times_x else None
        with np.nditer([x, out], flags=["external_loop", "buffered"],
                       op_flags=[["readonly"], ["writeonly"]],
                       buffersize=ACTIVATION_CHUNK) as it:
            for xc, oc in it:
                e = scratch[:xc.shape[0]] if times_x else oc
                np.negative(xc, out=e)
                np.exp(e, out=e)
                np.add(e, 1, out=e)
                np.divide(1, e, out=e)
                if times_x:
                    np.multiply(xc, e, out=oc)
    return out
