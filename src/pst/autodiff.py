"""Tape-based reverse-mode differentiation over the array primitives.

Not a general autograd. The op set is exactly what the attention block and
the toy networks need, each with a hand-written backward rule that the test
suite validates against central finite differences.

Ops take the batch-first shapes of :mod:`pst.tensor_ops`: leading axes
are the batch, and a backward rule sums a weight's gradient over them.
Every op in this module accepts either plain numpy arrays or :class:`Var`
handles. With plain arrays it just computes and returns an array, so the
same forward code serves inference and training. As soon as one operand is
a Var the result is recorded on that Var's tape.

An op first tests its operands' types inline (``type(x) is not Var``).
When none is a Var, it runs the same checks and the same kernel as a
recorded call and returns the kernel's array at once, without looking up a
tape: an untaped forward pays no per-op dispatch, and its bytes are those
of the recorded call's value. Only a call with a Var operand looks up its
tape, through :func:`_tape_of` where there are several operands, which
rejects operands recorded on different tapes.

A tape is single use: one backward pass consumes it, and a second backward
without re-recording raises :class:`~pst.errors.ContractError`.

Who holds a recorded value: the :class:`Var` an op returns owns its output,
and the op's backward rule holds what its arithmetic will read (an operand,
the output, or a forward intermediate such as batch norm's x-hat), and no
more. The tape keeps nodes that name values by vid, plus the values of its
grad-enabled leaves, which the caller's parameter tree holds anyway. A rule
captures plain flags, shapes and dtypes, never a Var, so an activation lives
while its Var does or until the last rule that reads it has run:
:meth:`Tape.backward` drops each rule before it runs the next one. An
output that only the next op reads, and whose rule does not, is freed as
soon as the forward drops its Var.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor_ops as ops
from .errors import ContractError, DimensionError, NumericError
from .params import map_arrays


class Var:
    """A value recorded on a tape. The Var owns its value; the tape keeps
    only the node that made it."""

    __slots__ = ("tape", "vid", "value")

    def __init__(self, tape: "Tape", vid: int, value: np.ndarray):
        self.tape = tape
        self.vid = vid
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(vid={self.vid}, shape={self.value.shape})"


@dataclass
class _Node:
    op: str
    inputs: tuple[Optional[int], ...]
    out: int
    bwd: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]


class Tape:
    """Ordered record of operations: one node per op, naming its operands
    and its output by vid. Of the values, it keeps only those of its
    grad-enabled leaves."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._grad_leaves: dict[int, np.ndarray] = {}
        self._vids = 0
        self._consumed = False
        self.nodes_visited = 0

    def op_names(self) -> list[str]:
        return [n.op for n in self._nodes]

    def leaf(self, value: np.ndarray, requires_grad: bool = False) -> Var:
        """Register an input value. Stores the array itself, not a copy."""
        var = self._var(np.asarray(value))
        if requires_grad:
            self._grad_leaves[var.vid] = var.value
        return var

    def _var(self, value: np.ndarray) -> Var:
        self._vids += 1
        return Var(self, self._vids - 1, value)

    def _emit(self, op: str, operands: tuple, out_value: np.ndarray, bwd) -> Var:
        vids = tuple(x.vid if isinstance(x, Var) else None for x in operands)
        out = self._var(out_value)
        self._nodes.append(_Node(op, vids, out.vid, bwd))
        return out

    def backward(self, loss: Var) -> dict[int, np.ndarray]:
        """Accumulate gradients of a scalar loss for every grad-enabled leaf.

        Each node is visited exactly once, in reverse recording order.
        Leaves the loss does not reach get zero gradients.
        """
        if self._consumed:
            raise ContractError("tape already consumed by a backward pass")
        if not isinstance(loss, Var) or loss.tape is not self:
            raise ContractError("loss was not recorded on this tape")
        if loss.value.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
        self._consumed = True
        grads: dict[int, np.ndarray] = {loss.vid: np.ones_like(loss.value)}
        for node in reversed(self._nodes):
            self.nodes_visited += 1
            # Each rule is dropped before the next one runs, and with it the
            # arrays only it read.
            bwd, node.bwd = node.bwd, None
            upstream = grads.pop(node.out, None)
            in_grads = () if upstream is None else bwd(upstream)
            del bwd, upstream
            for vid, g in zip(node.inputs, in_grads):
                if vid is None or g is None:
                    continue
                if vid in grads:
                    grads[vid] = grads[vid] + g
                else:
                    grads[vid] = g
            del in_grads
        return {vid: grads[vid] if vid in grads else np.zeros_like(value)
                for vid, value in self._grad_leaves.items()}


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else x


def _tape_of(*xs) -> Optional[Tape]:
    tape = None
    for x in xs:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ContractError("operands were recorded on different tapes")
    return tape


# --- recorded operations ---------------------------------------------------


def add(a, b, *, in_place: bool = False):
    """``a + b``; with ``in_place``, an unrecorded sum of ``a``'s dtype is
    formed in ``a``'s buffer, which the caller owns."""
    plain = type(a) is not Var and type(b) is not Var
    av, bv = (a, b) if plain else (_val(a), _val(b))
    if av.shape != bv.shape:
        raise DimensionError(f"add shapes differ: {av.shape} vs {bv.shape}")
    if plain:
        if in_place and np.result_type(a, b) == a.dtype:
            return np.add(a, b, out=a)
        return a + b
    tape = _tape_of(a, b)
    out = av + bv
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)

    def bwd(up):
        return up if a_var else None, up if b_var else None

    return tape._emit("add", (a, b), out, bwd)


def mul(a, b):
    plain = type(a) is not Var and type(b) is not Var
    av, bv = (a, b) if plain else (_val(a), _val(b))
    if av.shape != bv.shape:
        raise DimensionError(f"mul shapes differ: {av.shape} vs {bv.shape}")
    out = av * bv
    if plain:
        return out
    tape = _tape_of(a, b)

    # Each operand's gradient reads the other operand.
    a_factor = bv if isinstance(a, Var) else None
    b_factor = av if isinstance(b, Var) else None

    def bwd(up):
        return (None if a_factor is None else up * a_factor,
                None if b_factor is None else up * b_factor)

    return tape._emit("mul", (a, b), out, bwd)


def scalar_affine(x, scale: float, shift: float = 0.0):
    """Elementwise ``x * scale + shift`` with python-float coefficients."""
    plain = type(x) is not Var
    xv = x if plain else x.value
    out = xv * xv.dtype.type(scale) + xv.dtype.type(shift)
    if plain:
        return out

    factor = xv.dtype.type(scale)

    def bwd(up):
        return (up * factor,)

    return x.tape._emit("scalar_affine", (x,), out, bwd)


def matmul(a, b):
    if type(a) is not Var and type(b) is not Var:
        return ops.matmul(a, b)
    av, bv = _val(a), _val(b)
    out = ops.matmul(av, bv)
    tape = _tape_of(a, b)

    right = bv if isinstance(a, Var) else None
    left = av if isinstance(b, Var) else None

    def bwd(up):
        ga = None if right is None else up @ right.T
        gb = None
        if left is not None:
            gb = left.reshape(-1, left.shape[-1]).T @ up.reshape(-1, up.shape[-1])
        return ga, gb

    return tape._emit("matmul", (a, b), out, bwd)


def transpose(x):
    plain = type(x) is not Var
    xv = x if plain else x.value
    if xv.ndim != 2:
        raise DimensionError(f"transpose expects a rank-2 array, got {xv.shape}")
    out = xv.T
    if plain:
        return out

    def bwd(up):
        return (up.T,)

    return x.tape._emit("transpose", (x,), out, bwd)


def softmax_rows(x):
    # The library's attention runs the fused ``attention`` op; this op stays
    # because perfbench reports per-layer metrics under its name.
    if type(x) is not Var:
        return ops.softmax_rows(x)
    y = ops.softmax_rows(x.value)

    def bwd(up):
        dot = (up * y).sum(axis=1, keepdims=True)
        return (y * (up - dot),)

    return x.tape._emit("softmax_rows", (x,), y, bwd)


def attention(q, k, v, heads: int, weights: Optional[np.ndarray] = None):
    """Fused multi-head attention. Returns ``(out, key_scores)``.

    The key scores are constants under differentiation and come back as a
    plain array even when ``out`` is recorded. A recorded pass keeps the
    post-softmax weights for its backward rule, in ``weights`` when given.
    """
    if type(q) is not Var and type(k) is not Var and type(v) is not Var:
        return ops.attention(q, k, v, heads, weights)
    qv, kv, vv = _val(q), _val(k), _val(v)
    tape = _tape_of(q, k, v)
    if weights is None:
        weights = ops.attention_weights_buffer(qv, kv, heads)
    out, scores = ops.attention(qv, kv, vv, heads, weights)
    scale = out.dtype.type(1.0 / math.sqrt(qv.shape[-1] // heads))
    v_var = isinstance(v, Var)
    # Every gradient reads the weights; those of q and k read the values and
    # the output too, and each of q and k reads the other.
    logits_values = vv if isinstance(q, Var) or isinstance(k, Var) else None
    logits_out = out if logits_values is not None else None
    q_reads = kv if isinstance(q, Var) else None
    k_reads = qv if isinstance(k, Var) else None

    def bwd(up):
        d_out = ops.split_heads(up, heads)
        gq = gk = gv = None
        if v_var:
            gv = ops.merge_heads(np.matmul(weights.swapaxes(-1, -2), d_out))
        if logits_values is not None:
            d_weights = np.matmul(d_out, ops.split_heads(logits_values, heads).swapaxes(-1, -2))
            dot = (d_out * ops.split_heads(logits_out, heads)).sum(axis=-1, keepdims=True)
            d_logits = weights * (d_weights - dot) * scale
            if q_reads is not None:
                gq = ops.merge_heads(np.matmul(d_logits, ops.split_heads(q_reads, heads)))
            if k_reads is not None:
                gk = ops.merge_heads(
                    np.matmul(d_logits.swapaxes(-1, -2), ops.split_heads(k_reads, heads)))
        return gq, gk, gv

    return tape._emit("attention", (q, k, v), out, bwd), scores


def conv1x1(x, w):
    """Pointwise convolution; see :func:`pst.tensor_ops.conv1x1`. The weight
    gradient is one ``np.matmul`` per sample, ``[C_out, H*W] @ [H*W, C_in]``
    of ``up`` against the input read transposed in place, summed over
    samples in order, so no operand is copied. BLAS groups the sums as it
    chooses; ``tests/test_training_bound.py`` bounds them against
    float64."""
    if type(x) is not Var and type(w) is not Var:
        return ops.conv1x1(x, w)
    xv, wv = _val(x), _val(w)
    out = ops.conv1x1(xv, wv)
    tape = _tape_of(x, w)

    weight = wv if isinstance(x, Var) else None
    inputs = ops.channel_view(xv, xv.ndim - 3) if isinstance(w, Var) else None

    def bwd(up):
        gx = None if weight is None else ops.conv1x1(up, weight.T)
        gw = None if inputs is None else np.matmul(
            ops.channel_view(up, up.ndim - 3), inputs.swapaxes(-1, -2)).sum(axis=0)
        return gx, gw

    return tape._emit("conv1x1", (x, w), out, bwd)


def depthwise_conv7x7(x, kernel):
    if type(x) is not Var and type(kernel) is not Var:
        return ops.depthwise_conv7x7(x, kernel)
    xv, kv = _val(x), _val(kernel)
    out = ops.depthwise_conv7x7(xv, kv)
    tape = _tape_of(x, kernel)

    inputs = xv if isinstance(kernel, Var) else None
    k_dtype = kv.dtype
    # The adjoint of a 7x7 correlation is the correlation with the kernel
    # turned by 180 degrees.
    turned = kv[:, ::-1, ::-1] if isinstance(x, Var) else None

    def bwd(up):
        gk = None
        if inputs is not None:
            gk = ops.depthwise_kernel_grad(inputs, up).astype(k_dtype, copy=False)
        gx = None if turned is None else ops.depthwise_conv7x7(up, turned)
        return gx, gk

    return tape._emit("depthwise_conv7x7", (x, kernel), out, bwd)


def batch_norm(x, gamma, beta, running_mean, running_var, *,
               mode: str = "infer", channel_axis: int = 0,
               eps: float = ops.BN_EPS, momentum: float = 0.03, in_place: bool = False):
    """Normalization op. Returns ``(y, new_running_mean, new_running_var)``.

    Running statistics are constants under differentiation: the updated
    values come back as plain arrays even when ``y`` is recorded. With
    ``in_place``, an unrecorded ``y`` is formed in ``x``'s buffer, which the
    caller owns.
    """
    if type(x) is not Var and type(gamma) is not Var and type(beta) is not Var:
        return ops._batch_norm(x, gamma, beta, running_mean, running_var, mode,
                               channel_axis % x.ndim, eps, momentum,
                               keep_xhat=False, in_place=in_place)[:3]
    xv, gv, bv = _val(x), _val(gamma), _val(beta)
    tape = _tape_of(x, gamma, beta)
    channel_axis %= xv.ndim
    y, new_mean, new_var, (xhat, inv) = ops._batch_norm(
        xv, gv, bv, running_mean, running_var, mode, channel_axis, eps, momentum,
        keep_xhat=True, in_place=in_place)

    spread = ops.per_channel(xv, channel_axis)
    pshape = (-1,) + (1,) * (xv.ndim - channel_axis - 1)
    rows = math.prod(xv.shape[:channel_axis] + xv.shape[channel_axis + 1:])
    gamma_v = gv if isinstance(x, Var) else None
    gamma_var, beta_var = isinstance(gamma, Var), isinstance(beta, Var)

    def bwd(up):
        # Both sums are one einsum over [outer, C, inner] views, as the
        # forward's statistics are (see tensor_ops.channel_stats).
        ups = ops.channel_view(up, channel_axis)
        g_beta = np.einsum("oci->c", ups)
        g_gamma = np.einsum("oci,oci->c", ups, ops.channel_view(xhat, channel_axis))
        gx = None
        if gamma_v is not None:
            scale = inv * gamma_v
            if mode == "train":
                # up - mean(up) - xhat * mean(up * xhat), per channel, each
                # step into gx, whose layout is xhat's.
                gx = xhat * spread(g_gamma / rows)
                np.subtract(up, gx, out=gx)
                gx -= spread(g_beta / rows)
                gx *= spread(scale)
            else:
                gx = up * scale.reshape(pshape)
        return gx, g_gamma if gamma_var else None, g_beta if beta_var else None

    y_var = tape._emit("batch_norm", (x, gamma, beta), y, bwd)
    return y_var, new_mean, new_var


def channel_affine(x, scale: np.ndarray, shift: Optional[np.ndarray] = None, *,
                   channel_axis: int, in_place: bool = False):
    """``x * scale + shift`` per channel along ``channel_axis``; see
    :func:`pst.tensor_ops.channel_affine`. ``scale`` and ``shift`` are plain
    arrays, constants under differentiation. With ``in_place``, an
    unrecorded result of ``x``'s dtype is formed in ``x``'s buffer, which
    the caller owns."""
    if type(x) is not Var:
        in_place = in_place and np.result_type(x, scale) == x.dtype
        return ops.channel_affine(x, scale, shift, channel_axis, out=x if in_place else None)
    xv = x.value
    out = ops.channel_affine(xv, scale, shift, channel_axis)
    factor = scale.reshape((-1,) + (1,) * (xv.ndim - 1 - channel_axis % xv.ndim))

    def bwd(up):
        return (up * factor,)

    return x.tape._emit("channel_affine", (x,), out, bwd)


def upsample_tokens2x(x):
    """Tokens of the nearest 2x upsampling of a [..., C, H, W] map; see
    :func:`pst.tensor_ops.upsample_tokens2x`."""
    if type(x) is not Var:
        return ops.upsample_tokens2x(x)
    out = ops.upsample_tokens2x(x.value)
    h, w = x.value.shape[-2:]

    def bwd(up):
        return (ops.upsample_tokens2x_adjoint(up, h, w),)

    return x.tape._emit("upsample_tokens2x", (x,), out, bwd)


def downsample_avg2x(x):
    if type(x) is not Var:
        return ops.downsample_avg2x(x)
    out = ops.downsample_avg2x(x.value)

    def bwd(up):
        return (np.repeat(np.repeat(up, 2, axis=-2), 2, axis=-1) * up.dtype.type(0.25),)

    return x.tape._emit("downsample_avg2x", (x,), out, bwd)


def concat_channels(a, b):
    if type(a) is not Var and type(b) is not Var:
        return ops.concat_channels(a, b)
    av, bv = _val(a), _val(b)
    out = ops.concat_channels(av, bv)
    tape = _tape_of(a, b)
    split = av.shape[-3]
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)

    def bwd(up):
        return (up[..., :split, :, :] if a_var else None,
                up[..., split:, :, :] if b_var else None)

    return tape._emit("concat_channels", (a, b), out, bwd)


def map_to_tokens(x):
    if type(x) is not Var:
        return ops.map_to_tokens(x)
    out = ops.map_to_tokens(x.value)
    h, w = x.value.shape[-2:]

    def bwd(up):
        return (ops.tokens_to_map(up, h, w),)

    return x.tape._emit("map_to_tokens", (x,), out, bwd)


def tokens_to_map(t, h: int, w: int):
    if type(t) is not Var:
        return ops.tokens_to_map(t, h, w)
    out = ops.tokens_to_map(t.value, h, w)

    def bwd(up):
        return (ops.map_to_tokens(up),)

    return t.tape._emit("tokens_to_map", (t,), out, bwd)


def gather_rows(t, indices):
    """Row gather. Indices are constants under differentiation; the backward
    rule scatter-adds into the source rows."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if type(t) is not Var:
        return ops.gather_rows(t, idx)
    out = ops.gather_rows(t.value, idx)
    shape, dtype = t.value.shape, t.value.dtype

    def bwd(up):
        g = np.zeros(shape, dtype)
        np.add.at(g, idx, up)
        return (g,)

    return t.tape._emit("gather_rows", (t,), out, bwd)


def concat_cols(parts: Sequence):
    """Join [..., N, d_i] token matrices along their last axis."""
    if Var not in map(type, parts):
        return np.concatenate(parts, axis=-1)
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=-1)
    tape = _tape_of(*parts)
    widths = [v.shape[-1] for v in vals]
    recorded = [isinstance(p, Var) for p in parts]

    def bwd(up):
        grads = []
        offset = 0
        for rec, wd in zip(recorded, widths):
            grads.append(up[..., offset : offset + wd] if rec else None)
            offset += wd
        return grads

    return tape._emit("concat_cols", tuple(parts), out, bwd)


def stack(parts: Sequence):
    """Stack equal-shaped samples along a new leading batch axis."""
    plain = Var not in map(type, parts)
    vals = list(parts) if plain else [_val(p) for p in parts]
    if not vals or any(v.shape != vals[0].shape for v in vals):
        raise DimensionError(f"stack expects one or more equal shapes, got {[v.shape for v in vals]}")
    out = np.stack(vals)
    if plain:
        return out
    tape = _tape_of(*parts)

    recorded = [isinstance(p, Var) for p in parts]

    def bwd(up):
        return [up[i] if rec else None for i, rec in enumerate(recorded)]

    return tape._emit("stack", tuple(parts), out, bwd)


def unstack(x) -> list:
    """Split a stack along its leading axis: one sample per entry.

    Recorded as one ``unstack`` op per sample, each scattering its gradient
    back into the stack's shape.
    """
    plain = type(x) is not Var
    xv = x if plain else x.value
    if xv.ndim < 1:
        raise DimensionError("unstack expects an array with a leading batch axis")
    if plain:
        return list(xv)
    tape, shape, dtype = x.tape, xv.shape, xv.dtype

    def take(i):
        def bwd(up):
            g = np.zeros(shape, dtype)
            g[i] = up
            return (g,)

        return tape._emit("unstack", (x,), xv[i], bwd)

    return [take(i) for i in range(xv.shape[0])]


def add_bias(x, b):
    """Broadcast a [C] bias over the rows of a [..., N, C] matrix."""
    plain = type(x) is not Var and type(b) is not Var
    xv, bv = (x, b) if plain else (_val(x), _val(b))
    if xv.ndim < 2 or bv.shape != (xv.shape[-1],):
        raise DimensionError(f"add_bias shapes incompatible: {xv.shape} + {bv.shape}")
    out = xv + bv
    if plain:
        return out
    tape = _tape_of(x, b)

    x_var, b_var, c = isinstance(x, Var), isinstance(b, Var), bv.shape[0]

    def bwd(up):
        return up if x_var else None, up.reshape(-1, c).sum(axis=0) if b_var else None

    return tape._emit("add_bias", (x, b), out, bwd)


def linear(v, w, b):
    """Affine map of feature vectors: ``v @ w + b`` for a [..., F] ``v``.

    Each vector is its own row product, so a stacked vector gives the bytes
    it gives alone.
    """
    plain = type(v) is not Var and type(w) is not Var and type(b) is not Var
    vv, wv, bv = (v, w, b) if plain else (_val(v), _val(w), _val(b))
    if vv.ndim < 1 or wv.ndim != 2 or vv.shape[-1] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise DimensionError(f"linear shapes incompatible: {vv.shape} @ {wv.shape} + {bv.shape}")
    out = (vv[..., None, :] @ wv)[..., 0, :] + bv
    if plain:
        return out
    tape = _tape_of(v, w, b)

    weight = wv if isinstance(v, Var) else None
    inputs = vv if isinstance(w, Var) else None
    b_var, (f, k) = isinstance(b, Var), wv.shape

    def bwd(up):
        gv = None if weight is None else (weight @ up[..., None])[..., 0]
        gw = None if inputs is None else inputs.reshape(-1, f).T @ up.reshape(-1, k)
        gb = up.reshape(-1, k).sum(axis=0) if b_var else None
        return gv, gw, gb

    return tape._emit("linear", (v, w, b), out, bwd)


def silu(x, *, in_place: bool = False):
    """``x * sigmoid(x)``; with ``in_place``, an unrecorded result is formed
    in ``x``'s buffer, which the caller owns."""
    if type(x) is not Var:
        return ops.silu(x, out=x if in_place else None)
    xv = x.value
    s = ops.sigmoid(xv)
    out = xv * s

    def bwd(up):
        g = 1.0 - s
        g *= xv
        g += 1.0
        g *= s
        g *= up
        return (g,)

    return x.tape._emit("silu", (x,), out, bwd)


def sigmoid(x):
    if type(x) is not Var:
        return ops.sigmoid(x)
    y = ops.sigmoid(x.value)

    def bwd(up):
        return (up * y * (1.0 - y),)

    return x.tape._emit("sigmoid", (x,), y, bwd)


def mean_spatial(x):
    """Average a [..., C, H, W] map over its spatial axes, yielding [..., C]."""
    plain = type(x) is not Var
    xv = x if plain else x.value
    if xv.ndim < 3:
        raise DimensionError(f"mean_spatial expects a [..., C, H, W] input, got {xv.shape}")
    out = xv.mean(axis=(-2, -1))
    if plain:
        return out
    shape, scale = xv.shape, xv.dtype.type(1.0 / (xv.shape[-2] * xv.shape[-1]))

    def bwd(up):
        return (np.broadcast_to(up[..., None, None], shape) * scale,)

    return x.tape._emit("mean_spatial", (x,), out, bwd)


def sum_all(x):
    plain = type(x) is not Var
    xv = x if plain else x.value
    out = np.asarray(xv.sum(), dtype=xv.dtype)
    if plain:
        return out

    shape, dtype = xv.shape, xv.dtype

    def bwd(up):
        return (np.ones(shape, dtype) * up,)

    return x.tape._emit("sum_all", (x,), out, bwd)


def mean_all(x):
    plain = type(x) is not Var
    xv = x if plain else x.value
    out = np.asarray(xv.mean(), dtype=xv.dtype)
    if plain:
        return out
    shape, dtype = xv.shape, xv.dtype
    scale = dtype.type(1.0 / xv.size)

    def bwd(up):
        return (np.ones(shape, dtype) * (up * scale),)

    return x.tape._emit("mean_all", (x,), out, bwd)


def cross_entropy(logits, labels):
    """Negative log likelihood of each label under softmax of its logit vector.

    ``logits`` is [..., K] and ``labels`` an int or int array of shape
    [...]; the result has shape [...], one loss per logit vector.
    """
    plain = type(logits) is not Var
    lv = logits if plain else logits.value
    picks = np.asarray(labels, dtype=np.int64)
    if lv.ndim < 1 or picks.shape != lv.shape[:-1]:
        raise DimensionError(f"cross_entropy expects [..., K] logits with [...] labels, "
                             f"got {lv.shape} and {picks.shape}")
    k = lv.shape[-1]
    if picks.size and not (0 <= picks.min() and picks.max() < k):
        bad = picks.min() if picks.min() < 0 else picks.max()
        raise ValueError(f"label {bad} outside [0, {k})")
    onehot = np.arange(k) == picks[..., None]
    shifted = lv - lv.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = np.asarray((lse - shifted)[onehot].reshape(picks.shape), dtype=lv.dtype)
    if plain:
        return out
    probs = np.exp(shifted - lse)

    def bwd(up):
        g = probs.copy()
        g[onehot] -= 1.0
        return (g * up[..., None],)

    return logits.tape._emit("cross_entropy", (logits,), out, bwd)


# --- gradient checking ------------------------------------------------------


def lift_tree(tape: Tape, params, requires_grad: bool = True):
    """Wrap every non-buffer array of a parameter tree as a tape leaf.

    Returns ``(lifted_tree, leaves)`` where ``leaves`` maps dotted names to
    the created Vars. Leaf Vars reference the original arrays, so in-place
    updates through ``Var.value`` reach the caller's tree.
    """
    leaves: dict[str, Var] = {}

    def lift(name, arr, is_buffer):
        if is_buffer:
            return arr
        var = tape.leaf(arr, requires_grad=requires_grad)
        leaves[name] = var
        return var

    lifted = map_arrays(params, lift)
    return lifted, leaves


def finite_diff_grad(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    The step for coordinate ``i`` is ``h * max(|theta_i|, 1)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        step = h * max(abs(float(flat[i])), 1.0)
        probe = theta.copy().reshape(-1)
        probe[i] = flat[i] + step
        f_plus = float(f(probe.reshape(theta.shape)))
        probe[i] = flat[i] - step
        f_minus = float(f(probe.reshape(theta.shape)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("finite differences hit a non-finite loss value")
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


@dataclass(frozen=True)
class GradCheckEntry:
    name: str
    max_rel_error: float

    def passed(self, threshold: float) -> bool:
        return self.max_rel_error < threshold


@dataclass
class GradReport:
    """Per-parameter comparison of analytic and numeric gradients."""

    entries: list[GradCheckEntry] = field(default_factory=list)
    threshold: float = 1e-4

    @property
    def passed(self) -> bool:
        return all(e.passed(self.threshold) for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.passed(self.threshold)]

    def to_text(self) -> str:
        width = max([len(e.name) for e in self.entries] + [9])
        lines = [f"{'parameter':<{width}}  max rel err  status"]
        for e in self.entries:
            status = "pass" if e.passed(self.threshold) else "FAIL"
            lines.append(f"{e.name:<{width}}  {e.max_rel_error:<11.3e}  {status}")
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} (threshold {self.threshold:g})")
        return "\n".join(lines)


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   spread: Optional[np.ndarray] = None) -> float:
    """Max over coordinates of |ga - gn| / max(|ga|, |gn|, 1e-8). A
    coordinate whose |ga - gn| lies within ``spread``, the finite
    difference's own error estimate there, counts as 0."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    if analytic.size == 0:
        return 0.0
    gap = np.abs(analytic - numeric)
    if spread is not None:
        gap[gap <= spread] = 0.0
    return float((gap / denom).max())


# Rounding steps of the loss that a central difference cannot tell from a
# zero change: each of its two loss values carries a few rounding errors of
# size eps * |loss|.
FD_ROUNDING_STEPS = 16


def check_gradients(loss_builder: Callable, params, *, h: float = 1e-5,
                    threshold: float = 1e-4) -> GradReport:
    """Compare tape gradients with finite differences for a whole tree.

    ``loss_builder(lifted_params)`` must record a scalar loss using the ops
    of this module. Every learnable leaf is covered; parameters the loss
    never touches are checked against an all-zero numeric gradient. The
    tree must be float64 for the comparison to be meaningful.

    Finite differences resolve a gradient coordinate only down to
    ``FD_ROUNDING_STEPS * eps * |loss| / step`` (``step`` as in
    :func:`finite_diff_grad`). A leaf whose tape and numeric gradients both
    lie within that bound in every coordinate, a structurally zero gradient
    say, passes with error 0; every other leaf is compared by
    :func:`relative_error`.

    Where that comparison reaches ``threshold``, the leaf's central
    differences are taken again at step ``h / 2``. Per coordinate, the
    spread of the two differences estimates the error of the first: its
    truncation error shrinks fourfold at the half step, and its rounding
    error is redrawn. A coordinate whose tape and numeric gradients differ
    by no more than that spread counts as agreeing, since the difference
    cannot resolve it; the leaf's error is then :func:`relative_error` with
    that spread.
    """
    probe = Tape()
    lifted, leaves = lift_tree(probe, params)
    for name, var in leaves.items():
        if var.value.dtype != np.float64:
            raise ContractError(f"gradient checking requires float64 parameters ({name} is {var.value.dtype})")
    loss = loss_builder(lifted)
    table = probe.backward(loss)
    resolution = FD_ROUNDING_STEPS * np.finfo(np.float64).eps * abs(float(loss.value)) / h

    report = GradReport(threshold=threshold)
    for name, var in leaves.items():
        analytic = table[var.vid]
        target = var.value
        original = target.copy()

        def f(candidate, _target=target):
            _target[...] = candidate
            try:
                tape = Tape()
                relifted, _ = lift_tree(tape, params)
                return float(_val(loss_builder(relifted)))
            finally:
                _target[...] = original

        numeric = finite_diff_grad(f, original, h=h)
        bound = resolution / np.maximum(np.abs(original), 1.0)
        unresolved = np.all(np.abs(analytic) <= bound) and np.all(np.abs(numeric) <= bound)
        error = 0.0 if unresolved else relative_error(analytic, numeric)
        if error >= threshold:
            spread = np.abs(numeric - finite_diff_grad(f, original, h=h / 2))
            error = relative_error(analytic, numeric, spread)
        report.entries.append(GradCheckEntry(name, error))
    return report
