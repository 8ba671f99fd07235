"""Tape-based reverse-mode differentiation over the array primitives.

Not a general autograd. The op set is exactly what the attention block and
the toy networks need, each with a hand-written backward rule that the test
suite validates against central finite differences.

Every op in this module accepts either plain numpy arrays or :class:`Var`
handles. With plain arrays it just computes and returns an array, so the
same forward code serves inference and training. As soon as one operand is
a Var the result is recorded on that Var's tape.

A tape is single use: one backward pass consumes it, and a second backward
without re-recording raises :class:`~pst.errors.ContractError`.
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
    """Handle to a value recorded on a tape."""

    __slots__ = ("tape", "vid")

    def __init__(self, tape: "Tape", vid: int):
        self.tape = tape
        self.vid = vid

    @property
    def value(self) -> np.ndarray:
        return self.tape._values[self.vid]

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
    """Ordered record of operations plus the value table they refer to."""

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._nodes: list[_Node] = []
        self._grad_leaves: dict[int, bool] = {}
        self._consumed = False
        self.nodes_visited = 0

    def op_names(self) -> list[str]:
        return [n.op for n in self._nodes]

    def leaf(self, value: np.ndarray, requires_grad: bool = False) -> Var:
        """Register an input value. Stores the array itself, not a copy."""
        vid = self._add_value(np.asarray(value))
        self._grad_leaves[vid] = requires_grad
        return Var(self, vid)

    def _add_value(self, value: np.ndarray) -> int:
        self._values.append(value)
        return len(self._values) - 1

    def _emit(self, op: str, operands: tuple, out_value: np.ndarray, bwd) -> Var:
        vids = tuple(x.vid if isinstance(x, Var) else None for x in operands)
        out = self._add_value(out_value)
        self._nodes.append(_Node(op, vids, out, bwd))
        return Var(self, out)

    def backward(self, loss: Var) -> dict[int, np.ndarray]:
        """Accumulate gradients of a scalar loss for every grad-enabled leaf.

        Each node is visited exactly once, in reverse recording order.
        Leaves the loss does not reach get zero gradients.
        """
        if self._consumed:
            raise ContractError("tape already consumed by a backward pass")
        if not isinstance(loss, Var) or loss.tape is not self:
            raise ContractError("loss was not recorded on this tape")
        loss_value = self._values[loss.vid]
        if loss_value.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss_value.shape}")
        self._consumed = True
        grads: dict[int, np.ndarray] = {loss.vid: np.ones_like(loss_value)}
        for node in reversed(self._nodes):
            self.nodes_visited += 1
            # Dropping each rule breaks the cycle rule -> Var -> tape, so a
            # consumed tape's arrays are freed as soon as its Vars are.
            bwd, node.bwd = node.bwd, None
            upstream = grads.pop(node.out, None)
            if upstream is None:
                continue
            for vid, g in zip(node.inputs, bwd(upstream)):
                if vid is None or g is None:
                    continue
                if vid in grads:
                    grads[vid] = grads[vid] + g
                else:
                    grads[vid] = g
        table: dict[int, np.ndarray] = {}
        for vid, requires in self._grad_leaves.items():
            if not requires:
                continue
            g = grads.get(vid)
            table[vid] = g if g is not None else np.zeros_like(self._values[vid])
        return table


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


def add(a, b):
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape:
        raise DimensionError(f"add shapes differ: {av.shape} vs {bv.shape}")
    out = av + bv
    tape = _tape_of(a, b)
    if tape is None:
        return out

    def bwd(up):
        return (up if isinstance(a, Var) else None,
                up if isinstance(b, Var) else None)

    return tape._emit("add", (a, b), out, bwd)


def mul(a, b):
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape:
        raise DimensionError(f"mul shapes differ: {av.shape} vs {bv.shape}")
    out = av * bv
    tape = _tape_of(a, b)
    if tape is None:
        return out

    def bwd(up):
        return (up * bv if isinstance(a, Var) else None,
                up * av if isinstance(b, Var) else None)

    return tape._emit("mul", (a, b), out, bwd)


def scalar_affine(x, scale: float, shift: float = 0.0):
    """Elementwise ``x * scale + shift`` with python-float coefficients."""
    xv = _val(x)
    out = xv * xv.dtype.type(scale) + xv.dtype.type(shift)
    tape = _tape_of(x)
    if tape is None:
        return out

    def bwd(up):
        return (up * xv.dtype.type(scale),)

    return tape._emit("scalar_affine", (x,), out, bwd)


def matmul(a, b):
    av, bv = _val(a), _val(b)
    out = ops.matmul(av, bv)
    tape = _tape_of(a, b)
    if tape is None:
        return out

    def bwd(up):
        ga = up @ bv.T if isinstance(a, Var) else None
        gb = av.T @ up if isinstance(b, Var) else None
        return ga, gb

    return tape._emit("matmul", (a, b), out, bwd)


def transpose(x):
    xv = _val(x)
    if xv.ndim != 2:
        raise DimensionError(f"transpose expects a rank-2 array, got {xv.shape}")
    out = xv.T
    tape = _tape_of(x)
    if tape is None:
        return out

    def bwd(up):
        return (up.T,)

    return tape._emit("transpose", (x,), out, bwd)


def softmax_rows(x):
    # The library's attention runs the fused ``attention`` op; this op stays
    # because perfbench reports per-layer metrics under its name.
    xv = _val(x)
    y = ops.softmax_rows(xv)
    tape = _tape_of(x)
    if tape is None:
        return y

    def bwd(up):
        dot = (up * y).sum(axis=1, keepdims=True)
        return (y * (up - dot),)

    return tape._emit("softmax_rows", (x,), y, bwd)


def attention(q, k, v, heads: int, weights: Optional[np.ndarray] = None):
    """Fused multi-head attention. Returns ``(out, key_scores)``.

    The key scores are constants under differentiation and come back as a
    plain array even when ``out`` is recorded. A recorded pass keeps the
    post-softmax weights for its backward rule, in ``weights`` when given.
    """
    qv, kv, vv = _val(q), _val(k), _val(v)
    tape = _tape_of(q, k, v)
    if tape is not None and weights is None:
        weights = ops.attention_weights_buffer(qv, kv, heads)
    out, scores = ops.attention(qv, kv, vv, heads, weights)
    if tape is None:
        return out, scores
    scale = out.dtype.type(1.0 / math.sqrt(qv.shape[1] // heads))

    def bwd(up):
        d_out = ops.split_heads(up, heads)
        gq = gk = gv = None
        if isinstance(v, Var):
            gv = ops.merge_heads(np.matmul(weights.transpose(0, 2, 1), d_out))
        if isinstance(q, Var) or isinstance(k, Var):
            d_weights = np.matmul(d_out, ops.split_heads(vv, heads).transpose(0, 2, 1))
            dot = (d_out * ops.split_heads(out, heads)).sum(axis=2, keepdims=True)
            d_logits = weights * (d_weights - dot) * scale
            if isinstance(q, Var):
                gq = ops.merge_heads(np.matmul(d_logits, ops.split_heads(kv, heads)))
            if isinstance(k, Var):
                gk = ops.merge_heads(
                    np.matmul(d_logits.transpose(0, 2, 1), ops.split_heads(qv, heads)))
        return gq, gk, gv

    return tape._emit("attention", (q, k, v), out, bwd), scores


def conv1x1(x, w):
    xv, wv = _val(x), _val(w)
    out = ops.conv1x1(xv, wv)
    tape = _tape_of(x, w)
    if tape is None:
        return out
    c_in = xv.shape[0]
    c_out = wv.shape[0]

    def bwd(up):
        gx = ops.conv1x1(up, wv.T) if isinstance(x, Var) else None
        gw = None
        if isinstance(w, Var):
            gw = up.reshape(c_out, -1) @ xv.reshape(c_in, -1).T
        return gx, gw

    return tape._emit("conv1x1", (x, w), out, bwd)


def depthwise_conv7x7(x, kernel):
    xv, kv = _val(x), _val(kernel)
    out = ops.depthwise_conv7x7(xv, kv)
    tape = _tape_of(x, kernel)
    if tape is None:
        return out
    c, h, w = xv.shape

    def bwd(up):
        gx = None
        gk = None
        xp = np.zeros((c, h + 6, w + 6), dtype=xv.dtype)
        xp[:, 3 : h + 3, 3 : w + 3] = xv
        if isinstance(kernel, Var):
            gk = np.zeros_like(kv)
            for u in range(7):
                for v in range(7):
                    gk[:, u, v] = (up * xp[:, u : u + h, v : v + w]).sum(axis=(1, 2))
        if isinstance(x, Var):
            gxp = np.zeros_like(xp)
            for u in range(7):
                for v in range(7):
                    gxp[:, u : u + h, v : v + w] += kv[:, u, v][:, None, None] * up
            gx = gxp[:, 3 : h + 3, 3 : w + 3]
        return gx, gk

    return tape._emit("depthwise_conv7x7", (x, kernel), out, bwd)


def batch_norm(x, gamma, beta, running_mean, running_var, *,
               mode: str = "infer", channel_axis: int = 0,
               eps: float = 1e-5, momentum: float = 0.03):
    """Normalization op. Returns ``(y, new_running_mean, new_running_var)``.

    Running statistics are constants under differentiation: the updated
    values come back as plain arrays even when ``y`` is recorded.
    """
    xv, gv, bv = _val(x), _val(gamma), _val(beta)
    y, new_mean, new_var = ops.batch_norm(
        xv, gv, bv, running_mean, running_var,
        mode=mode, channel_axis=channel_axis, eps=eps, momentum=momentum)
    tape = _tape_of(x, gamma, beta)
    if tape is None:
        return y, new_mean, new_var

    channels = xv.shape[channel_axis]
    pshape = [1] * xv.ndim
    pshape[channel_axis] = channels
    reduce_axes = tuple(i for i in range(xv.ndim) if i != channel_axis)
    if mode == "train":
        mean = xv.mean(axis=reduce_axes).reshape(pshape)
        var = xv.var(axis=reduce_axes).reshape(pshape)
    else:
        mean = running_mean.reshape(pshape)
        var = running_var.reshape(pshape)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean) * inv

    def bwd(up):
        g_gamma = (up * xhat).sum(axis=reduce_axes) if isinstance(gamma, Var) else None
        g_beta = up.sum(axis=reduce_axes) if isinstance(beta, Var) else None
        gx = None
        if isinstance(x, Var):
            dxhat = up * gv.reshape(pshape)
            if mode == "train":
                m1 = dxhat.mean(axis=reduce_axes, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=reduce_axes, keepdims=True)
                gx = inv * (dxhat - m1 - xhat * m2)
            else:
                gx = dxhat * inv
        return gx, g_gamma, g_beta

    y_var = tape._emit("batch_norm", (x, gamma, beta), y, bwd)
    return y_var, new_mean, new_var


def upsample_nearest2x(x):
    xv = _val(x)
    out = ops.upsample_nearest2x(xv)
    tape = _tape_of(x)
    if tape is None:
        return out
    c, h, w = xv.shape

    def bwd(up):
        return (up.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return tape._emit("upsample_nearest2x", (x,), out, bwd)


def downsample_avg2x(x):
    xv = _val(x)
    out = ops.downsample_avg2x(xv)
    tape = _tape_of(x)
    if tape is None:
        return out

    def bwd(up):
        return (np.repeat(np.repeat(up, 2, axis=1), 2, axis=2) * up.dtype.type(0.25),)

    return tape._emit("downsample_avg2x", (x,), out, bwd)


def concat_channels(a, b):
    av, bv = _val(a), _val(b)
    out = ops.concat_channels(av, bv)
    tape = _tape_of(a, b)
    if tape is None:
        return out
    split = av.shape[0]

    def bwd(up):
        return (up[:split] if isinstance(a, Var) else None,
                up[split:] if isinstance(b, Var) else None)

    return tape._emit("concat_channels", (a, b), out, bwd)


def map_to_tokens(x):
    xv = _val(x)
    out = ops.map_to_tokens(xv)
    tape = _tape_of(x)
    if tape is None:
        return out
    _, h, w = xv.shape

    def bwd(up):
        return (ops.tokens_to_map(up, h, w),)

    return tape._emit("map_to_tokens", (x,), out, bwd)


def tokens_to_map(t, h: int, w: int):
    tv = _val(t)
    out = ops.tokens_to_map(tv, h, w)
    tape = _tape_of(t)
    if tape is None:
        return out

    def bwd(up):
        return (ops.map_to_tokens(up),)

    return tape._emit("tokens_to_map", (t,), out, bwd)


def gather_rows(t, indices):
    """Row gather. Indices are constants under differentiation; the backward
    rule scatter-adds into the source rows."""
    tv = _val(t)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = ops.gather_rows(tv, idx)
    tape = _tape_of(t)
    if tape is None:
        return out

    def bwd(up):
        g = np.zeros_like(tv)
        np.add.at(g, idx, up)
        return (g,)

    return tape._emit("gather_rows", (t,), out, bwd)


def concat_cols(parts: Sequence):
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=1)
    tape = _tape_of(*parts)
    if tape is None:
        return out
    widths = [v.shape[1] for v in vals]

    def bwd(up):
        grads = []
        offset = 0
        for p, wd in zip(parts, widths):
            grads.append(up[:, offset : offset + wd] if isinstance(p, Var) else None)
            offset += wd
        return grads

    return tape._emit("concat_cols", tuple(parts), out, bwd)


def row_slice(t, start: int, stop: int):
    tv = _val(t)
    if tv.ndim != 2:
        raise DimensionError(f"row_slice expects a rank-2 array, got {tv.shape}")
    out = tv[start:stop]
    tape = _tape_of(t)
    if tape is None:
        return out

    def bwd(up):
        g = np.zeros_like(tv)
        g[start:stop] = up
        return (g,)

    return tape._emit("row_slice", (t,), out, bwd)


def concat_rows(parts: Sequence):
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=0)
    tape = _tape_of(*parts)
    if tape is None:
        return out
    heights = [v.shape[0] for v in vals]

    def bwd(up):
        grads = []
        offset = 0
        for p, ht in zip(parts, heights):
            grads.append(up[offset : offset + ht] if isinstance(p, Var) else None)
            offset += ht
        return grads

    return tape._emit("concat_rows", tuple(parts), out, bwd)


def add_bias(x, b):
    """Broadcast a [C] bias over the rows of a [N, C] matrix."""
    xv, bv = _val(x), _val(b)
    if xv.ndim != 2 or bv.shape != (xv.shape[1],):
        raise DimensionError(f"add_bias shapes incompatible: {xv.shape} + {bv.shape}")
    out = xv + bv
    tape = _tape_of(x, b)
    if tape is None:
        return out

    def bwd(up):
        return (up if isinstance(x, Var) else None,
                up.sum(axis=0) if isinstance(b, Var) else None)

    return tape._emit("add_bias", (x, b), out, bwd)


def linear(v, w, b):
    """Vector-matrix affine map: ``v @ w + b`` for a rank-1 ``v``."""
    vv, wv, bv = _val(v), _val(w), _val(b)
    if vv.ndim != 1 or wv.ndim != 2 or vv.shape[0] != wv.shape[0] or bv.shape != (wv.shape[1],):
        raise DimensionError(f"linear shapes incompatible: {vv.shape} @ {wv.shape} + {bv.shape}")
    out = vv @ wv + bv
    tape = _tape_of(v, w, b)
    if tape is None:
        return out

    def bwd(up):
        gv = wv @ up if isinstance(v, Var) else None
        gw = np.outer(vv, up) if isinstance(w, Var) else None
        gb = up if isinstance(b, Var) else None
        return gv, gw, gb

    return tape._emit("linear", (v, w, b), out, bwd)


def silu(x):
    xv = _val(x)
    s = ops.sigmoid(xv)
    out = xv * s
    tape = _tape_of(x)
    if tape is None:
        return out

    def bwd(up):
        return (up * (s * (1.0 + xv * (1.0 - s))),)

    return tape._emit("silu", (x,), out, bwd)


def sigmoid(x):
    xv = _val(x)
    y = ops.sigmoid(xv)
    tape = _tape_of(x)
    if tape is None:
        return y

    def bwd(up):
        return (up * y * (1.0 - y),)

    return tape._emit("sigmoid", (x,), y, bwd)


def mean_spatial(x):
    """Average a [C, H, W] map over its spatial axes, yielding [C]."""
    xv = _val(x)
    if xv.ndim != 3:
        raise DimensionError(f"mean_spatial expects a [C, H, W] input, got {xv.shape}")
    out = xv.mean(axis=(1, 2))
    tape = _tape_of(x)
    if tape is None:
        return out
    scale = 1.0 / (xv.shape[1] * xv.shape[2])

    def bwd(up):
        return (np.broadcast_to(up[:, None, None], xv.shape) * xv.dtype.type(scale),)

    return tape._emit("mean_spatial", (x,), out, bwd)


def sum_all(x):
    xv = _val(x)
    out = np.asarray(xv.sum(), dtype=xv.dtype)
    tape = _tape_of(x)
    if tape is None:
        return out

    def bwd(up):
        return (np.ones_like(xv) * up,)

    return tape._emit("sum_all", (x,), out, bwd)


def mean_all(x):
    xv = _val(x)
    out = np.asarray(xv.mean(), dtype=xv.dtype)
    tape = _tape_of(x)
    if tape is None:
        return out
    scale = 1.0 / xv.size

    def bwd(up):
        return (np.ones_like(xv) * (up * xv.dtype.type(scale)),)

    return tape._emit("mean_all", (x,), out, bwd)


def cross_entropy(logits, label: int):
    """Negative log likelihood of ``label`` under softmax of a logit vector."""
    lv = _val(logits)
    if lv.ndim != 1:
        raise DimensionError(f"cross_entropy expects a rank-1 logit vector, got {lv.shape}")
    k = lv.shape[0]
    if not 0 <= label < k:
        raise ValueError(f"label {label} outside [0, {k})")
    shifted = lv - lv.max()
    lse = np.log(np.exp(shifted).sum())
    out = np.asarray(lse - shifted[label], dtype=lv.dtype)
    tape = _tape_of(logits)
    if tape is None:
        return out
    probs = np.exp(shifted - lse)

    def bwd(up):
        g = probs.copy()
        g[label] -= 1.0
        return (g * up,)

    return tape._emit("cross_entropy", (logits,), out, bwd)


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


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max over coordinates of |ga - gn| / max(|ga|, |gn|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    if analytic.size == 0:
        return 0.0
    return float((np.abs(analytic - numeric) / denom).max())


def check_gradients(loss_builder: Callable, params, *, h: float = 1e-5,
                    threshold: float = 1e-4) -> GradReport:
    """Compare tape gradients with finite differences for a whole tree.

    ``loss_builder(lifted_params)`` must record a scalar loss using the ops
    of this module. Every learnable leaf is covered; parameters the loss
    never touches are checked against an all-zero numeric gradient. The
    tree must be float64 for the comparison to be meaningful.
    """
    probe = Tape()
    lifted, leaves = lift_tree(probe, params)
    for name, var in leaves.items():
        if var.value.dtype != np.float64:
            raise ContractError(f"gradient checking requires float64 parameters ({name} is {var.value.dtype})")
    loss = loss_builder(lifted)
    table = probe.backward(loss)

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
        report.entries.append(GradCheckEntry(name, relative_error(analytic, numeric)))
    return report
