"""Independent reference implementations used to verify the library.

Everything in the first section is written as plain loops or direct
formulas over numpy arrays, deliberately sharing no code with the package
under test. The second section composes those primitives into straight-line
references for the attention block and the fusion block, again without
calling into package internals.
"""

import numpy as np


# --- primitive references ----------------------------------------------------


def matmul_loops(a, b):
    m, kk = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(kk):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def softmax_direct(x):
    """Plain exp/sum at float64, no stabilization."""
    e = np.exp(np.asarray(x, dtype=np.float64))
    return e / e.sum(axis=1, keepdims=True)


def conv1x1_pixels(x, w):
    c_out = w.shape[0]
    _, h, wd = x.shape
    out = np.zeros((c_out, h, wd), dtype=np.result_type(x, w))
    for r in range(h):
        for c in range(wd):
            out[:, r, c] = w @ x[:, r, c]
    return out


def depthwise_4loop(x, kernel):
    ch, h, w = x.shape
    out = np.zeros_like(x)
    for c in range(ch):
        for r in range(h):
            for q in range(w):
                acc = 0.0
                for u in range(7):
                    for v in range(7):
                        rr, qq = r + u - 3, q + v - 3
                        if 0 <= rr < h and 0 <= qq < w:
                            acc += float(kernel[c, u, v]) * float(x[c, rr, qq])
                out[c, r, q] = acc
    return out


def batch_norm_infer_direct(x, gamma, beta, mean, var, eps=1e-5, channel_axis=0):
    shape = [1] * x.ndim
    shape[channel_axis] = x.shape[channel_axis]
    g = gamma.reshape(shape)
    b = beta.reshape(shape)
    m = mean.reshape(shape)
    v = var.reshape(shape)
    return g * (x - m) / np.sqrt(v + eps) + b


def downsample_blockmean(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2), dtype=x.dtype)
    for r in range(h // 2):
        for q in range(w // 2):
            block = x[:, 2 * r : 2 * r + 2, 2 * q : 2 * q + 2]
            out[:, r, q] = block.reshape(c, 4).mean(axis=1)
    return out


def upsample_repeat(x):
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w), dtype=x.dtype)
    for r in range(2 * h):
        for q in range(2 * w):
            out[:, r, q] = x[:, r // 2, q // 2]
    return out


def grid_tokens(x):
    """Row-major token matrix of a [C, H, W] map built cell by cell."""
    c, h, w = x.shape
    out = np.zeros((h * w, c), dtype=x.dtype)
    for r in range(h):
        for q in range(w):
            out[r * w + q] = x[:, r, q]
    return out


def tokens_grid(t, h, w):
    n, c = t.shape
    out = np.zeros((c, h, w), dtype=t.dtype)
    for i in range(n):
        out[:, i // w, i % w] = t[i]
    return out


def dense_attention_heads(q, k, v, heads):
    """Per-head scaled dot-product attention, direct formulas at float64.

    Returns (output, weights[heads, N, M]).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, dim = q.shape
    m = k.shape[0]
    d_head = dim // heads
    out = np.zeros((n, dim))
    weights = np.zeros((heads, n, m))
    for h in range(heads):
        lo = h * d_head
        hi = lo + d_head
        logits = (q[:, lo:hi] @ k[:, lo:hi].T) / np.sqrt(d_head)
        att = softmax_direct(logits)
        weights[h] = att
        out[:, lo:hi] = att @ v[:, lo:hi]
    return out, weights


def key_scores_loops(attention):
    heads, n, m = attention.shape
    s = np.zeros(m, dtype=np.float64)
    for j in range(m):
        acc = 0.0
        for h in range(heads):
            for i in range(n):
                acc += float(attention[h, i, j])
        s[j] = acc / (heads * n)
    return s


def topk_reference(s, k, threshold):
    ranked = sorted(
        (i for i in range(len(s)) if s[i] > threshold),
        key=lambda i: (-float(s[i]), i),
    )
    return ranked[:k]


def expand_2x2(coarse_index, wc):
    i, j = divmod(int(coarse_index), wc)
    wf = 2 * wc
    return [
        (2 * i) * wf + (2 * j),
        (2 * i) * wf + (2 * j + 1),
        (2 * i + 1) * wf + (2 * j),
        (2 * i + 1) * wf + (2 * j + 1),
    ]


def sigmoid_direct(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


# --- byte-equality references ------------------------------------------------
#
# The kernels below are written as the textbook formula in the input's own
# dtype, operation for operation in the order the library's fast kernels
# must reproduce, so a test can ask for equal bytes rather than closeness.


def sigmoid_steps(x):
    """``1 / (1 + exp(-x))`` in ``x``'s dtype; ``exp(-x)`` overflows to inf
    below about -88.7 (float32) or -709.8 (float64), which gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu_steps(x):
    return x * sigmoid_steps(x)


def silu_grad_steps(x, up):
    """``up * d/dx x*s(x) = up * s * (1 + x * (1 - s))``, innermost first."""
    s = sigmoid_steps(x)
    return ((1.0 - s) * x + 1.0) * s * up


def activation_inputs(dtype, size=4096, seed=0):
    """The specials, both ends of the float range, the overflow edge of
    ``exp(-x)`` (about -88.72 in float32, -709.78 in float64), subnormals
    of both signs, and wide noise."""
    info = np.finfo(dtype)
    edge = -np.log(info.max)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max, info.tiny,
               -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
               3 * info.smallest_subnormal, 1e3, -1e3, 80.0, -80.0, -88.7, -88.8, -709.0, -710.0,
               1e-30, -1e-30]
    near = edge + np.linspace(-2, 2, 41)
    noise = np.random.default_rng(seed).standard_normal(size) * 30
    return np.concatenate([special, near, np.nextafter(edge, [0, -np.inf]), noise]).astype(dtype)


def nan_blind(a):
    """Bytes of ``a`` with every NaN made the one quiet NaN. At a NaN input,
    silu's ``x * s`` multiplies two NaNs of opposite sign (``-x`` flipped
    the sign that ``s`` carries), and which one the product keeps depends
    on numpy's multiply loop."""
    a = np.array(a)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def upsample_tokens_repeat(x):
    """Tokens of a [..., C, H, W] map upsampled 2x by repeating each row and
    column."""
    up = np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)
    *lead, c, h, w = up.shape
    return np.ascontiguousarray(up.reshape(*lead, c, h * w).swapaxes(-1, -2))


def upsample_adjoint_block_sum(t, h, w):
    """Adjoint of :func:`upsample_tokens_repeat`: the [..., 4hw, C] tokens
    back on their channel-first map, each 2x2 block summed by numpy over
    the two block axes of the reshaped map."""
    *lead, _, c = t.shape
    up = np.ascontiguousarray(t.swapaxes(-1, -2))
    return up.reshape(*lead, c, h, 2, w, 2).sum(axis=(-3, -1))


def depthwise_49_taps(x, kernel):
    """A [..., C, H, W] map correlated with [C, 7, 7] taps: the 49 shifted
    products of a zero-padded copy, added one tap at a time in row-major
    kernel order."""
    *lead, c, h, w = x.shape
    xp = np.zeros((*lead, c, h + 6, w + 6), dtype=x.dtype)
    xp[..., 3 : h + 3, 3 : w + 3] = x
    out = np.zeros(x.shape, dtype=x.dtype)
    for u in range(7):
        for v in range(7):
            out += kernel[:, u, v][:, None, None] * xp[..., u : u + h, v : v + w]
    return out


def batch_norm_direct(x, gamma, beta, running_mean, running_var, up, *, mode, channel_axis,
                      eps=1e-5, momentum=0.03, stats=None, sums=None):
    """Batch normalization and its backward rule as formulas.

    Returns ``(y, new_mean, new_var, gx, g_gamma, g_beta)`` for the upstream
    gradient ``up``. Train mode takes numpy's mean and biased variance over
    the channel-last rows, or the train-mode ``(mean, var)`` given as
    ``stats``; ``y = ((x - mean) * inv) * gamma + beta`` with ``inv = 1 /
    sqrt(var + eps)``. ``sums``, when given, is the ``(g_gamma, g_beta)``
    that the input gradient reads, in place of numpy's sums. With the
    library's own statistics and sums, every remaining step is elementwise,
    so the bytes are the library's.
    """
    c = channel_axis % x.ndim
    axes = tuple(i for i in range(x.ndim) if i != c)
    shape = [1] * x.ndim
    shape[c] = x.shape[c]
    if mode == "train":
        rows = np.moveaxis(x, c, -1).reshape(-1, x.shape[c])
        mean, var = (rows.mean(axis=0), rows.var(axis=0)) if stats is None else stats
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv = 1.0 / np.sqrt(var.reshape(shape) + eps)
    xhat = (x - mean.reshape(shape)) * inv
    y = xhat * gamma.reshape(shape) + beta.reshape(shape)
    g_gamma, g_beta = ((up * xhat).sum(axis=axes), up.sum(axis=axes)) if sums is None else sums
    scale = inv * gamma.reshape(shape)
    if mode == "train":
        n = x.size // x.shape[c]
        gx = (up - xhat * (g_gamma / n).reshape(shape) - (g_beta / n).reshape(shape)) * scale
    else:
        gx = up * scale
    return y, new_mean, new_var, gx, g_gamma, g_beta


def depthwise_kernel_grad_taps(x, up):
    """Kernel gradient of a 7x7 depthwise correlation, one tap at a time:
    ``g[:, u, v]`` is numpy's sum of ``up`` times the tap's window of a
    zero-padded copy over every axis but the channel axis.

    numpy's sum follows the product's memory layout. A stack of small grids
    (more channels than twice the width) is stored channel last, so each
    channel adds its products one position after another; otherwise it is
    stored channel first, and numpy sums each sample's positions pairwise.
    """
    *lead, c, h, w = x.shape
    dtype = np.result_type(x, up)
    grad = np.zeros((c, 7, 7), dtype=dtype)
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 3)
    if c > 2 * w:
        def stored(m):  # channel-last storage, viewed channel first
            return np.moveaxis(np.ascontiguousarray(np.moveaxis(m, -3, -1), dtype=dtype), -1, -3)
    else:
        def stored(m):
            return np.ascontiguousarray(m, dtype=dtype)
    xp = np.zeros((*lead, c, h + 6, w + 6), dtype=dtype)
    xp[..., 3 : h + 3, 3 : w + 3] = x
    xp = stored(xp)
    up = stored(up)
    for u in range(7):
        for v in range(7):
            grad[:, u, v] = (up * xp[..., u : u + h, v : v + w]).sum(axis=axes)
    return grad


def attention_tile_steps(q, k, v, heads):
    """The attention core's steps over a single tile of every query row,
    with numpy's row max: logits of the scaled queries, minus each row's
    ``max``, exponentiated; output rows scaled by the inverse row sums after
    the value product; each head's key-score partial ``inv @ e``, summed
    over heads in the input dtype and added to a float64 zero.

    Returns ``(out, scores, weights[..., heads, N, M])``, each formed with the
    operand layouts the core uses, so its bytes are the core's when the core
    runs one tile.
    """
    *lead, n, dim = q.shape
    m = k.shape[-2]
    d_head = dim // heads
    qs = q * q.dtype.type(1.0 / np.sqrt(d_head))
    out = np.empty(q.shape, dtype=q.dtype)
    weights = np.empty((*lead, heads, n, m), dtype=q.dtype)
    partials = np.empty((*lead, heads, 1, m), dtype=q.dtype)
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        logits = np.empty((*lead, n, m), dtype=q.dtype)
        np.matmul(qs[..., cols], k[..., cols].swapaxes(-1, -2), out=logits)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        inv = 1.0 / e.sum(axis=-1, keepdims=True)
        np.matmul(inv.swapaxes(-1, -2), e, out=partials[..., h, :, :])
        np.matmul(e, v[..., cols], out=out[..., cols])
        out[..., cols] *= inv
        weights[..., h, :, :] = e * inv
    scores = np.zeros((*lead, m)) + partials.sum(axis=(-3, -2))
    return out, scores / (heads * n), weights


# --- composed references -----------------------------------------------------


def psa_reference(x_map, u_map, p, cfg, record=None):
    """Straight-line inference-mode rebuild of the attention block.

    Mirrors the published wiring using only the primitives above. Works in
    float64 regardless of the parameter dtype. ``record``, when given, is a
    dict that receives the key scores and the chosen coarse cells.
    """
    d = cfg.token_dim
    _, h, w = x_map.shape
    hc, wc = h // 2, w // 2
    xt = grid_tokens(np.asarray(x_map, dtype=np.float64))
    ut = grid_tokens(np.asarray(u_map, dtype=np.float64))
    wq = np.asarray(p.wq, dtype=np.float64)
    wk = np.asarray(p.wk, dtype=np.float64)
    wv = np.asarray(p.wv, dtype=np.float64)
    q = xt @ wq.T
    k = ut @ wk.T
    v = ut @ wv.T

    out_coarse, weights = dense_attention_heads(q, k, v, cfg.heads)
    scores = key_scores_loops(weights)

    out_fine = None
    if record is not None:
        record.update(key_scores=scores, coarse_indices=[])
    if cfg.fine_enabled and cfg.k > 0:
        chosen = topk_reference(scores, cfg.k, cfg.score_threshold)
        if record is not None:
            record["coarse_indices"] = chosen
        fine_idx = [fi for ci in chosen for fi in expand_2x2(ci, wc)]
        if fine_idx:
            k_sel = (xt @ wk.T)[fine_idx]
            v_sel = (xt @ wv.T)[fine_idx]
            out_fine, _ = dense_attention_heads(q, k_sel, v_sel, cfg.heads)

    v_grid = tokens_grid(v, hc, wc)
    pe = grid_tokens(upsample_repeat(depthwise_4loop(
        v_grid, np.asarray(p.cpe_kernel, dtype=np.float64))))
    pe = batch_norm_infer_direct(
        pe, np.asarray(p.bn_cpe.gamma, dtype=np.float64),
        np.asarray(p.bn_cpe.beta, dtype=np.float64),
        np.asarray(p.bn_cpe.running_mean, dtype=np.float64),
        np.asarray(p.bn_cpe.running_var, dtype=np.float64), channel_axis=1)

    if cfg.fusion_mode == "self_gating":
        branch_fine = out_fine if out_fine is not None else np.zeros_like(out_coarse)
        cat = np.concatenate([out_coarse, branch_fine], axis=1)
        g = sigmoid_direct(cat @ np.asarray(p.gate_weight, dtype=np.float64).T
                           + np.asarray(p.gate_bias, dtype=np.float64))
        branches = g * branch_fine + (1.0 - g) * out_coarse
    else:
        branches = out_coarse if out_fine is None else out_coarse + out_fine

    fused = (branches + pe) @ np.asarray(p.wo, dtype=np.float64).T
    fused = batch_norm_infer_direct(
        fused, np.asarray(p.bn_out.gamma, dtype=np.float64),
        np.asarray(p.bn_out.beta, dtype=np.float64),
        np.asarray(p.bn_out.running_mean, dtype=np.float64),
        np.asarray(p.bn_out.running_var, dtype=np.float64), channel_axis=1)
    return tokens_grid(fused, h, w)


def pst_reference(x_raw, u_raw, p, cfg, record=None):
    """Straight-line inference-mode rebuild of the whole fusion block;
    ``record`` as in :func:`psa_reference`."""
    x_raw = np.asarray(x_raw, dtype=np.float64)
    u_raw = np.asarray(u_raw, dtype=np.float64)

    def bn_map(m, bn):
        return batch_norm_infer_direct(
            m, np.asarray(bn.gamma, dtype=np.float64),
            np.asarray(bn.beta, dtype=np.float64),
            np.asarray(bn.running_mean, dtype=np.float64),
            np.asarray(bn.running_var, dtype=np.float64), channel_axis=0)

    x = bn_map(conv1x1_pixels(x_raw, np.asarray(p.in_conv_x, dtype=np.float64)), p.bn_x)
    u = bn_map(conv1x1_pixels(u_raw, np.asarray(p.in_conv_u, dtype=np.float64)), p.bn_u)
    fused = psa_reference(x, u, p.psa, cfg.psa, record)
    hidden = conv1x1_pixels(fused, np.asarray(p.mlp_expand, dtype=np.float64))
    hidden = hidden * sigmoid_direct(hidden)
    fused = fused + conv1x1_pixels(hidden, np.asarray(p.mlp_project, dtype=np.float64))
    cat = np.concatenate([x_raw, fused], axis=0)
    out = conv1x1_pixels(cat, np.asarray(p.end_conv, dtype=np.float64))
    return bn_map(out, p.bn_end)
