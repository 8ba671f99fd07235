"""Float64 straight-line rebuild of the fusion block, the backbone and the
detection neck, written from the documented wiring with plain numpy and no
call into ``pst``. The workloads compare the library's float32 outputs with
it and re-derive key scores from it to judge the top-k selection.

Parameters are read from the library's parameter bundles by field name
(``wq``, ``bn_out.running_var``, ...); that is the only coupling.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-5
QUERY_CHUNK = 2048

# Output agreement with the float32 library, |out - ref| <= ATOL + RTOL*|ref|.
ATOL = 2e-3
RTOL = 2e-3
# Float32 key scores are accumulated over every query, so their sum drifts
# from one by about N times the float32 epsilon.
SUM_TOL = 5e-4
# Key scores of a selection may trail the float64 k-th best by this share of
# the mean score 1/M before the selection counts as wrong; a closer near-tie
# may legitimately flip in float32.
SLACK_OF_MEAN = 1e-2


def f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def conv1x1(x, w):
    c, h, wd = x.shape
    return (f64(w) @ x.reshape(c, h * wd)).reshape(-1, h, wd)


def batch_norm(x, bn, channel_axis: int):
    shape = [1] * x.ndim
    shape[channel_axis] = -1

    def arr(a):
        return f64(a).reshape(shape)

    return arr(bn.gamma) * (x - arr(bn.running_mean)) / np.sqrt(arr(bn.running_var) + EPS) \
        + arr(bn.beta)


def silu(x):
    return x / (1.0 + np.exp(-x))


def tokens(m):
    return m.reshape(m.shape[0], -1).T


def grid(t, h: int, w: int):
    return t.T.reshape(-1, h, w)


def depthwise7(x, kernel):
    c, h, w = x.shape
    k = f64(kernel)
    padded = np.zeros((c, h + 6, w + 6))
    padded[:, 3:h + 3, 3:w + 3] = x
    out = np.zeros((c, h, w))
    for du in range(7):
        for dv in range(7):
            out += k[:, du, dv][:, None, None] * padded[:, du:du + h, dv:dv + w]
    return out


def upsample2(x):
    return x.repeat(2, axis=1).repeat(2, axis=2)


def avgpool2(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def attend(q, k, v, heads: int, want_out: bool = True):
    """Per-head softmax attention, queries in chunks to bound memory.

    Returns the output (or None) and the key scores: the attention weights
    summed over heads and queries, divided by ``heads * N``.
    """
    n, dim = q.shape
    d_head = dim // heads
    out = np.zeros((n, dim)) if want_out else None
    colsum = np.zeros(k.shape[0])
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        kh = k[:, cols].T
        for lo in range(0, n, QUERY_CHUNK):
            rows = slice(lo, lo + QUERY_CHUNK)
            logits = (q[rows, cols] @ kh) / np.sqrt(d_head)
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            colsum += weights.sum(axis=0)
            if want_out:
                out[rows, cols] = weights @ v[:, cols]
    return out, colsum / (heads * n)


def fine_children(coarse, wc: int) -> list[int]:
    """The four fine-grid tokens under each coarse cell, in selection order."""
    wf = 2 * wc
    fine = []
    for c in coarse:
        i, j = divmod(int(c), wc)
        fine += [2 * i * wf + 2 * j, 2 * i * wf + 2 * j + 1,
                 (2 * i + 1) * wf + 2 * j, (2 * i + 1) * wf + 2 * j + 1]
    return fine


def _attention_inputs(x_raw, u_raw, p):
    x = batch_norm(conv1x1(f64(x_raw), p.in_conv_x), p.bn_x, 0)
    u = batch_norm(conv1x1(f64(u_raw), p.in_conv_u), p.bn_u, 0)
    xt, ut = tokens(x), tokens(u)
    a = p.psa
    return x, u, xt @ f64(a.wq).T, ut @ f64(a.wk).T, ut @ f64(a.wv).T


def block_scores(x_raw, u_raw, p, cfg) -> np.ndarray:
    """Key scores of one fusion block, without computing its output."""
    _, _, q, k, v = _attention_inputs(x_raw, u_raw, p)
    return attend(q, k, v, cfg.psa.heads, want_out=False)[1]


def block(x_raw, u_raw, p, cfg, coarse):
    """Fusion block output and key scores, refining the given coarse cells.

    The cells come from the library's own selection, which the caller judges
    against the returned scores; reusing it keeps a legitimate near-tie flip
    from showing up as an output mismatch.
    """
    if cfg.psa.fusion_mode != "sum":
        raise ValueError("the reference covers the summing fusion only")
    x, u, q, k, v = _attention_inputs(x_raw, u_raw, p)
    a, heads = p.psa, cfg.psa.heads
    _, h, w = x.shape
    hc, wc = h // 2, w // 2
    out, scores = attend(q, k, v, heads)
    if cfg.psa.fine_enabled and len(coarse):
        xt = tokens(x)[fine_children(coarse, wc)]
        out = out + attend(q, xt @ f64(a.wk).T, xt @ f64(a.wv).T, heads)[0]
    pe = tokens(upsample2(depthwise7(grid(v, hc, wc), a.cpe_kernel)))
    pe = batch_norm(pe, a.bn_cpe, 1)
    fused = batch_norm((out + pe) @ f64(a.wo).T, a.bn_out, 1)
    fused = grid(fused, h, w)
    hidden = silu(conv1x1(fused, p.mlp_expand))
    fused = fused + conv1x1(hidden, p.mlp_project)
    out = conv1x1(np.concatenate([f64(x_raw), fused]), p.end_conv)
    return batch_norm(out, p.bn_end, 0), scores


def backbone(image, bb):
    """Three stages of 2x average pool, pointwise conv, normalization, SiLU."""
    x = f64(image)
    levels = []
    for conv, norm in zip(bb.convs, bb.norms):
        x = silu(batch_norm(conv1x1(avgpool2(x), conv), norm, 0))
        levels.append(x)
    return levels


def neck(levels, p, cfg, selections):
    """Top-down neck: P4 with P5, then P3 with the projected middle output,
    then the projected middle output with P5, pooled back to the P5 grid.

    ``selections`` holds the library's coarse cells per site (keys 4, 3, 5).
    Returns the three outputs and the key scores per site.
    """
    p3, p4, p5 = levels
    n4, s4 = block(p4, p5, p.pst4, cfg.pst4, selections[4])
    n3, s3 = block(p3, conv1x1(n4, p.lateral_to_p3), p.pst3, cfg.pst3, selections[3])
    n5, s5 = block(conv1x1(n4, p.lateral_to_p5), p5, p.pst5, cfg.pst5, selections[5])
    return (n3, n4, avgpool2(n5)), {3: s3, 4: s4, 5: s5}


def close(out, ref) -> tuple[bool, float]:
    """Agreement within the stated tolerance, and the worst absolute error."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != ref.shape:
        return False, float("inf")
    err = np.abs(out - ref)
    return bool(np.all(err <= ATOL + RTOL * np.abs(ref))), float(err.max())


def topk_problem(scores64, coarse, fine, k: int, threshold: float, wc: int):
    """Why a selection is not a valid top-k of the float64 scores, or None.

    Valid means: distinct in-range cells; as many as ``k`` allows among the
    cells above the threshold; no unselected cell beats a selected one, and
    the order is descending, each up to the slack; and the fine indices are
    the 2x2 children of the cells in order.
    """
    s = np.asarray(scores64, dtype=np.float64)
    sel = [int(c) for c in coarse]
    slack = SLACK_OF_MEAN / s.size
    if len(set(sel)) != len(sel) or any(not 0 <= c < s.size for c in sel):
        return f"cells {sel} repeat or fall outside [0, {s.size})"
    lo = min(k, int(np.sum(s > threshold + slack)))
    hi = min(k, int(np.sum(s > threshold - slack)))
    if not lo <= len(sel) <= hi:
        return f"{len(sel)} cells selected, expected between {lo} and {hi}"
    if sel:
        rest = np.delete(s, sel)
        if rest.size and rest.max() > s[sel].min() + slack:
            return (f"unselected score {rest.max():.6e} beats selected "
                    f"{s[sel].min():.6e} by more than {slack:.1e}")
        if np.any(np.diff(s[sel]) > slack):
            return "selection is not in descending score order"
    if [int(f) for f in fine] != fine_children(sel, wc):
        return "fine indices are not the 2x2 children of the selected cells"
    return None
