"""Pyramid sparse attention.

The block fuses a fine feature map with a 2x coarser one. Queries come from
the fine map; keys and values are projected once from the coarse map and
drive a dense cross-attention stage. The post-softmax weights are averaged
into a per-key relevance score, the top-k coarse positions expand into their
four fine-grid children, and a second, sparse attention stage re-attends to
just those fine tokens, reusing the same key/value projections (the fine
stage owns no weights of its own). A depthwise-convolution positional term
computed from the values joins the two attention outputs before the output
projection and normalization.

Both stages, the plain-array, taped and diagnostic paths, and
``dense_cross_attention`` run one attention core, :func:`attention`. It folds
the ``1/sqrt(d_head)`` scale into the queries, runs all heads as batched
matmuls, and walks the queries in row tiles of a fixed number of logits, so
the full N x M logits never exist at once. Each tile is exponentiated in
place, and its column sums go into a float64 accumulator that yields the key
scores. The [heads, N, M] weights are built only when diagnostics ask for
them. On the tape the core is one ``attention`` op with its own backward rule.

One list-based path runs the block: :func:`psa_forward` is
:func:`psa_forward_batch` on a one-sample list.

The fine stage is an inference-time refinement: training runs with it
disabled, and enabling it afterwards changes no parameter bytes. Non-finite
input maps raise :class:`~pst.errors.NumericError` at the block boundary.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import tensor_ops as ops
from .autodiff import Var, _tape_of, _val
from .errors import ContractError, DimensionError
from .params import BatchNormState, kaiming, kaiming_depthwise

MAX_TOKEN_DIM = 2048
HEAD_WIDTH = 32


@dataclass(frozen=True)
class PsaConfig:
    """Static configuration of one attention block.

    ``heads`` defaults to one head per 32 embedding channels (at least one).
    ``fusion_mode`` is ``"sum"`` or ``"self_gating"``; gating learns a
    per-token blend of the two attention branches instead of adding them.
    """

    token_dim: int
    heads: Optional[int] = None
    k: int = 8
    score_threshold: float = 1e-6
    fine_enabled: bool = False
    fusion_mode: str = "sum"
    stack_depth: int = 1

    def __post_init__(self):
        if self.token_dim < 1 or self.token_dim > MAX_TOKEN_DIM:
            raise ValueError(f"token_dim must be in [1, {MAX_TOKEN_DIM}], got {self.token_dim}")
        if self.heads is None:
            object.__setattr__(self, "heads", max(1, self.token_dim // HEAD_WIDTH))
        if self.heads < 1 or self.token_dim % self.heads:
            raise ValueError(f"token_dim {self.token_dim} not divisible into {self.heads} heads")
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.score_threshold < 0:
            raise ValueError(f"score_threshold must be non-negative, got {self.score_threshold}")
        if self.fusion_mode not in ("sum", "self_gating"):
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.stack_depth < 1:
            raise ValueError(f"stack_depth must be at least 1, got {self.stack_depth}")


@dataclass
class PsaParams:
    """Learnable state of one attention block.

    The four projection matrices are square over the embedding dimension.
    Gate parameters exist only when the block was built for self-gating.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    cpe_kernel: np.ndarray
    bn_out: BatchNormState
    bn_cpe: BatchNormState
    gate_weight: Optional[np.ndarray] = None
    gate_bias: Optional[np.ndarray] = None

    @staticmethod
    def create(cfg: PsaConfig, rng: np.random.Generator, dtype=np.float32) -> "PsaParams":
        d = cfg.token_dim
        gate_w = gate_b = None
        if cfg.fusion_mode == "self_gating":
            gate_w = kaiming(rng, d, 2 * d, dtype)
            gate_b = np.zeros(d, dtype=dtype)
        return PsaParams(
            wq=kaiming(rng, d, d, dtype),
            wk=kaiming(rng, d, d, dtype),
            wv=kaiming(rng, d, d, dtype),
            wo=kaiming(rng, d, d, dtype),
            cpe_kernel=kaiming_depthwise(rng, d, dtype),
            bn_out=BatchNormState.create(d, dtype),
            bn_cpe=BatchNormState.create(d, dtype),
            gate_weight=gate_w,
            gate_bias=gate_b,
        )


@dataclass(frozen=True)
class TopKSelection:
    """Result of key scoring: chosen coarse cells and their fine children.

    ``fine_indices`` holds four fine-grid tokens per coarse index, ordered
    by coarse rank and then row-major inside each 2x2 patch.
    """

    coarse_indices: np.ndarray
    scores: np.ndarray
    fine_indices: np.ndarray


# --- interaction accounting --------------------------------------------------


class InteractionTally:
    """Counts query-key scored pairs inside attention stages."""

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_tallies: list[InteractionTally] = []


@contextlib.contextmanager
def track_interactions():
    """Context manager yielding a tally of query-key pairs scored inside."""
    tally = InteractionTally()
    _tallies.append(tally)
    try:
        yield tally
    finally:
        _tallies.remove(tally)


def _note_interactions(n: int) -> None:
    for tally in _tallies:
        tally.add(n)


# --- normalization helpers ----------------------------------------------------


def _batch_norm(x, bn: BatchNormState, mode: str, stat_sink: Optional[list],
                channel_axis: int):
    y, new_mean, new_var = ad.batch_norm(
        x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
        mode=mode, channel_axis=channel_axis)
    if stat_sink is not None and mode == "train":
        stat_sink.append((bn.running_mean, new_mean, bn.running_var, new_var))
    return y


def normalize_tokens(parts: list, bn: BatchNormState, mode: str,
                     stat_sink: Optional[list]) -> list:
    """One normalization site over a batch of [N, d] token matrices.

    Training statistics are gathered jointly across the whole batch, which
    is what makes the site a batch norm rather than a per-sample norm. A
    single-element batch is normalized directly, with no concat and slice.
    """
    if len(parts) == 1:
        return [_batch_norm(parts[0], bn, mode, stat_sink, channel_axis=1)]
    heights = [_val(t).shape[0] for t in parts]
    joint = _batch_norm(ad.concat_rows(parts), bn, mode, stat_sink, channel_axis=1)
    out, offset = [], 0
    for height in heights:
        out.append(ad.row_slice(joint, offset, offset + height))
        offset += height
    return out


def normalize_maps(parts: list, bn: BatchNormState, mode: str,
                   stat_sink: Optional[list]) -> list:
    """One normalization site over a batch of [C, H, W] maps, joint stats."""
    if len(parts) == 1:
        return [_batch_norm(parts[0], bn, mode, stat_sink, channel_axis=0)]
    dims = [_val(m).shape[1:] for m in parts]
    tokens = normalize_tokens([ad.map_to_tokens(m) for m in parts], bn, mode, stat_sink)
    return [ad.tokens_to_map(t, h, w) for t, (h, w) in zip(tokens, dims)]


# --- attention stages ---------------------------------------------------------


def _project(tokens, weight):
    """Per-token linear map (equivalent to a pointwise conv on the map)."""
    return ad.matmul(tokens, ad.transpose(weight))


def project_qkv(x_tokens, u_tokens, p: PsaParams):
    """Queries from the fine tokens, keys and values from the coarse tokens."""
    n = _val(x_tokens).shape[0]
    m = _val(u_tokens).shape[0]
    if n != 4 * m:
        raise DimensionError(f"expected a 4:1 fine/coarse token ratio, got {n}:{m}")
    return _project(x_tokens, p.wq), _project(u_tokens, p.wk), _project(u_tokens, p.wv)


def attention(q, keys, vals, heads: int, weights: Optional[np.ndarray] = None):
    """The attention core every stage runs: ``(out, key_scores)``.

    One fused, query-row-tiled kernel over all heads (see
    :func:`pst.tensor_ops.attention`); recorded on the tape as a single
    ``attention`` op. ``weights``, when given, receives the [heads, N, M]
    post-softmax weights. One query-key pair counts as one interaction
    regardless of head count.
    """
    _note_interactions(_val(q).shape[0] * _val(keys).shape[0])
    return ad.attention(q, keys, vals, heads, weights)


def coarse_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """Dense cross-attention stage. Returns the output and the post-softmax
    weights with shape [heads, N, M]."""
    weights = ops.attention_weights_buffer(q, k, heads)
    out, _ = attention(q, k, v, heads, weights)
    return out, weights


def select_fine_indices(scores: np.ndarray, cfg: PsaConfig,
                        coarse_dims: tuple[int, int]) -> TopKSelection:
    """Top-k coarse cells by score, expanded to their 2x2 fine children.

    A coarse cell ``(i, j)`` on an ``hc x wc`` grid owns fine tokens
    ``(2i+di, 2j+dj)`` on the ``2hc x 2wc`` grid, flattened row-major.
    """
    hc, wc = coarse_dims
    if scores.shape != (hc * wc,):
        raise DimensionError(f"{scores.shape[0]} scores do not cover a {hc}x{wc} grid")
    chosen = ops.topk_indices(scores, cfg.k, cfg.score_threshold)
    fine = np.empty(4 * chosen.size, dtype=np.int64)
    wf = 2 * wc
    for rank, ci in enumerate(chosen):
        i, j = divmod(int(ci), wc)
        base = rank * 4
        fine[base + 0] = (2 * i) * wf + (2 * j)
        fine[base + 1] = (2 * i) * wf + (2 * j + 1)
        fine[base + 2] = (2 * i + 1) * wf + (2 * j)
        fine[base + 3] = (2 * i + 1) * wf + (2 * j + 1)
    return TopKSelection(coarse_indices=chosen, scores=np.asarray(scores)[chosen], fine_indices=fine)


def _fine_attention(q, x_tokens, wk, wv, selection: TopKSelection, heads: int):
    x_sel = ad.gather_rows(x_tokens, selection.fine_indices)
    out, _ = attention(q, _project(x_sel, wk), _project(x_sel, wv), heads)
    return out


def fine_attention(q, x_tokens, p: PsaParams, selection: TopKSelection, heads: int):
    """Sparse attention over the selected fine tokens.

    Keys and values reuse the coarse-stage projections ``wk``/``wv``; an
    empty selection yields an all-zero output.
    """
    if selection.fine_indices.size == 0:
        n, dim = _val(q).shape
        return np.zeros((n, dim), dtype=_val(q).dtype)
    return _fine_attention(q, x_tokens, p.wk, p.wv, selection, heads)


def dense_cross_attention(q: np.ndarray, keys: np.ndarray, vals: np.ndarray, heads: int) -> np.ndarray:
    """Full attention over every key. Reference path and benchmark baseline."""
    out, _ = attention(q, keys, vals, heads)
    return _val(out)


def conv_positional_encoding(v_tokens, coarse_dims: tuple[int, int], kernel):
    """Positional term: depthwise 7x7 over the value map, upsampled 2x.

    The coarse value tokens are reshaped to their grid, convolved per
    channel, nearest-upsampled to the fine grid, and re-flattened.
    """
    hc, wc = coarse_dims
    v_map = ad.tokens_to_map(v_tokens, hc, wc)
    pe = ad.upsample_nearest2x(ad.depthwise_conv7x7(v_map, kernel))
    return ad.map_to_tokens(pe)


def self_gate(out_coarse, out_fine, p: PsaParams, cfg: PsaConfig):
    """Per-token, per-channel blend weight from both attention branches."""
    if cfg.fusion_mode != "self_gating":
        raise ContractError("self_gate is only available in self_gating fusion mode")
    if p.gate_weight is None or p.gate_bias is None:
        raise ContractError("parameter bundle holds no gate parameters")
    cat = ad.concat_cols([out_coarse, out_fine])
    pre = ad.add_bias(ad.matmul(cat, ad.transpose(p.gate_weight)), p.gate_bias)
    return ad.sigmoid(pre)


# --- full block ---------------------------------------------------------------


def _check_pair(x_map, u_map, token_dim: int):
    xs, us = _val(x_map).shape, _val(u_map).shape
    if len(xs) != 3 or len(us) != 3:
        raise DimensionError(f"expected [C, H, W] maps, got {xs} and {us}")
    if xs[0] != token_dim or us[0] != token_dim:
        raise DimensionError(f"maps must carry {token_dim} channels, got {xs[0]} and {us[0]}")
    if xs[1] != 2 * us[1] or xs[2] != 2 * us[2]:
        raise DimensionError(f"fine map {xs} is not the 2x refinement of coarse map {us}")
    if xs[1] % 2 or xs[2] % 2:
        raise DimensionError(f"fine extents must be even, got {xs}")
    ops.require_finite(_val(x_map), _val(u_map))


def _psa_tail_batch(qs: list, ks: list, vs: list, x_tokens_list: list,
                    shared_wk, shared_wv, p: PsaParams, cfg: PsaConfig,
                    fine_dims: tuple[int, int], bn_mode: str, stat_sink,
                    diagnostics_list: Optional[list]):
    """Everything after the projections, over a batch of samples.

    Attention stages, the positional term, and the fusion run per sample;
    the two normalization sites gather statistics across the whole batch.
    Returns one fine-grid token matrix per sample.
    """
    h, w = fine_dims
    coarse_dims = (h // 2, w // 2)
    want_fine = cfg.fine_enabled and cfg.k > 0
    diagnostics_list = diagnostics_list or [None] * len(qs)
    if ((want_fine or any(d is not None for d in diagnostics_list))
            and _tape_of(*qs, *ks, *vs) is not None):
        raise ContractError(
            "fine attention and score diagnostics are inference-only; "
            "record training passes with fine_enabled=False")

    outs_coarse, outs_fine = [], []
    for q, k, v, x_tokens, diagnostics in zip(qs, ks, vs, x_tokens_list, diagnostics_list):
        weights = (None if diagnostics is None
                   else ops.attention_weights_buffer(_val(q), _val(k), cfg.heads))
        out_coarse, scores = attention(q, k, v, cfg.heads, weights)
        out_fine = None
        if want_fine or diagnostics is not None:
            selection = select_fine_indices(scores, cfg, coarse_dims)
            if diagnostics is not None:
                diagnostics.update(attention=weights, key_scores=scores, selection=selection)
            if want_fine and selection.fine_indices.size:
                out_fine = _fine_attention(
                    q, x_tokens, shared_wk, shared_wv, selection, cfg.heads)
        outs_coarse.append(out_coarse)
        outs_fine.append(out_fine)

    positional = [conv_positional_encoding(v, coarse_dims, p.cpe_kernel) for v in vs]
    positional = normalize_tokens(positional, p.bn_cpe, bn_mode, stat_sink)

    projected = []
    for out_coarse, out_fine, pos in zip(outs_coarse, outs_fine, positional):
        if cfg.fusion_mode == "self_gating":
            branch_fine = out_fine if out_fine is not None else np.zeros_like(_val(out_coarse))
            gate = self_gate(out_coarse, branch_fine, p, cfg)
            inv_gate = ad.scalar_affine(gate, -1.0, 1.0)
            branches = ad.add(ad.mul(gate, branch_fine), ad.mul(inv_gate, out_coarse))
        else:
            branches = out_coarse if out_fine is None else ad.add(out_coarse, out_fine)
        fused = ad.add(branches, pos)
        projected.append(_project(fused, p.wo))
    return normalize_tokens(projected, p.bn_out, bn_mode, stat_sink)


def psa_forward(x_map, u_map, p: PsaParams, cfg: PsaConfig, *,
                bn_mode: str = "infer", stat_sink: Optional[list] = None,
                diagnostics: Optional[dict] = None):
    """:func:`psa_forward_batch` on one sample: one map, one ``diagnostics`` dict."""
    return psa_forward_batch([x_map], [u_map], p, cfg, bn_mode=bn_mode, stat_sink=stat_sink,
                             diagnostics=[diagnostics])[0]


def psa_forward_batch(x_maps: list, u_maps: list, p: PsaParams, cfg: PsaConfig, *,
                      bn_mode: str = "infer", stat_sink: Optional[list] = None,
                      diagnostics: Optional[list] = None) -> list:
    """Run one attention block over each fine map and its 2x coarser partner.

    Returns one [token_dim, H, W] map per sample. All samples share one
    spatial shape; the normalization sites gather statistics across them.
    ``diagnostics``, when given, holds one dict or None per sample, which
    receives its attention stack, key scores, and selection. A non-finite
    value in any map raises :class:`NumericError`.
    """
    if len(x_maps) != len(u_maps) or not x_maps:
        raise DimensionError(f"batch of {len(x_maps)} fine maps with {len(u_maps)} coarse maps")
    if diagnostics is not None and len(diagnostics) != len(x_maps):
        raise DimensionError(f"{len(diagnostics)} diagnostics entries for {len(x_maps)} samples")
    shapes = {(_val(x).shape, _val(u).shape) for x, u in zip(x_maps, u_maps)}
    if len(shapes) != 1:
        raise DimensionError("all samples in a batch must share one spatial shape")
    for x_map, u_map in zip(x_maps, u_maps):
        _check_pair(x_map, u_map, cfg.token_dim)
    h, w = _val(x_maps[0]).shape[1:]
    x_tokens_list, qs, ks, vs = [], [], [], []
    for x_map, u_map in zip(x_maps, u_maps):
        x_tokens = ad.map_to_tokens(x_map)
        u_tokens = ad.map_to_tokens(u_map)
        q, k, v = project_qkv(x_tokens, u_tokens, p)
        x_tokens_list.append(x_tokens)
        qs.append(q)
        ks.append(k)
        vs.append(v)
    outs = _psa_tail_batch(qs, ks, vs, x_tokens_list, p.wk, p.wv, p, cfg, (h, w),
                           bn_mode, stat_sink, diagnostics)
    return [ad.tokens_to_map(out, h, w) for out in outs]


def psa_stack_forward(x_map, u_map, params: list[PsaParams], cfg: PsaConfig, *,
                      bn_mode: str = "infer", stat_sink: Optional[list] = None,
                      debug_sink: Optional[dict] = None):
    """Run ``stack_depth`` chained attention stages and concatenate them.

    Keys and values are projected once from the coarse map with the first
    stage's weights and shared by every stage (later stages' own ``wk`` and
    ``wv`` stay untouched). Stage one queries the fine map; each later stage
    queries the previous stage's output. The [stack_depth * token_dim, H, W]
    result stacks the per-stage outputs along channels.
    """
    _check_pair(x_map, u_map, cfg.token_dim)
    if len(params) != cfg.stack_depth:
        raise DimensionError(
            f"stack_depth {cfg.stack_depth} needs as many parameter bundles, got {len(params)}")
    h, w = _val(x_map).shape[1:]
    x_tokens = ad.map_to_tokens(x_map)
    u_tokens = ad.map_to_tokens(u_map)
    first = params[0]
    k = _project(u_tokens, first.wk)
    v = _project(u_tokens, first.wv)
    if debug_sink is not None:
        debug_sink["stage_kv"] = []
        debug_sink["stage_outputs"] = []
    source = x_tokens
    stage_maps = []
    for p in params:
        q = _project(source, p.wq)
        out = _psa_tail_batch([q], [k], [v], [x_tokens], first.wk, first.wv, p, cfg, (h, w),
                              bn_mode, stat_sink, None)[0]
        if debug_sink is not None:
            debug_sink["stage_kv"].append((k, v))
            debug_sink["stage_outputs"].append(out)
        stage_maps.append(ad.tokens_to_map(out, h, w))
        source = out
    result = stage_maps[0]
    for extra in stage_maps[1:]:
        result = ad.concat_channels(result, extra)
    return result
