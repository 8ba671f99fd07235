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
the ``1/sqrt(d_head)`` scale into the queries and walks the queries of each
head in row tiles of a fixed number of logits, so the full N x M logits never
exist at once. Each tile is exponentiated in place, and its column sums go
into a float64 accumulator that yields the key scores. The [heads, N, M]
weights are built only when diagnostics ask for them. On the tape the core is
one ``attention`` op with its own backward rule. A block call whose coarse
attention has (tile, head) work units large enough to share runs inside one
BLAS-thread scope (:func:`block_scope`), where the core shares them with a
second thread and numpy advises no huge pages; see :mod:`pst.threads`.

One batch-first function runs the block: :func:`psa_forward` takes one
``[..., d, H, W]`` stack per input, and a bare ``[d, H, W]`` map is the
no-batch case. Every stage runs once over the stack: projections, the
coarse attention, top-k selection over the [..., M] key scores, the fine
stage (one gather and one attention call per number of cells kept, see
:func:`fine_attention`), the positional term and both normalizations.

The fine stage is an inference-time refinement: training runs with it
disabled, and enabling it afterwards changes no parameter bytes. Non-finite
input maps raise :class:`~pst.errors.NumericError` at the block boundary.

An untaped call drops each token stack after its last reader and fuses the
branches, the positional term and both normalizations in buffers it
allocated itself; inputs, parameters, diagnostics and the keys, values and
fine tokens :func:`psa_stack_forward` shares between stages are never
written.

In infer mode, when its parameters are plain arrays, each normalization site
folds, per call and without a cache: its running statistics and affine
become a per-channel ``scale`` and ``shift``
(:func:`pst.tensor_ops.fold_batch_norm`, which checks the running variance
on every fold), applied in place to the output of the linear map before it
(:func:`pst.tensor_ops.channel_affine`), two passes where the batch norm
makes four. ``bn_cpe``'s shift reaches the output only through ``wo``, in
either fusion mode, because the positional term joins after the branches
are gated. So it joins ``bn_out``'s shift as
``scale_out * (wo @ shift_cpe) + shift_out``, and ``bn_cpe`` makes one
pass. :func:`conv_norm` folds a pointwise conv's site the same way. No
weight is copied with a scale in it. Train mode and parameters on a tape
keep the batch norm. Folding changes rounding only,
and not at all while every site holds its initial statistics;
``tests/test_fold.py`` bounds a folded float32 block against the float64
oracle at ``2e-4 * (1 + |ref|)``, and a float64 one at
``1e-10 * (1 + |ref|)``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import tensor_ops as ops
from . import threads
from .autodiff import _tape_of, _val
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
    by coarse rank and then row-major inside each 2x2 patch. Over [..., M]
    scores the fields are [..., c], [..., c] and [..., 4c] for the largest
    count ``c`` any sample keeps; a sample that keeps fewer is padded with
    index -1, score 0 and fine index -1. One score vector has no padding.
    """

    coarse_indices: np.ndarray
    scores: np.ndarray
    fine_indices: np.ndarray

    def sample(self, idx: tuple) -> "TopKSelection":
        """The unpadded selection of the sample at ``idx``."""
        c = int(np.count_nonzero(self.coarse_indices[idx] >= 0))
        return TopKSelection(self.coarse_indices[idx][:c], self.scores[idx][:c],
                             self.fine_indices[idx][:4 * c])


# --- interaction accounting --------------------------------------------------


@dataclass
class InteractionTally:
    """Counts query-key scored pairs inside attention stages."""

    total: int = 0


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


# --- normalization helpers ----------------------------------------------------


def _batch_norm(x, bn: BatchNormState, mode: str, stat_sink: Optional[list],
                channel_axis: int, in_place: bool):
    y, new_mean, new_var = ad.batch_norm(
        x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
        mode=mode, channel_axis=channel_axis, in_place=in_place)
    if stat_sink is not None and mode == "train":
        stat_sink.append((bn.running_mean, new_mean, bn.running_var, new_var))
    return y


def normalize_tokens(tokens, bn: BatchNormState, mode: str, stat_sink: Optional[list]):
    """One normalization site over a [..., N, d] token stack.

    Training statistics are gathered jointly across every sample of the
    stack, which is what makes the site a batch norm rather than a
    per-sample norm. An unrecorded result overwrites ``tokens``, so the
    stack must be one the caller allocated and reads no more.
    """
    return _batch_norm(tokens, bn, mode, stat_sink, -1, True)


def _folds(mode: str, *arrays) -> bool:
    """Whether normalization sites fold into the linear map before them: in
    infer mode, when every parameter the fold reads is a plain array. Train
    mode and taped parameters keep the batch norm."""
    return mode == "infer" and _tape_of(*arrays) is None


def _fold(bn: BatchNormState, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """A site's infer-mode ``(scale, shift)``; see :func:`pst.tensor_ops.fold_batch_norm`."""
    return ops.fold_batch_norm(bn.gamma, bn.beta, bn.running_mean, bn.running_var, channels)


def conv_norm(x, w, bn: BatchNormState, mode: str, stat_sink: Optional[list]):
    """A pointwise conv by the [C_out, C_in] ``w`` and the normalization site
    after it, over a [..., C_in, H, W] stack; statistics are joint across
    the stack. Untaped, the site works in the conv output's own buffer:
    where it folds (:func:`_folds`), as one per-channel affine
    (:func:`pst.tensor_ops.channel_affine`), otherwise as the batch norm.
    """
    if _folds(mode, w, bn.gamma, bn.beta):
        scale, shift = _fold(bn, w.shape[0])
        return ad.channel_affine(ad.conv1x1(x, w), scale, shift, channel_axis=-3, in_place=True)
    return _batch_norm(ad.conv1x1(x, w), bn, mode, stat_sink, -3, True)


# --- attention stages ---------------------------------------------------------


def _project(tokens, weight):
    """Per-token linear map (equivalent to a pointwise conv on the map)."""
    return ad.matmul(tokens, ad.transpose(weight))


def project_qkv(x_tokens, u_tokens, p: PsaParams):
    """Queries from the fine tokens, keys and values from the coarse tokens."""
    n = _val(x_tokens).shape[-2]
    m = _val(u_tokens).shape[-2]
    if n != 4 * m:
        raise DimensionError(f"expected a 4:1 fine/coarse token ratio, got {n}:{m}")
    return _project(x_tokens, p.wq), _project(u_tokens, p.wk), _project(u_tokens, p.wv)


def attention(q, keys, vals, heads: int, weights: Optional[np.ndarray] = None):
    """The attention core every stage runs: ``(out, key_scores)``.

    One fused, query-row-tiled kernel over all heads (see
    :func:`pst.tensor_ops.attention`); recorded on the tape as a single
    ``attention`` op. ``weights``, when given, receives the [..., heads, N, M]
    post-softmax weights. One query-key pair of one sample counts as one
    interaction regardless of head count, so a stack of B samples counts
    B*N*M.
    """
    for tally in _tallies:
        tally.total += math.prod(_val(q).shape[:-1]) * _val(keys).shape[-2]
    return ad.attention(q, keys, vals, heads, weights)


def select_fine_indices(scores: np.ndarray, cfg: PsaConfig,
                        coarse_dims: tuple[int, int]) -> TopKSelection:
    """Top-k coarse cells by score, expanded to their 2x2 fine children,
    for each sample of a [..., M] score stack (see :class:`TopKSelection`).

    A coarse cell ``(i, j)`` on an ``hc x wc`` grid owns fine tokens
    ``(2i+di, 2j+dj)`` on the ``2hc x 2wc`` grid, flattened row-major.
    """
    hc, wc = coarse_dims
    if scores.shape[-1:] != (hc * wc,):
        raise DimensionError(f"scores of shape {scores.shape} do not cover a {hc}x{wc} grid")
    chosen = ops.topk_indices(scores, cfg.k, cfg.score_threshold)
    wf = 2 * wc
    # Cell c = i * wc + j has its top-left child at 2i * wf + 2j.
    fine = (2 * chosen + chosen // wc * wf)[..., None] + np.array([0, 1, wf, wf + 1])
    if chosen.ndim == 1:  # one score vector: no padding
        picked = scores[chosen]
    else:
        picked = np.take_along_axis(scores, chosen, axis=-1)
        padded = chosen < 0
        fine[padded] = -1
        picked[padded] = 0
    return TopKSelection(coarse_indices=chosen, scores=picked,
                         fine_indices=fine.reshape(*chosen.shape[:-1], -1))


def _fine_attention(q, x_sel, wk, wv, heads: int):
    out, _ = attention(q, _project(x_sel, wk), _project(x_sel, wv), heads)
    return out


def fine_attention(q, x_tokens, p: PsaParams, selection: TopKSelection, heads: int):
    """Sparse attention of each sample of [..., N, d] stacks over the fine
    tokens of its :func:`select_fine_indices`, with the coarse stage's
    ``wk``/``wv``. Samples are grouped by the number of cells they keep;
    each group is one gather over the stack's [B*N, d] rows and one
    attention call. Returns the [..., N, d] fine branch: that call's output
    when one group spans the stack, else zero where a sample keeps no cell.
    Fine tokens passed as a temporary are freed once gathered.
    """
    *lead, n, d = x_tokens.shape
    picks = selection.fine_indices.reshape(math.prod(lead), -1)
    counts = [selection.coarse_indices.size]  # one score vector has no padding
    if lead:
        # A stack's kept indices are checked against each sample's own N,
        # then offset to its rows of the flattened stack, past which the
        # gather checks only B*N.
        counts = (selection.coarse_indices >= 0).sum(-1).reshape(-1)
        ops.check_row_indices(picks[np.arange(picks.shape[1]) < 4 * counts[:, None]], n)
        picks = picks + np.arange(0, counts.size * n, n)[:, None]
        counts = counts.tolist()
    rows_of = x_tokens.reshape(-1, d)
    kept = set(counts)
    groups = []
    for c in sorted(kept - {0}):
        rows = ... if len(kept) == 1 else np.flatnonzero(np.equal(counts, c))
        x_sel = ad.gather_rows(rows_of, picks[rows, :4 * c])
        groups.append((rows, x_sel.reshape(*(lead if rows is ... else [rows.size]), -1, d)))
    del x_tokens, rows_of
    if groups and groups[0][0] is ...:
        return _fine_attention(q, groups[0][1], p.wk, p.wv, heads)
    out = np.zeros(_val(q).shape, dtype=_val(q).dtype)
    for rows, x_sel in groups:
        out.reshape(-1, n, d)[rows] = _fine_attention(
            q.reshape(-1, n, d)[rows], x_sel, p.wk, p.wv, heads)
    return out


def dense_cross_attention(q: np.ndarray, keys: np.ndarray, vals: np.ndarray, heads: int) -> np.ndarray:
    """Full attention over every key. Reference path and benchmark baseline."""
    out, _ = attention(q, keys, vals, heads)
    return _val(out)


def conv_positional_encoding(v_tokens, coarse_dims: tuple[int, int], kernel):
    """Positional term: depthwise 7x7 over the value map, upsampled 2x.

    The coarse value tokens are reshaped to their grid and convolved per
    channel; the nearest 2x upsampling of the result is written straight
    out as fine-grid tokens.
    """
    hc, wc = coarse_dims
    v_map = ad.tokens_to_map(v_tokens, hc, wc)  # [..., d, hc, wc]
    return ad.upsample_tokens2x(ad.depthwise_conv7x7(v_map, kernel))


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
    if len(xs) < 3 or len(us) != len(xs):
        raise DimensionError(f"expected [..., C, H, W] maps, got {xs} and {us}")
    if xs[:-3] != us[:-3]:
        raise DimensionError(f"fine stack {xs} and coarse stack {us} hold different batches")
    if xs[-3] != token_dim or us[-3] != token_dim:
        raise DimensionError(f"maps must carry {token_dim} channels, got {xs[-3]} and {us[-3]}")
    if xs[-2] != 2 * us[-2] or xs[-1] != 2 * us[-1]:
        raise DimensionError(f"fine map {xs} is not the 2x refinement of coarse map {us}")
    if xs[-2] % 2 or xs[-1] % 2:
        raise DimensionError(f"fine extents must be even, got {xs}")
    ops.require_finite(_val(x_map), _val(u_map))


def _samples(lead: tuple, diagnostics: Optional[dict | list]) -> list:
    """One ``diagnostics`` entry per sample of a stack with leading axes
    ``lead``: a bare map (no leading axes) takes one dict, a stack a list
    with one dict or None per sample."""
    count = math.prod(lead)
    if diagnostics is None:
        return [None] * count
    if not lead and isinstance(diagnostics, dict):
        return [diagnostics]
    if not lead or isinstance(diagnostics, dict) or len(diagnostics) != count:
        raise DimensionError(
            f"diagnostics must be one dict for a bare map or a list of one entry per "
            f"sample; got a {type(diagnostics).__name__} for leading axes {lead}")
    return list(diagnostics)


def _psa_tail(tokens: list, kv: PsaParams, p: PsaParams, cfg: PsaConfig,
              fine_dims: tuple[int, int], bn_mode: str, stat_sink, diagnostics: list):
    """Everything after the projections, over a [..., N, d] token stack.

    ``tokens`` holds the queries, keys, values and fine tokens ``[q, k, v,
    x_tokens]``; the list is emptied, so that each of them its caller does
    not hold is freed after its last use. The fine stage projects with
    ``kv.wk`` and ``kv.wv``. Every stage runs once over the stack, and the
    normalizations gather statistics across all of it. Returns the
    [..., N, d] fine-grid tokens.

    Untaped, the fusion works in the buffers this function allocates: the
    fine branch and the positional term are added into the coarse output,
    and both normalizations, folded or not, overwrite their inputs.
    """
    q, k, v = tokens[:3]
    del tokens[:3]
    h, w = fine_dims
    coarse_dims = (h // 2, w // 2)
    want_fine = cfg.fine_enabled and cfg.k > 0
    inspect = any(d is not None for d in diagnostics)
    if (want_fine or inspect) and _tape_of(q, k, v) is not None:
        raise ContractError(
            "fine attention and score diagnostics are inference-only; "
            "record training passes with fine_enabled=False")

    weights = ops.attention_weights_buffer(_val(q), _val(k), cfg.heads) if inspect else None
    out_coarse, scores = attention(q, k, v, cfg.heads, weights)
    del k
    gating = cfg.fusion_mode == "self_gating"
    selection = select_fine_indices(scores, cfg, coarse_dims) if want_fine or inspect else None
    if inspect:
        for idx, diag in zip(np.ndindex(*scores.shape[:-1]), diagnostics):
            if diag is not None:
                diag.update(attention=weights[idx], key_scores=scores[idx],
                            selection=selection.sample(idx))
    # The fine tokens go to fine_attention as a temporary, freed once it
    # has gathered the selected ones. It runs only if some sample keeps a
    # cell; otherwise every sample keeps its coarse output as it is.
    if want_fine and selection.coarse_indices.size:
        branch_fine = fine_attention(q, tokens.pop(), kv, selection, cfg.heads)
        if not gating:
            # The summed branch lives to the end of the tail: freed here, its
            # buffer goes to the smaller maps that follow, and a process
            # running 16,384-token blocks peaks about 6 MB higher in memory.
            out_coarse += branch_fine
    elif gating:
        branch_fine = np.zeros_like(_val(out_coarse))
    tokens.clear()
    del q

    if gating:
        gate = self_gate(out_coarse, branch_fine, p, cfg)
        inv_gate = ad.scalar_affine(gate, -1.0, 1.0)
        branches = ad.add(ad.mul(gate, branch_fine), ad.mul(inv_gate, out_coarse))
        del gate, inv_gate, branch_fine
    else:
        branches = out_coarse
    del out_coarse

    # Where the two sites fold, bn_cpe's shift, passed through wo, joins
    # bn_out's in one bias.
    fold = _folds(bn_mode, p.wo, p.bn_cpe.gamma, p.bn_cpe.beta, p.bn_out.gamma, p.bn_out.beta)
    positional = conv_positional_encoding(v, coarse_dims, p.cpe_kernel)
    if fold:
        cpe_scale, cpe_shift = _fold(p.bn_cpe, cfg.token_dim)
        positional = ad.channel_affine(positional, cpe_scale, channel_axis=-1, in_place=True)
    else:
        positional = normalize_tokens(positional, p.bn_cpe, bn_mode, stat_sink)
    del v
    fused = ad.add(branches, positional, in_place=True)
    del branches, positional
    out = _project(fused, p.wo)
    del fused
    if not fold:
        return normalize_tokens(out, p.bn_out, bn_mode, stat_sink)
    out_scale, out_shift = _fold(p.bn_out, cfg.token_dim)
    shift = (p.wo @ cpe_shift) * out_scale + out_shift
    return ad.channel_affine(out, out_scale, shift, channel_axis=-1, in_place=True)


@contextlib.contextmanager
def _large_block_scope():
    with threads.single_blas_thread(), threads.small_pages():
        yield


def block_scope(n: int, heads: int, samples: int):
    """The scope of one block call over ``samples`` maps of ``n`` fine
    tokens: when its coarse attention has work units to share with a second
    thread (:func:`pst.tensor_ops.attention_shares_units`), one BLAS thread
    (:func:`pst.threads.single_blas_thread`) and no huge-page advice for the
    block's arrays (:func:`pst.threads.small_pages`); no scope otherwise.
    Entered before the first projection, so that no threaded BLAS call inside
    the block wakes the BLAS worker."""
    if not ops.attention_shares_units(n, n // 4, heads, samples):
        return contextlib.nullcontext()
    return _large_block_scope()


def psa_forward(x, u, p: PsaParams, cfg: PsaConfig, *,
                bn_mode: str = "infer", stat_sink: Optional[list] = None,
                diagnostics: Optional[dict | list] = None):
    """Run one attention block over fine maps and their 2x coarser partners.

    ``x`` is a [..., d, H, W] stack and ``u`` the matching [..., d, H/2, W/2]
    stack; a bare [d, H, W] map is the no-batch case. Returns the
    [..., d, H, W] stack. The normalization sites gather statistics across
    every sample. ``diagnostics``, when given, is one dict for a bare map or
    a list with one dict or None per sample of a stack; each dict receives
    its sample's attention weights, key scores, and selection. A non-finite
    value in any map raises :class:`NumericError`.

    Each map is dropped as soon as its tokens exist, so a map its caller
    passed as a temporary (the normalized maps of
    :func:`pst.pst_block.pst_forward`, say) is freed there.
    """
    _check_pair(x, u, cfg.token_dim)
    lead, (h, w) = _val(x).shape[:-3], _val(x).shape[-2:]
    diagnostics = _samples(lead, diagnostics)
    with block_scope(h * w, cfg.heads, math.prod(lead)):
        x_tokens = ad.map_to_tokens(x)
        del x
        tokens = [*project_qkv(x_tokens, ad.map_to_tokens(u), p), x_tokens]
        del u, x_tokens
        return ad.tokens_to_map(_psa_tail(tokens, p, p, cfg, (h, w),
                                          bn_mode, stat_sink, diagnostics), h, w)


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
    h, w = _val(x_map).shape[-2:]
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
        out = _psa_tail([_project(source, p.wq), k, v, x_tokens], first, p, cfg,
                        (h, w), bn_mode, stat_sink, [None])
        if debug_sink is not None:
            debug_sink["stage_kv"].append((k, v))
            debug_sink["stage_outputs"].append(out)
        stage_maps.append(ad.tokens_to_map(out, h, w))
        source = out
    result = stage_maps[0]
    for extra in stage_maps[1:]:
        result = ad.concat_channels(result, extra)
    return result
