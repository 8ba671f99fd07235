"""The full fusion block around the sparse attention core.

Both inputs are first projected to the shared token width and normalized.
The attention core fuses them, a two-layer pointwise MLP with a residual
connection refines the result, and a final projection over the raw fine
input concatenated with the refined tokens doubles the channel count.
:func:`pst_forward` runs the block once over a ``[..., C, H, W]`` stack; a
bare ``[C, H, W]`` map is the no-batch case.

In infer mode with plain parameters, every normalization site folds into one
per-channel affine on the output of the linear map before it: ``bn_x``,
``bn_u`` and ``bn_end`` on their 1x1 conv (:func:`pst.psa.conv_norm`), and
the attention block's ``bn_cpe`` and ``bn_out`` as :mod:`pst.psa` describes.
Train mode and taped parameters keep the batch norm. The folded block agrees
with the float64 straight-line oracle to ``2e-4 * (1 + |ref|)`` in float32
(``tests/test_fold.py``).

``param_count`` enumerates every learnable tensor of the block and checks
the ledger against the closed form ``10*d^2 + (c_up + 3*c + 61)*d`` for
fine channels ``c``, coarse channels ``c_up``, and token width ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import tensor_ops as ops
from .errors import AccountingError, ContractError, DimensionError
from .params import BatchNormState, kaiming
from .psa import PsaConfig, PsaParams, block_scope, conv_norm, psa_forward

_SIZE_FACTORS = {"N": 1, "S": 2, "M": 4}


@dataclass(frozen=True)
class PstConfig:
    """Channel plan of one fusion block.

    ``fine_channels`` and ``coarse_channels`` describe the two raw inputs;
    ``token_dim`` is the shared embedding width; the MLP hidden width is
    ``mlp_extension * token_dim``. The output carries ``2 * token_dim``
    channels at the fine resolution.
    """

    fine_channels: int
    coarse_channels: int
    token_dim: int
    mlp_extension: int = 2
    psa: Optional[PsaConfig] = None

    def __post_init__(self):
        if self.psa is None:
            object.__setattr__(self, "psa", PsaConfig(token_dim=self.token_dim))
        if self.psa.token_dim != self.token_dim:
            raise ValueError(
                f"attention token_dim {self.psa.token_dim} differs from block token_dim {self.token_dim}")
        if self.fine_channels < 1 or self.coarse_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.mlp_extension < 1:
            raise ValueError(f"mlp_extension must be at least 1, got {self.mlp_extension}")

    @property
    def mlp_hidden(self) -> int:
        return self.mlp_extension * self.token_dim

    @property
    def out_channels(self) -> int:
        return 2 * self.token_dim


@dataclass
class PstParams:
    """Learnable state of one fusion block."""

    in_conv_x: np.ndarray
    in_conv_u: np.ndarray
    bn_x: BatchNormState
    bn_u: BatchNormState
    psa: PsaParams
    mlp_expand: np.ndarray
    mlp_project: np.ndarray
    end_conv: np.ndarray
    bn_end: BatchNormState

    @staticmethod
    def create(cfg: PstConfig, rng: np.random.Generator, dtype=np.float32) -> "PstParams":
        d = cfg.token_dim
        return PstParams(
            in_conv_x=kaiming(rng, d, cfg.fine_channels, dtype),
            in_conv_u=kaiming(rng, d, cfg.coarse_channels, dtype),
            bn_x=BatchNormState.create(d, dtype),
            bn_u=BatchNormState.create(d, dtype),
            psa=PsaParams.create(cfg.psa, rng, dtype),
            mlp_expand=kaiming(rng, cfg.mlp_hidden, d, dtype),
            mlp_project=kaiming(rng, d, cfg.mlp_hidden, dtype),
            end_conv=kaiming(rng, 2 * d, cfg.fine_channels + d, dtype),
            bn_end=BatchNormState.create(2 * d, dtype),
        )


def pst_forward(x, u, p: PstParams, cfg: PstConfig, *,
                bn_mode: str = "infer", stat_sink: Optional[list] = None,
                diagnostics: Optional[dict | list] = None):
    """Fuse raw fine maps with their raw 2x coarser partners.

    ``x`` is a [..., C, H, W] stack and ``u`` the matching
    [..., C_up, H/2, W/2] stack; a bare [C, H, W] map is the no-batch case.
    Returns the [..., 2 * token_dim, H, W] stack. Every normalization site
    gathers statistics across the batch. ``diagnostics`` is passed to
    :func:`pst.psa.psa_forward`. A non-finite input raises
    :class:`NumericError`.
    """
    if cfg.psa.stack_depth != 1:
        raise ContractError("the fusion block runs a single attention stage; "
                            "stacking is a standalone ablation")
    xs, us = ad._val(x).shape, ad._val(u).shape
    if len(xs) < 3 or xs[-3] != cfg.fine_channels:
        raise DimensionError(f"fine input {xs} does not carry {cfg.fine_channels} channels")
    if len(us) != len(xs) or us[-3] != cfg.coarse_channels:
        raise DimensionError(f"coarse input {us} does not carry {cfg.coarse_channels} channels")
    if xs[:-3] != us[:-3]:
        raise DimensionError(f"fine stack {xs} and coarse stack {us} hold different batches")
    if xs[-2] != 2 * us[-2] or xs[-1] != 2 * us[-1]:
        raise DimensionError(f"fine map {xs} is not the 2x refinement of coarse map {us}")
    ops.require_finite(ad._val(x), ad._val(u))

    # Untaped, every normalization, the SiLU and the residual sum overwrite a
    # buffer the block allocated, and each map is dropped after its last use;
    # the normalized maps are passed as temporaries, which psa_forward drops
    # once their tokens exist.
    with block_scope(xs[-2] * xs[-1], cfg.psa.heads, math.prod(xs[:-3])):
        m = psa_forward(conv_norm(x, p.in_conv_x, p.bn_x, bn_mode, stat_sink),
                        conv_norm(u, p.in_conv_u, p.bn_u, bn_mode, stat_sink),
                        p.psa, cfg.psa, bn_mode=bn_mode, stat_sink=stat_sink,
                        diagnostics=diagnostics)
        hidden = ad.silu(ad.conv1x1(m, p.mlp_expand), in_place=True)
        refined = ad.conv1x1(hidden, p.mlp_project)
        del hidden
        m = ad.add(m, refined, in_place=True)
        del refined
        m = ad.concat_channels(x, m)
        return conv_norm(m, p.end_conv, p.bn_end, bn_mode, stat_sink)


# --- parameter accounting ------------------------------------------------------


@dataclass(frozen=True)
class LedgerRow:
    name: str
    shape: tuple[int, ...]

    @property
    def count(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class ParamLedger:
    rows: list[LedgerRow] = field(default_factory=list)
    closed_form: int = 0

    @property
    def total(self) -> int:
        return sum(row.count for row in self.rows)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows)
        lines = [f"{'tensor':<{width}}  shape        count"]
        for r in self.rows:
            shape = "x".join(str(e) for e in r.shape)
            lines.append(f"{r.name:<{width}}  {shape:<11}  {r.count}")
        lines.append(f"total {self.total} (closed form {self.closed_form})")
        return "\n".join(lines)


def closed_form_param_count(fine_channels: int, coarse_channels: int, token_dim: int) -> int:
    """``10*d^2 + (c_up + 3*c + 61)*d``."""
    d = token_dim
    return 10 * d * d + (coarse_channels + 3 * fine_channels + 61) * d


def param_count(cfg: PstConfig) -> ParamLedger:
    """Enumerate every learnable tensor of a block and audit the total.

    The ledger is grouped and each group is compared against its term in
    the closed form; any disagreement raises an accounting error naming
    the group. Gate parameters of the self-gating ablation are not part of
    the count.
    """
    c, cu, d = cfg.fine_channels, cfg.coarse_channels, cfg.token_dim
    groups: list[tuple[str, int, list[LedgerRow]]] = [
        ("input projections", c * d + cu * d, [
            LedgerRow("in_conv_x", (d, c)),
            LedgerRow("in_conv_u", (d, cu)),
        ]),
        ("attention projections", 3 * d * d, [
            LedgerRow("psa.wq", (d, d)),
            LedgerRow("psa.wk", (d, d)),
            LedgerRow("psa.wv", (d, d)),
        ]),
        ("mlp", 2 * d * cfg.mlp_hidden, [
            LedgerRow("mlp_expand", (cfg.mlp_hidden, d)),
            LedgerRow("mlp_project", (d, cfg.mlp_hidden)),
        ]),
        ("positional kernel", 49 * d, [
            LedgerRow("psa.cpe_kernel", (d, 7, 7)),
        ]),
        ("attention output projection", d * d, [
            LedgerRow("psa.wo", (d, d)),
        ]),
        ("block output projection", 2 * (c + d) * d, [
            LedgerRow("end_conv", (2 * d, c + d)),
        ]),
        ("normalizations", 12 * d, [
            LedgerRow("bn_x.gamma", (d,)), LedgerRow("bn_x.beta", (d,)),
            LedgerRow("bn_u.gamma", (d,)), LedgerRow("bn_u.beta", (d,)),
            LedgerRow("psa.bn_out.gamma", (d,)), LedgerRow("psa.bn_out.beta", (d,)),
            LedgerRow("psa.bn_cpe.gamma", (d,)), LedgerRow("psa.bn_cpe.beta", (d,)),
            LedgerRow("bn_end.gamma", (2 * d,)), LedgerRow("bn_end.beta", (2 * d,)),
        ]),
    ]
    ledger = ParamLedger(closed_form=closed_form_param_count(c, cu, d))
    for group_name, expected, rows in groups:
        actual = sum(r.count for r in rows)
        if actual != expected:
            raise AccountingError(
                f"group {group_name!r} counts {actual} parameters, closed-form term says {expected}")
        ledger.rows.extend(rows)
    if cfg.mlp_extension == 2 and ledger.total != ledger.closed_form:
        raise AccountingError(
            f"ledger total {ledger.total} disagrees with closed form {ledger.closed_form}")
    return ledger


def scale_config(size: str, base_token_dim: int, fine_channels: int,
                 coarse_channels: int) -> PstConfig:
    """Derive the N/S/M variant of a block from its N-size token width.

    Token width scales 1:2:4 with the variant and saturates at 2048; the
    head count follows the one-head-per-32-channels rule.
    """
    if size not in _SIZE_FACTORS:
        raise ValueError(f"size must be one of N, S, M; got {size!r}")
    token_dim = min(base_token_dim * _SIZE_FACTORS[size], 2048)
    return PstConfig(
        fine_channels=fine_channels,
        coarse_channels=coarse_channels,
        token_dim=token_dim,
        psa=PsaConfig(token_dim=token_dim),
    )
