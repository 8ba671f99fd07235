"""Interaction counting: closed forms and instrumented verification.

An interaction is one scored query-key pair. The coarse stage scores all
N fine queries against N/4 pooled keys. The refinement stage re-scores
every query against the 4k fine positions under the selected coarse
cells, capped at N once the selection covers the whole grid:

    coarse = N^2 / 4        fine = N * min(4k, N)

``count_interactions`` runs the real pipeline with a tally attached and
raises :class:`AccountingError` if either measured count drifts from the
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AccountingError, DimensionError
from .psa import PsaConfig, PsaParams, psa_forward, track_interactions


def interaction_formula(n: int, k: int) -> tuple[int, int]:
    if n % 4:
        raise DimensionError(f"token count {n} is not divisible by 4")
    return (n * n) // 4, n * min(4 * k, n)


@dataclass(frozen=True)
class CostReport:
    n: int
    k: int
    token_dim: int
    heads: int
    coarse_measured: int
    fine_measured: int
    coarse_formula: int
    fine_formula: int
    macs: dict

    @property
    def total_measured(self) -> int:
        return self.coarse_measured + self.fine_measured

    @property
    def total_formula(self) -> int:
        return self.coarse_formula + self.fine_formula

    @property
    def dense_baseline(self) -> int:
        return self.n * self.n

    def to_text(self) -> str:
        lines = [
            f"tokens n={self.n}  top-k={self.k}  dim={self.token_dim}  heads={self.heads}",
            f"coarse interactions: {self.coarse_measured} (formula {self.coarse_formula})",
            f"fine interactions:   {self.fine_measured} (formula {self.fine_formula})",
            f"total:               {self.total_measured} vs dense {self.dense_baseline}",
            "mac estimate:",
        ]
        for key, value in self.macs.items():
            lines.append(f"  {key:>14}: {value}")
        return "\n".join(lines)


def mac_breakdown(n: int, k: int, token_dim: int, fine_enabled: bool) -> dict:
    """Multiply-accumulate estimate per stage of one attention block pass."""
    d = token_dim
    m = n // 4
    coarse_pairs, fine_pairs = interaction_formula(n, k)
    macs = {
        "q_projection": n * d * d,
        "kv_projection": 2 * m * d * d,
        "coarse_attention": 2 * coarse_pairs * d,
        "positional_conv": 49 * d * m,
        "output_projection": n * d * d,
    }
    if fine_enabled and k > 0:
        macs["fine_kv_projection"] = 2 * min(4 * k, n) * d * d
        macs["fine_attention"] = 2 * fine_pairs * d
    macs["total"] = sum(macs.values())
    return macs


def count_interactions(cfg: PsaConfig, n: int, seed: int = 0) -> CostReport:
    """Run the pipeline on random maps and check the tally against the formula.

    Inputs are scaled small so the coarse attention stays near uniform and
    every coarse cell scores far above the selection threshold; the fine
    stage then touches exactly min(k, N/4) cells. The fine stage is forced
    on for the measurement whenever k > 0.
    """
    side = math.isqrt(n)
    if side * side != n or side % 2:
        raise DimensionError(f"token count {n} must be a square with even side")
    rng = np.random.default_rng(seed)
    params = PsaParams.create(cfg, rng, np.float64)
    x_map = 0.25 * rng.standard_normal((cfg.token_dim, side, side))
    u_map = 0.25 * rng.standard_normal((cfg.token_dim, side // 2, side // 2))

    with track_interactions() as tally:
        psa_forward(x_map, u_map, params, replace(cfg, fine_enabled=False))
    coarse_measured = tally.total

    fine_measured = 0
    if cfg.k > 0:
        with track_interactions() as tally:
            psa_forward(x_map, u_map, params, replace(cfg, fine_enabled=True))
        fine_measured = tally.total - coarse_measured

    coarse_formula, fine_formula = interaction_formula(n, cfg.k)
    if coarse_measured != coarse_formula:
        raise AccountingError(
            f"coarse interactions: measured {coarse_measured}, formula {coarse_formula}")
    if fine_measured != fine_formula:
        raise AccountingError(
            f"fine interactions: measured {fine_measured}, formula {fine_formula}")
    return CostReport(
        n=n, k=cfg.k, token_dim=cfg.token_dim, heads=cfg.heads,
        coarse_measured=coarse_measured, fine_measured=fine_measured,
        coarse_formula=coarse_formula, fine_formula=fine_formula,
        macs=mac_breakdown(n, cfg.k, cfg.token_dim, fine_enabled=cfg.k > 0),
    )
