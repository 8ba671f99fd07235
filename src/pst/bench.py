"""Wall-clock micro-benchmarks for the attention paths.

Timing uses ``time.perf_counter_ns`` with mandatory warmup. The headline
comparison runs the pooled-key block against dense attention over every
fine token at the same embedding width; the pooled path scores a quarter
of the pairs and should win on the median.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import tensor_ops as ops
from .psa import PsaConfig, PsaParams, dense_cross_attention, psa_forward

MIN_REPEATS = 10
MIN_WARMUP = 3


@dataclass(frozen=True)
class LatencyStats:
    samples_ns: np.ndarray
    median_ns: float
    p10_ns: float
    p90_ns: float

    @property
    def median_ms(self) -> float:
        return self.median_ns / 1e6

    def to_text(self) -> str:
        return (f"median {self.median_ns / 1e6:.3f} ms  "
                f"p10 {self.p10_ns / 1e6:.3f} ms  p90 {self.p90_ns / 1e6:.3f} ms  "
                f"({len(self.samples_ns)} runs)")


def benchmark(fn, *, repeats: int = 30, warmup: int = 5) -> LatencyStats:
    """Time ``fn()`` after warmup runs. Enforces minimum sample counts."""
    return benchmark_interleaved([fn], repeats=repeats, warmup=warmup)[0]


def benchmark_interleaved(fns, *, repeats: int = 30, warmup: int = 5) -> list[LatencyStats]:
    """:func:`benchmark` for several functions, one call of each in turn, so
    that a slow stretch of the host slows all of them alike."""
    if repeats < MIN_REPEATS:
        raise ValueError(f"repeats must be at least {MIN_REPEATS}, got {repeats}")
    if warmup < MIN_WARMUP:
        raise ValueError(f"warmup must be at least {MIN_WARMUP}, got {warmup}")
    for _ in range(warmup):
        for fn in fns:
            fn()
    samples = np.empty((len(fns), repeats), dtype=np.float64)
    for i in range(repeats):
        for j, fn in enumerate(fns):
            start = time.perf_counter_ns()
            fn()
            samples[j, i] = time.perf_counter_ns() - start
    return [LatencyStats(
        samples_ns=row,
        median_ns=float(np.median(row)),
        p10_ns=float(np.percentile(row, 10)),
        p90_ns=float(np.percentile(row, 90)),
    ) for row in samples]


@dataclass(frozen=True)
class BenchComparison:
    n: int
    token_dim: int
    pooled: LatencyStats
    dense: LatencyStats
    precision: str = "f32"

    @property
    def ratio(self) -> float:
        return self.pooled.median_ns / self.dense.median_ns

    def to_text(self) -> str:
        return "\n".join([
            f"n={self.n} tokens, dim={self.token_dim}",
            f"environment: {os.cpu_count() or 1} cpus, {self.precision}",
            f"pooled block: {self.pooled.to_text()}",
            f"dense:        {self.dense.to_text()}",
            f"median ratio pooled/dense: {self.ratio:.3f}",
        ])


def bench_psa_vs_dense(n: int = 4096, token_dim: int = 32, seed: int = 0, *,
                       repeats: int = MIN_REPEATS, warmup: int = MIN_WARMUP) -> BenchComparison:
    """Coarse-only block versus dense attention across all fine tokens."""
    side = int(np.sqrt(n))
    if side * side != n or side % 2:
        raise ValueError(f"token count {n} must be a square with even side")
    cfg = PsaConfig(token_dim=token_dim, heads=1, k=0, fine_enabled=False)
    rng = np.random.default_rng(seed)
    params = PsaParams.create(cfg, rng, np.float32)
    x_map = rng.standard_normal((token_dim, side, side)).astype(np.float32)
    u_map = rng.standard_normal((token_dim, side // 2, side // 2)).astype(np.float32)
    x_tokens = np.ascontiguousarray(x_map.reshape(token_dim, -1).T)

    def pooled_run():
        return psa_forward(x_map, u_map, params, cfg)

    def dense_run():
        q = x_tokens @ params.wq.T
        keys = x_tokens @ params.wk.T
        vals = x_tokens @ params.wv.T
        return dense_cross_attention(q, keys, vals, cfg.heads)

    was_checking = ops._debug_checks
    ops.set_debug_checks(False)
    try:
        pooled, dense = benchmark_interleaved([pooled_run, dense_run],
                                              repeats=repeats, warmup=warmup)
    finally:
        ops.set_debug_checks(was_checking)
    return BenchComparison(n=n, token_dim=token_dim, pooled=pooled, dense=dense)
