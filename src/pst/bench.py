"""Wall-clock micro-benchmarks for the attention paths.

Timing uses ``time.perf_counter_ns`` with mandatory warmup. The headline
comparison runs the pooled-key block against dense attention over every
fine token at the same embedding width; the pooled path scores a quarter
of the pairs and should win on the median. Each side's traced peak
allocation is taken from one more, untimed call.
"""

from __future__ import annotations

import os
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor_ops as ops
from . import threads
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

    def to_dict(self) -> dict:
        return {"median_ms": self.median_ns / 1e6, "p10_ms": self.p10_ns / 1e6,
                "p90_ms": self.p90_ns / 1e6, "runs": len(self.samples_ns)}

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
    seed: int
    pooled: LatencyStats
    dense: LatencyStats
    pooled_peak_mb: float  # traced peak allocation of one call, MiB
    dense_peak_mb: float
    precision: str = "f32"
    workers: int = 1  # threads the pooled side's attention core ran on

    @property
    def ratio(self) -> float:
        return self.pooled.median_ns / self.dense.median_ns

    def to_text(self) -> str:
        return "\n".join([
            f"n={self.n} tokens, dim={self.token_dim}",
            f"environment: {os.cpu_count() or 1} cpus, {self.precision}, "
            f"pooled attention core on {self.workers} thread(s)",
            f"pooled block: {self.pooled.to_text()}  peak alloc {self.pooled_peak_mb:.2f} MiB",
            f"dense:        {self.dense.to_text()}  peak alloc {self.dense_peak_mb:.2f} MiB",
            f"median ratio pooled/dense: {self.ratio:.3f}",
        ])

    def to_json(self) -> dict:
        """The run as a JSON object, with the machine and the commit it ran on."""
        return {
            "n": self.n, "cprime": self.token_dim, "seed": self.seed,
            "precision": self.precision,
            "pooled": {**self.pooled.to_dict(), "peak_alloc_mb": self.pooled_peak_mb},
            "dense": {**self.dense.to_dict(), "peak_alloc_mb": self.dense_peak_mb},
            "ratio": self.ratio,
            "machine": {**machine_info(), "attention_workers": self.workers},
            **source_commit(),
        }


def machine_info() -> dict:
    """CPU count, numpy version, the BLAS numpy was built against (None where
    numpy does not report it) and the symbol its thread count is controlled
    through (None where :mod:`pst.threads` finds no control)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    control = threads.blas_control()
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__, "blas": blas,
            "blas_control": None if control is None else control.symbol}


def source_commit() -> dict:
    """``git rev-parse HEAD`` of the checkout this package runs from, and
    whether tracked files differ from it; both None outside a git checkout."""
    here = Path(__file__).resolve().parent

    def git(*argv):
        try:
            done = subprocess.run(["git", *argv], cwd=here, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "commit_modified": None if status is None else bool(status)}


def traced_peak_mb(fn) -> float:
    """Peak memory ``tracemalloc`` sees allocated during one call of ``fn``,
    in MiB, above what was traced when the call began. A tracing session
    already running (``python -X tracemalloc``, say) is left running with
    its traces; its recorded peak is reset."""
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - baseline) / 2**20
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_psa_vs_dense(n: int = 4096, token_dim: int = 32, seed: int = 0, *,
                       repeats: int = MIN_REPEATS, warmup: int = MIN_WARMUP) -> BenchComparison:
    """Coarse-only block versus dense attention across all fine tokens.

    Both sides run inside :func:`pst.threads.single_blas_thread` (the pooled
    block enters it itself where its attention shares units), so that no
    call follows a threaded BLAS call whose worker still spins.
    """
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
        with threads.single_blas_thread():
            q = x_tokens @ params.wq.T
            keys = x_tokens @ params.wk.T
            vals = x_tokens @ params.wv.T
            return dense_cross_attention(q, keys, vals, cfg.heads)

    was_checking = ops._debug_checks
    ops.set_debug_checks(False)
    try:
        pooled, dense = benchmark_interleaved([pooled_run, dense_run],
                                              repeats=repeats, warmup=warmup)
        pooled_peak, dense_peak = traced_peak_mb(pooled_run), traced_peak_mb(dense_run)
    finally:
        ops.set_debug_checks(was_checking)
    shared = ops.attention_shares_units(n, n // 4, cfg.heads)
    return BenchComparison(n=n, token_dim=token_dim, seed=seed, pooled=pooled, dense=dense,
                           pooled_peak_mb=pooled_peak, dense_peak_mb=dense_peak,
                           workers=threads.scope_workers() if shared else 1)
