"""block-scale: single-sample inference of one fusion block at three grids.

One block (``pst_forward``) with refinement on, k=8, float32, token width 64
(two heads under the one-head-per-32-channels rule), 32 fine and 64 coarse
raw channels, at fine grids of 1024, 4096 and 16384 tokens. The attention
core and softmax do nearly all the work; at 16384 tokens each head's logits
buffer is 16384 x 4096 floats, so the largest grid is bound by memory.

A round is 8 calls at n=1024, 4 at n=4096, 1 at n=16384 and one NaN-input
probe; a run repeats whole rounds until its time is up, so the probe is
always the same share of the operations attempted. The three grids are the
three kinds of timed operation that ``latency_ms`` averages; the fastest
call of each grid is also printed.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import reference
import tracer as tracing
from harness import Report, describe, latency_ms, now_ns, peak_rss_mb
from pst import costs, errors, psa, pst_block

GRIDS = (1024, 4096, 16384)
CALLS_PER_ROUND = {1024: 8, 4096: 4, 16384: 1}
WARMUP_CALLS = {1024: 3, 4096: 2, 16384: 1}
REFERENCE_GRIDS = (1024, 4096)
FINE_CHANNELS, COARSE_CHANNELS, TOKEN_DIM, K = 32, 64, 64, 8
# The probe's inputs do not depend on the run's seed.
PROBE_SEED = 0
PROBE_GRID = 1024
PROBE_PIXEL = (0, 5, 7)

# Hooks of the refinement path, which only inference with refinement on runs;
# printed per grid as extra lines next to the common ones.
REFINEMENT = ("autodiff.gather_rows", "psa.key_scores", "psa.fine_stage")
# The traced run opens spans for exactly these hooks, so every other op's
# time stays in the self time of the reported layer that calls it.
SPANS = (*tracing.SELF_TIMES, *REFINEMENT)
COUNTS = [
    ("autodiff.matmul.macs", "autodiff.matmul"),
    ("autodiff.softmax_rows.elements", "autodiff.softmax_rows"),
]


def config() -> pst_block.PstConfig:
    return pst_block.PstConfig(
        fine_channels=FINE_CHANNELS, coarse_channels=COARSE_CHANNELS, token_dim=TOKEN_DIM,
        psa=psa.PsaConfig(token_dim=TOKEN_DIM, k=K, fine_enabled=True))


def make_inputs(rng: np.random.Generator, n: int):
    side = int(round(n ** 0.5))
    x = rng.standard_normal((FINE_CHANNELS, side, side)).astype(np.float32)
    u = rng.standard_normal((COARSE_CHANNELS, side // 2, side // 2)).astype(np.float32)
    return x, u


@dataclass
class State:
    cfg: pst_block.PstConfig
    params: pst_block.PstParams
    inputs: dict
    probe: tuple
    last_outputs: dict = field(default_factory=dict)


def prepare(seed: int, workdir) -> State:
    """Parameters, inputs per grid, the probe's fixed inputs, and warm-up."""
    cfg = config()
    params = pst_block.PstParams.create(cfg, np.random.default_rng([seed, 0]), np.float32)
    inputs = {n: make_inputs(np.random.default_rng([seed, n]), n) for n in GRIDS}
    probe_rng = np.random.default_rng([PROBE_SEED, 0])
    probe_params = pst_block.PstParams.create(cfg, probe_rng, np.float32)
    x_nan, u_probe = make_inputs(probe_rng, PROBE_GRID)
    x_nan[PROBE_PIXEL] = np.nan
    for n in GRIDS:
        for _ in range(WARMUP_CALLS[n]):
            pst_block.pst_forward(*inputs[n], params, cfg)
    return State(cfg, params, inputs, (x_nan, u_probe, probe_params))


def nan_probe_passes(state: State) -> bool:
    """One call with a NaN pixel in the fine map must raise NumericError."""
    x_nan, u, params = state.probe
    try:
        pst_block.pst_forward(x_nan, u, params, state.cfg)
    except errors.NumericError:
        return True
    return False


def out_shape(n: int) -> tuple[int, int, int]:
    side = int(round(n ** 0.5))
    return (2 * TOKEN_DIM, side, side)


def measure(state: State, seconds: float, tracer, report: Report) -> None:
    cfg, params = state.cfg, state.params
    latencies = {n: [] for n in GRIDS}
    bad_outputs = []
    deadline = now_ns() + int(seconds * 1e9)
    while True:
        for n in GRIDS:
            x, u = state.inputs[n]
            for _ in range(CALLS_PER_ROUND[n]):
                with tracer.region(f"block.n{n}"):
                    t0 = now_ns()
                    out = pst_block.pst_forward(x, u, params, cfg)
                    latencies[n].append(now_ns() - t0)
                report.attempted += 1
                if out.shape != out_shape(n) or not np.isfinite(out).all():
                    bad_outputs.append(n)
                state.last_outputs[n] = out
        with tracer.region("probe"):
            passed = nan_probe_passes(state)
        report.attempted += 1
        report.failed += not passed
        if now_ns() >= deadline:
            break
    report.metric("latency_ms", latency_ms(latencies), "ms")
    for n in GRIDS:
        report.notes.append(describe(f"block call n={n}", latencies[n], 1e6, "ms"))
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    report.check("block outputs finite and shaped", not bad_outputs,
                 f"bad at grids {sorted(set(bad_outputs))}" if bad_outputs else
                 f"{sum(map(len, latencies.values()))} calls")
    if report.failed:
        report.notes.append(
            f"NaN-input probe failed {report.failed} times: the call returns normally "
            "instead of raising NumericError (NaN key scores drop every cell and "
            "refinement turns off silently)")


def check(state: State, report: Report) -> None:
    """Key scores, top-k validity and the float64 reference, per grid."""
    cfg, params = state.cfg, state.params
    for n in GRIDS:
        x, u = state.inputs[n]
        diag: dict = {}
        out = pst_block.pst_forward(x, u, params, cfg, diagnostics=diag)
        scores, sel = diag["key_scores"], diag["selection"]
        total = float(np.sum(scores, dtype=np.float64))
        report.check(f"n={n} key scores sum to one", abs(total - 1.0) < reference.SUM_TOL,
                     f"sum {total:.7f}")
        ok, err = reference.close(out, reference.f64(state.last_outputs[n]))
        report.check(f"n={n} timed output matches the diagnostic call", ok, f"max err {err:.2e}")
        wc = int(round(n ** 0.5)) // 2
        if n in REFERENCE_GRIDS:
            ref, scores64 = reference.block(x, u, params, cfg, sel.coarse_indices)
            ok, err = reference.close(out, ref)
            report.check(f"n={n} output matches float64 reference", ok, f"max err {err:.2e}")
        else:
            scores64 = reference.block_scores(x, u, params, cfg)
        problem = reference.topk_problem(scores64, sel.coarse_indices, sel.fine_indices,
                                         cfg.psa.k, cfg.psa.score_threshold, wc)
        drift = float(np.abs(np.asarray(scores, np.float64) - scores64).max() * scores64.size)
        report.check(f"n={n} refined cells are a top-k of float64 scores", problem is None,
                     problem or f"score drift {drift:.1e} of the mean score")


def layer_metrics(state: State, tracer, report: Report) -> None:
    """The common per-layer metrics per round, and per block call at each
    grid as extra lines: self times and counts, the traced peak allocation
    of one ``psa_forward`` call, and the interaction count against its
    closed form."""
    cfg, params = state.cfg, state.params
    track = getattr(psa, "track_interactions", None)
    formula = getattr(costs, "interaction_formula", None)
    tallies = {}
    for n in GRIDS:
        x, u = state.inputs[n]
        tracemalloc.start()
        try:
            with tracer.region(f"peak.n{n}"):
                pst_block.pst_forward(x, u, params, cfg)
        finally:
            tracemalloc.stop()
        if track is not None:
            with track() as tally, tracer.region(f"interactions.n{n}"):
                pst_block.pst_forward(x, u, params, cfg)
            tallies[n] = tally.total
    agg = tracer.aggregate()
    labels = [f"block.n{n}" for n in GRIDS]
    # Every round makes one call at the largest grid.
    rounds = agg.roots(f"block.n{GRIDS[-1]}")
    tracing.report_common_layers(
        agg, labels, rounds, report,
        peak_mb=max(agg.largest(f"peak.n{n}", "psa.psa_forward") for n in GRIDS),
        interactions=None if track is None else sum(
            CALLS_PER_ROUND[n] * tallies[n] for n in GRIDS),
        formula=None if formula is None else sum(
            CALLS_PER_ROUND[n] * sum(formula(n, cfg.psa.k)) for n in GRIDS))
    for n, label in zip(GRIDS, labels):
        calls = agg.roots(label)
        for hook in SPANS:
            report.extra(f"{hook}.self_ms.n{n}", "ms", agg.absent & {hook},
                         lambda: agg.self_ms(label, hook) / calls)
        for stem, hook in COUNTS:
            report.extra(f"{stem}.n{n}", "count", agg.absent & {hook, f"{hook}:count"},
                         lambda: agg.count(label, hook) / calls)
        share = sum(agg.self_ms(label, hook) for hook in SPANS) / agg.total_ms(label, label)
        report.notes.append(f"n={n}: the spanned self times add up to {share:.1%} "
                            "of the traced block time")
        report.extra(f"psa.psa_forward.peak_alloc_mb.n{n}", "MB",
                     agg.absent & {"psa.psa_forward"},
                     lambda: agg.largest(f"peak.n{n}", "psa.psa_forward"))
        report.extra(f"costs.interactions.n{n}", "count", track is None, lambda: tallies[n])
        report.extra(f"costs.interaction_formula.n{n}", "count", formula is None,
                     lambda: sum(formula(n, cfg.psa.k)))
