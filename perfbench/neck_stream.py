"""neck-stream: backbone plus detection neck over a stream of single images.

The neck uses the default channel plan (token widths 16, 32, 32) with
refinement on at all three fusion sites, k=8. The stream is a pool of 256
``synth_dataset`` images (8 classes) drawn from the seed and cycled, one
image per call. The grids are at most 16x16, so thousands of small calls
make per-call overhead dominate: validation, top-k selection loops and any
per-call trace or finiteness check. One image is the only kind of timed
operation, and also a round.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

import reference
import tracer as tracing
from harness import Report, describe, latency_ms, now_ns, peak_rss_mb
from pst import autodiff as ad
from pst import costs, networks, psa, pst_block

POOL, POOL_CLASSES = 256, 8
K = 8
WARMUP_IMAGES = 16
# Hooks that open spans in the traced run: the common ones and those of the
# extra lines of ``layer_metrics``.
EXTRA_SELF_TIMES = ("psa.key_scores", "psa.select_fine_indices", "tensor_ops.topk_indices",
                    "psa.fine_stage", "autodiff.gather_rows")
SPANS = (*tracing.SELF_TIMES, "networks.backbone_forward", *EXTRA_SELF_TIMES)
REFERENCE_IMAGES = 4


def config() -> networks.DetNeckConfig:
    base = networks.default_det_neck_config()

    def refined(site: pst_block.PstConfig) -> pst_block.PstConfig:
        return pst_block.PstConfig(
            fine_channels=site.fine_channels, coarse_channels=site.coarse_channels,
            token_dim=site.token_dim,
            psa=psa.PsaConfig(token_dim=site.token_dim, k=K, fine_enabled=True))

    return networks.DetNeckConfig(pst3=refined(base.pst3), pst4=refined(base.pst4),
                                  pst5=refined(base.pst5))


@dataclass
class State:
    seed: int
    cfg: networks.DetNeckConfig
    backbone: networks.BackboneParams
    neck: networks.DetNeckParams
    images: np.ndarray


def prepare(seed: int, workdir) -> State:
    cfg = config()
    rng = np.random.default_rng([seed, 0])
    backbone = networks.BackboneParams.create(rng)
    neck = networks.DetNeckParams.create(cfg, rng)
    images, _ = networks.synth_dataset(seed, POOL, POOL_CLASSES)
    for image in images[:WARMUP_IMAGES]:
        networks.det_neck_forward(networks.backbone_forward(image, backbone), neck, cfg)
    return State(seed, cfg, backbone, neck, images)


def out_shapes(cfg) -> list[tuple[int, int, int]]:
    return [(cfg.pst3.out_channels, 16, 16), (cfg.pst4.out_channels, 8, 8),
            (cfg.pst5.out_channels, 4, 4)]


def measure(state: State, seconds: float, tracer, report: Report) -> None:
    expected = out_shapes(state.cfg)
    bad = 0
    times = []
    deadline = now_ns() + int(seconds * 1e9)
    while now_ns() < deadline:
        image = state.images[len(times) % POOL]
        with tracer.region("image"):
            t0 = now_ns()
            feats = networks.backbone_forward(image, state.backbone)
            out = networks.det_neck_forward(feats, state.neck, state.cfg)
            times.append(now_ns() - t0)
        maps = (out.p3, out.p4, out.p5)
        if [m.shape for m in maps] != expected or not all(np.isfinite(m.sum()) for m in maps):
            bad += 1
    done = len(times)
    report.attempted += done
    report.metric("latency_ms", latency_ms({"image": times}), "ms")
    report.notes.append(describe("image", times, 1e6, "ms"))
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    report.check("neck outputs finite and shaped", bad == 0, f"{bad} bad of {done} images")


def _sites_with_diagnostics(image, state: State):
    """The neck's wiring rebuilt from public calls, keeping each site's
    diagnostics: key scores and selection."""
    cfg, p = state.cfg, state.neck
    feats = networks.backbone_forward(image, state.backbone)
    diags = {4: {}, 3: {}, 5: {}}
    n4 = pst_block.pst_forward(feats.p4, feats.p5, p.pst4, cfg.pst4, diagnostics=diags[4])
    u3 = ad.conv1x1(n4, p.lateral_to_p3)
    n3 = pst_block.pst_forward(feats.p3, u3, p.pst3, cfg.pst3, diagnostics=diags[3])
    q5 = ad.conv1x1(n4, p.lateral_to_p5)
    n5 = ad.downsample_avg2x(
        pst_block.pst_forward(q5, feats.p5, p.pst5, cfg.pst5, diagnostics=diags[5]))
    return (n3, n4, n5), diags


def check(state: State, report: Report) -> None:
    """On a seeded sample of images: each site's key scores and selection,
    and the neck's output against the float64 reference."""
    rng = np.random.default_rng([state.seed, 9])
    sample = rng.choice(POOL, size=REFERENCE_IMAGES, replace=False)
    site_cfg = {3: state.cfg.pst3, 4: state.cfg.pst4, 5: state.cfg.pst5}
    coarse_width = {3: 8, 4: 4, 5: 4}
    for i in sample:
        image = state.images[i]
        out = networks.det_neck_forward(networks.backbone_forward(image, state.backbone),
                                        state.neck, state.cfg)
        rebuilt, diags = _sites_with_diagnostics(image, state)
        same = all(reference.close(a, reference.f64(b))[0]
                   for a, b in zip((out.p3, out.p4, out.p5), rebuilt))
        report.check(f"image {i}: neck wiring matches its rebuild from public calls", same)
        for site, diag in diags.items():
            total = float(np.sum(diag["key_scores"], dtype=np.float64))
            report.check(f"image {i} site {site}: key scores sum to one",
                         abs(total - 1.0) < reference.SUM_TOL, f"sum {total:.7f}")
        selections = {site: diag["selection"].coarse_indices for site, diag in diags.items()}
        refs, scores64 = reference.neck(reference.backbone(image, state.backbone),
                                        state.neck, state.cfg, selections)
        for site, diag in diags.items():
            sel = diag["selection"]
            problem = reference.topk_problem(
                scores64[site], sel.coarse_indices, sel.fine_indices, site_cfg[site].psa.k,
                site_cfg[site].psa.score_threshold, coarse_width[site])
            report.check(f"image {i} site {site}: refined cells are a top-k of float64 scores",
                         problem is None, problem or "")
        errs = [reference.close(a, r) for a, r in zip((out.p3, out.p4, out.p5), refs)]
        report.check(f"image {i}: neck output matches float64 reference",
                     all(ok for ok, _ in errs),
                     "max err " + ", ".join(f"{e:.2e}" for _, e in errs))


def fine_tokens(cfg: networks.DetNeckConfig) -> list:
    """Each site with its fine-grid tokens: P3 fuses with the projected
    middle output, P4 with P5, and the bottom site queries the P4 grid."""
    (_, h3, w3), (_, h4, w4), _ = out_shapes(cfg)
    return [(cfg.pst3, h3 * w3), (cfg.pst4, h4 * w4), (cfg.pst5, h4 * w4)]


def layer_metrics(state: State, tracer, report: Report) -> None:
    """The common per-layer metrics per image, then the backbone and the
    refinement path per image as extra lines."""
    image = state.images[0]
    tracemalloc.start()
    try:
        with tracer.region("peak"):
            networks.det_neck_forward(networks.backbone_forward(image, state.backbone),
                                      state.neck, state.cfg)
    finally:
        tracemalloc.stop()
    track = getattr(psa, "track_interactions", None)
    formula = getattr(costs, "interaction_formula", None)
    interactions = expected = None
    if track is not None:
        with track() as tally, tracer.region("interactions"):
            networks.det_neck_forward(networks.backbone_forward(image, state.backbone),
                                      state.neck, state.cfg)
        interactions = tally.total
    if formula is not None:
        expected = 0
        for site, n in fine_tokens(state.cfg):
            coarse, fine = formula(n, site.psa.k)
            expected += coarse + (fine if site.psa.fine_enabled else 0)

    agg = tracer.aggregate()
    images = agg.roots("image")
    tracing.report_common_layers(agg, ["image"], images, report,
                                 peak_mb=agg.largest("peak", "psa.psa_forward"),
                                 interactions=interactions, formula=expected)
    report.extra("networks.backbone_ms_per_image", "ms",
                 agg.absent & {"networks.backbone_forward"},
                 lambda: agg.total_ms("image", "networks.backbone_forward") / images)
    for hook in EXTRA_SELF_TIMES:
        report.extra(f"{hook}.self_ms", "ms", agg.absent & {hook},
                     lambda: agg.self_ms("image", hook) / images)
