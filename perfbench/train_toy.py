"""train-toy: momentum-SGD training of the toy classifier, with evaluation.

The classifier (backbone plus one fusion block at token width 32, refinement
off) trains on ``synth_dataset`` (512 images, 4 classes) with batch 32,
lr 0.05 and momentum 0.9. A round is 5 training steps and a checkpoint
save, inside the training clock; then the checkpoint is restored into a
freshly initialized parameter bundle and the next 128 images of the
training set are evaluated on the restored model in slices of 64. Rounds
repeat until the run's time is up (and at least 80 steps are done), so
training and evaluation are both sampled across the whole run. Last, the
final weights are restored once more and the whole training set is
evaluated on them.

The grids are only 8x8 and 4x4, so time goes to the tape, to per-sample
Python loops and to normalization bookkeeping, not to attention arithmetic.
The kinds of timed operation that ``latency_ms`` averages are a training
chunk (the steps of a round and the save after them) and an evaluation pass
(the restore and the images of a round).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
from harness import Report, describe, latency_ms, now_ns, peak_rss_mb
from pst import autodiff as ad
from pst import costs, io, networks, psa, params as pst_params

DATASET_SIZE, NUM_CLASSES, BATCH = 512, 4, 32
LR, MOMENTUM = 0.05, 0.9
CHECKPOINT_EVERY = 5
MIN_STEPS = 80
MIN_ACCURACY = 0.90
PROBE_BATCH = 8
EVAL_SLICE = 64
# Images per timed evaluation pass; successive passes rotate through the set.
EVAL_PASS = 128
PROBE_STEP = 1e-4
PROBE_RTOL = 1e-6
LOGIT_IMAGES = 8


@dataclass
class State:
    seed: int
    cfg: networks.ClsConfig
    train: networks.TrainState
    images: np.ndarray
    labels: np.ndarray
    workdir: Path
    losses: list = field(default_factory=list)
    accuracy: float = 0.0
    restored: networks.ClsNetParams | None = None


def prepare(seed: int, workdir: Path) -> State:
    """Dataset, initial weights, and one warm-up step on a throwaway copy."""
    images, labels = networks.synth_dataset(seed, DATASET_SIZE, NUM_CLASSES)
    cfg = networks.default_cls_config(num_classes=NUM_CLASSES)
    scratch = networks.init_train_state(cfg, seed)
    networks.train_step(images[:BATCH], labels[:BATCH], scratch, LR, MOMENTUM)
    return State(seed, cfg, networks.init_train_state(cfg, seed), images, labels, workdir)


def measure(state: State, seconds: float, tracer, report: Report) -> None:
    deadline = now_ns() + int(seconds * 1e9)
    ckpt = state.workdir / "checkpoint"
    order_rng = np.random.default_rng([state.seed, 2])
    order, cursor = order_rng.permutation(DATASET_SIZE), 0
    losses, steps, chunks, passes = [], [], [], []
    lo = 0
    while True:
        chunk_start = now_ns()
        for _ in range(CHECKPOINT_EVERY):
            if cursor + BATCH > DATASET_SIZE:
                order, cursor = order_rng.permutation(DATASET_SIZE), 0
            batch = order[cursor:cursor + BATCH]
            cursor += BATCH
            with tracer.region("step"):
                t0 = now_ns()
                losses.append(networks.train_step(
                    state.images[batch], state.labels[batch], state.train, LR, MOMENTUM))
                steps.append(now_ns() - t0)
            report.attempted += 1
        with tracer.region("save"):
            io.save_checkpoint(ckpt, state.train.params)
        chunks.append(now_ns() - chunk_start)
        report.attempted += 1

        passes.append(_restore_and_evaluate(state, ckpt, lo, lo + EVAL_PASS, tracer, report)[2])
        lo = (lo + EVAL_PASS) % DATASET_SIZE
        if len(losses) >= MIN_STEPS and now_ns() >= deadline:
            break
    # The final weights, restored from the last checkpoint, on the whole set.
    restored, hits, _ = _restore_and_evaluate(state, ckpt, 0, DATASET_SIZE, tracer, report,
                                              label="final")

    # A chunk is CHECKPOINT_EVERY steps and the save that ends them; a pass
    # is one restore and the evaluation of EVAL_PASS images. Each is timed
    # whole, so collector passes and other periodic costs inside it stay in.
    report.metric("latency_ms", latency_ms({"chunk": chunks, "pass": passes}), "ms")
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    report.notes.append(describe("training step", steps, 1e6, "ms"))
    report.notes.append(describe(f"{CHECKPOINT_EVERY} steps and a save", chunks, 1e6, "ms"))
    report.notes.append(describe("restore and evaluation", passes, 1e6, "ms"))
    state.losses, state.restored, state.accuracy = losses, restored, hits / DATASET_SIZE


def _restore_and_evaluate(state: State, ckpt: Path, lo: int, hi: int, tracer, report: Report,
                          label: str = ""):
    """Restore the checkpoint into a freshly initialized bundle and evaluate
    images ``lo:hi`` on it. Returns the bundle, the number classified
    correctly and the nanoseconds from the start of the restore. The traced
    regions are ``restore`` and ``eval``, or ``label`` for both."""
    restored = networks.ClsNetParams.create(state.cfg, np.random.default_rng([state.seed, 3]))
    t0 = now_ns()
    with tracer.region(label or "restore"):
        io.load_checkpoint(ckpt, restored)
    report.attempted += 1
    hits = 0
    for start in range(lo, hi, EVAL_SLICE):
        part = slice(start, start + EVAL_SLICE)
        with tracer.region(label or "eval"):
            acc = networks.evaluate_accuracy(state.images[part], state.labels[part],
                                             restored, state.cfg)
        hits += round(acc * EVAL_SLICE)
        report.attempted += EVAL_SLICE
    return restored, hits, now_ns() - t0


def _loss(images, labels, params, cfg):
    """Mean cross entropy of a batch in training-mode normalization."""
    logits = networks.cls_forward_batch(list(images), params, cfg, bn_mode="train")
    total = None
    for lg, label in zip(logits, labels):
        ce = ad.cross_entropy(lg, int(label))
        total = ce if total is None else ad.add(total, ce)
    return ad.scalar_affine(total, 1.0 / len(images))


def directional_derivative_gap(state: State) -> float:
    """Relative gap between the tape gradient along a random direction and a
    central difference of the loss along it, all in float64.

    The probe runs at freshly initialized weights: near the trained minimum
    the directional derivative is so small that the difference quotient's
    rounding dominates the comparison.
    """
    cfg = state.cfg
    params = networks.ClsNetParams.create(cfg, np.random.default_rng([state.seed, 4]), np.float64)
    images = state.images[:PROBE_BATCH].astype(np.float64)
    labels = state.labels[:PROBE_BATCH]
    tape = ad.Tape()
    lifted, leaves = ad.lift_tree(tape, params)
    grads = tape.backward(_loss(images, labels, lifted, cfg))
    rng = np.random.default_rng([state.seed, 5])
    learnable = pst_params.learnable_arrays(params)
    direction = {name: rng.standard_normal(arr.shape) for name, arr in learnable.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[leaves[name].vid] * d).sum()) / norm
                   for name, d in direction.items())
    base = {name: arr.copy() for name, arr in learnable.items()}

    def loss_at(step):
        for name, arr in learnable.items():
            arr[...] = base[name] + step * direction[name] / norm
        return float(_loss(images, labels, params, cfg))

    numeric = (loss_at(PROBE_STEP) - loss_at(-PROBE_STEP)) / (2 * PROBE_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def check(state: State, report: Report) -> None:
    losses = np.asarray(state.losses)
    report.check("every loss finite", bool(np.isfinite(losses).all()), f"{losses.size} steps")
    tenth = max(1, losses.size // 10)
    first, last = losses[:tenth].mean(), losses[-tenth:].mean()
    report.check("loss falls", last < first,
                 f"mean of first tenth {first:.4f}, of last tenth {last:.4f}")
    final = state.accuracy
    report.check(f"final accuracy of the restored model >= {MIN_ACCURACY}",
                 final >= MIN_ACCURACY,
                 f"{final:.4f} after {len(state.losses)} steps")
    saved = pst_params.named_arrays(state.train.params)
    restored = pst_params.named_arrays(state.restored)
    same = saved.keys() == restored.keys() and all(
        saved[k].dtype == restored[k].dtype and np.array_equal(saved[k], restored[k])
        for k in saved)
    report.check("restored checkpoint bit-equal to the saved arrays", same,
                 f"{len(saved)} arrays")
    logits_equal = all(
        np.array_equal(networks.cls_forward(img, state.train.params, state.cfg),
                       networks.cls_forward(img, state.restored, state.cfg))
        for img in state.images[:LOGIT_IMAGES])
    report.check("restored model gives bit-equal logits", logits_equal,
                 f"{LOGIT_IMAGES} images")
    gap = directional_derivative_gap(state)
    report.check("float64 directional derivative matches the tape gradient",
                 gap < PROBE_RTOL, f"relative gap {gap:.1e}")


# Hooks that open spans in the traced run: the common ones and those of the
# extra lines of ``layer_metrics``.
SPANS = (*tracing.SELF_TIMES, "networks.forward", "autodiff.backward", "networks.train_step",
         "io.save_checkpoint", "io.load_checkpoint")
# The regions a round is made of.
ROUND = ("step", "save", "restore", "eval")


def layer_metrics(state: State, tracer, report: Report) -> None:
    """The common per-layer metrics per round, then per step, save and load
    as extra lines. The peak allocation and the interactions of a step are
    taken on a throwaway training state, so the trained one is untouched."""
    cfg = state.cfg
    images, labels = state.images[:BATCH], state.labels[:BATCH]
    scratch = networks.init_train_state(cfg, state.seed)
    tracemalloc.start()
    try:
        with tracer.region("peak"):
            networks.train_step(images, labels, scratch, LR, MOMENTUM)
    finally:
        tracemalloc.stop()
    track = getattr(psa, "track_interactions", None)
    formula = getattr(costs, "interaction_formula", None)
    interactions = expected = None
    if track is not None:
        with track() as step_tally, tracer.region("interactions"):
            networks.train_step(images, labels, scratch, LR, MOMENTUM)
        with track() as eval_tally, tracer.region("interactions"):
            networks.evaluate_accuracy(state.images[:EVAL_PASS], state.labels[:EVAL_PASS],
                                       scratch.params, cfg)
        interactions = CHECKPOINT_EVERY * step_tally.total + eval_tally.total
    if formula is not None:
        # The block fuses the backbone's P4 (stride 4) with P5; training runs
        # without refinement, so only the coarse stage scores pairs.
        side = networks.IMAGE_SHAPE[1] // 4
        coarse, fine = formula(side * side, cfg.pst.psa.k)
        per_sample = coarse + (fine if cfg.pst.psa.fine_enabled else 0)
        expected = (CHECKPOINT_EVERY * BATCH + EVAL_PASS) * per_sample

    agg = tracer.aggregate()
    steps, saves, loads = agg.roots("step"), agg.roots("save"), agg.roots("restore")
    tracing.report_common_layers(agg, ROUND, saves, report,
                                 peak_mb=agg.largest("peak", "psa.psa_forward"),
                                 interactions=interactions, formula=expected)
    absent = agg.absent
    report.extra("networks.forward_ms_per_step", "ms", absent & {"networks.forward"},
                 lambda: agg.total_ms("step", "networks.forward") / steps)
    report.extra("autodiff.backward_ms_per_step", "ms", absent & {"autodiff.backward"},
                 lambda: agg.total_ms("step", "autodiff.backward") / steps)
    report.extra("networks.update_ms_per_step", "ms", absent & {"networks.train_step"},
                 lambda: agg.self_ms("step", "networks.train_step") / steps)
    report.extra("autodiff.tape_nodes_per_step", "count",
                 absent & {"autodiff.backward", "autodiff.backward:count"},
                 lambda: agg.count("step", "autodiff.backward") / steps)
    report.extra("io.save_checkpoint_ms", "ms", absent & {"io.save_checkpoint"},
                 lambda: agg.total_ms("save", "io.save_checkpoint") / saves)
    report.extra("io.load_checkpoint_ms", "ms", absent & {"io.load_checkpoint"},
                 lambda: agg.total_ms("restore", "io.load_checkpoint") / loads)
    report.extra("autodiff.calls_per_image", "count", False,
                 lambda: agg.autodiff_calls("eval") / (agg.roots("eval") * EVAL_SLICE))
