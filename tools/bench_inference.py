"""Before/after latency of the inference and training paths, as one JSON record.

    python tools/bench_inference.py --before ../parent-checkout --after . \
        --rounds 10 --out BENCH_batch_refine.json

Times six operations on each of two checkouts of this repository:

* ``neck_image``: one image through ``backbone_forward`` and
  ``det_neck_forward``, default neck channel plan with refinement on at
  k=8 at all three sites, images cycled from ``synth_dataset(seed, 256, 8)``;
* ``eval_slice``: one ``evaluate_accuracy`` call over 64 images of
  ``synth_dataset(seed, 64, 4)`` on the default classifier (refinement off);
* ``eval_slice_refined``: the same call with refinement on at k=8, same
  parameters;
* ``train_chunk``: 5 ``train_step`` calls of batch 32 (lr 0.05, momentum
  0.9) on the default classifier over ``synth_dataset(seed, 512, 4)``,
  batches taken in turn, and one ``save_checkpoint`` of the trained
  parameters;
* ``restore_eval``: ``load_checkpoint`` of the last saved checkpoint into a
  second parameter bundle, made once before the clock starts, and two
  64-image ``evaluate_accuracy`` slices on it, the next 128 images of the
  training set;
* ``train_step``: one ``train_step`` of batch 32 on a training state of its
  own, same settings and data as ``train_chunk``, without the checkpoint.

``train_chunk`` and ``restore_eval`` mirror the two kinds of timed operation
of the train-toy workload of ``perfbench``: a training chunk and an
evaluation pass; ``train_step`` is one step of a chunk alone.

Each round runs one fresh worker process per checkout, in alternating order,
so that a slow stretch of the host falls on both. A worker imports ``pst``
from its checkout's ``src``, warms up, and times ``--images`` neck images,
``--slices`` slices of each kind, ``--chunks`` of each training operation
and five times as many single steps with ``pst.bench.benchmark``. It also counts
the calls one neck image makes under ``sys.setprofile`` (``call_counts``):
into Python functions of the checkout's ``pst`` package, into all Python
functions, and into C functions. The counts do not depend on the host's
load, so they back a timing claim on a noisy host; the record keeps each
round's. The record pools every round's samples per checkout into median,
p10 and p90, counts the rounds in which the change's median was the lower,
and names the machine and each checkout's commit (``pst.bench.machine_info``
and ``source_commit``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

OPERATIONS = ("neck_image", "eval_slice", "eval_slice_refined", "train_chunk", "restore_eval",
              "train_step")


def call_counts(fn, package_dir: str) -> dict:
    """Calls one ``fn()`` makes, as ``sys.setprofile`` reports them:
    ``pst`` into Python functions defined under ``package_dir``, ``python``
    into all Python functions, ``c`` into C functions."""
    counts = {"pst": 0, "python": 0, "c": 0}
    inside = os.path.join(package_dir, "")

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
            if frame.f_code.co_filename.startswith(inside):
                counts["pst"] += 1
        elif event == "c_call":
            counts["c"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def neck_image_op(seed: int):
    """The ``neck_image`` operation: each call runs the next image of the
    seed's pool through the backbone and the refined neck."""
    import numpy as np

    from pst import networks
    from pst.psa import PsaConfig

    rng = np.random.default_rng([seed, 0])
    backbone = networks.BackboneParams.create(rng)
    base = networks.default_det_neck_config()
    refined = [replace(c, psa=PsaConfig(token_dim=c.token_dim, k=8, fine_enabled=True))
               for c in (base.pst3, base.pst4, base.pst5)]
    neck_cfg = networks.DetNeckConfig(*refined)
    neck = networks.DetNeckParams.create(neck_cfg, rng)
    pool, _ = networks.synth_dataset(seed, 256, 8)
    cursor = [0]

    def neck_image():
        image = pool[cursor[0] % len(pool)]
        cursor[0] += 1
        networks.det_neck_forward(networks.backbone_forward(image, backbone), neck, neck_cfg)

    return neck_image


def training_ops(seed: int, workdir: str):
    """The ``train_chunk`` and ``restore_eval`` operations, sharing one
    training state and one checkpoint directory in ``workdir``, and the
    ``train_step`` operation on a state of its own."""
    import numpy as np

    from pst import io, networks

    cfg = networks.default_cls_config(4)
    state = networks.init_train_state(cfg, seed)
    step_state = networks.init_train_state(cfg, seed)
    restored = networks.ClsNetParams.create(cfg, np.random.default_rng([seed, 3]))
    images, labels = networks.synth_dataset(seed, 512, 4)
    ckpt = os.path.join(workdir, "checkpoint")
    cursor = {"batch": 0, "eval": 0, "step": 0}

    def train_chunk():
        for _ in range(5):
            lo = cursor["batch"]
            cursor["batch"] = (lo + 32) % len(images)
            networks.train_step(images[lo:lo + 32], labels[lo:lo + 32], state, 0.05, 0.9)
        io.save_checkpoint(ckpt, state.params)

    def restore_eval():
        io.load_checkpoint(ckpt, restored)
        lo = cursor["eval"]
        cursor["eval"] = (lo + 128) % len(images)
        for start in (lo, lo + 64):
            networks.evaluate_accuracy(images[start:start + 64], labels[start:start + 64],
                                       restored, cfg)

    def train_step():
        lo = cursor["step"]
        cursor["step"] = (lo + 32) % len(images)
        networks.train_step(images[lo:lo + 32], labels[lo:lo + 32], step_state, 0.05, 0.9)

    return train_chunk, restore_eval, train_step


def worker(seed: int, images: int, slices: int, chunks: int) -> dict:
    """Samples (ns) of every operation, and the calls of one neck image,
    with the ``pst`` on ``sys.path``."""
    import pst
    from pst import bench, networks

    neck_image = neck_image_op(seed)
    cls_cfg = networks.default_cls_config(4)
    params = networks.init_train_state(cls_cfg, seed).params
    batch, labels = networks.synth_dataset(seed, networks.EVAL_SLICE, 4)

    refined_cfg = networks.default_cls_config(4, k=8, fine_enabled=True)

    def eval_slice():
        networks.evaluate_accuracy(batch, labels, params, cls_cfg)

    def eval_slice_refined():
        networks.evaluate_accuracy(batch, labels, params, refined_cfg)

    stats = {"neck_image": bench.benchmark(neck_image, repeats=images, warmup=50),
             "eval_slice": bench.benchmark(eval_slice, repeats=slices, warmup=5),
             "eval_slice_refined": bench.benchmark(eval_slice_refined, repeats=slices,
                                                   warmup=5)}
    with tempfile.TemporaryDirectory() as workdir:
        train_chunk, restore_eval, train_step = training_ops(seed, workdir)
        stats["train_chunk"] = bench.benchmark(train_chunk, repeats=chunks, warmup=3)
        stats["restore_eval"] = bench.benchmark(restore_eval, repeats=chunks, warmup=3)
        stats["train_step"] = bench.benchmark(train_step, repeats=5 * chunks, warmup=5)
    calls = call_counts(neck_image, os.path.dirname(pst.__file__))
    return {"samples_ns": {k: s.samples_ns.tolist() for k, s in stats.items()},
            "calls": calls, "machine": bench.machine_info(), **bench.source_commit()}


def run_worker(checkout: Path, seed: int, images: int, slices: int, chunks: int) -> dict:
    code = (f"import sys, json; sys.path.insert(0, {str(checkout / 'src')!r}); "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_inference as b; "
            f"print(json.dumps(b.worker({seed}, {images}, {slices}, {chunks})))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(samples_ns: list) -> dict:
    import numpy as np

    ms = np.asarray(samples_ns) / 1e6
    return {"median_ms": float(np.median(ms)), "p10_ms": float(np.percentile(ms, 10)),
            "p90_ms": float(np.percentile(ms, 90)), "samples": int(ms.size)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--images", type=int, default=500)
    parser.add_argument("--slices", type=int, default=40)
    parser.add_argument("--chunks", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    pooled = {side: {op: [] for op in OPERATIONS} for side in sides}
    calls = {side: [] for side in sides}
    medians = {side: {op: [] for op in OPERATIONS} for side in sides}
    meta = {}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for side in order:
            result = run_worker(sides[side], args.seed + r, args.images, args.slices,
                                args.chunks)
            meta[side] = {k: result[k] for k in ("machine", "commit", "commit_modified")}
            calls[side].append(result["calls"])
            for op in OPERATIONS:
                pooled[side][op] += result["samples_ns"][op]
                medians[side][op].append(float(np.median(result["samples_ns"][op])) / 1e6)
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    record = {
        "operations": {
            "neck_image": "backbone_forward + det_neck_forward of one 3x32x32 image, "
                          "refinement on (k=8) at all three sites",
            "eval_slice": "evaluate_accuracy over one slice of 64 images, "
                          "default classifier, refinement off",
            "eval_slice_refined": "evaluate_accuracy over one slice of 64 images, "
                                  "default classifier, refinement on (k=8)",
            "train_chunk": "5 train_step calls of batch 32 on the default classifier "
                           "and one save_checkpoint",
            "restore_eval": "load_checkpoint into a second bundle and evaluate_accuracy "
                            "over two slices of 64 images",
            "train_step": "one train_step of batch 32 on the default classifier",
        },
        "neck_image_calls": "calls one neck image makes under sys.setprofile, one entry "
                            "per round: into the checkout's pst functions, into all "
                            "Python functions, into C functions",
        "rounds": args.rounds, "images_per_round": args.images,
        "slices_per_round": args.slices, "chunks_per_round": args.chunks,
        "first_seed": args.seed,
    }
    for side in sides:
        record[side] = {**meta[side], **{op: summary(pooled[side][op]) for op in OPERATIONS},
                        "neck_image_calls": calls[side]}
    record["after_faster_rounds"] = {
        op: sum(a < b for a, b in zip(medians["after"][op], medians["before"][op]))
        for op in OPERATIONS}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
