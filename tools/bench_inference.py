"""Before/after latency of the inference paths, as one JSON record.

    python tools/bench_inference.py --before ../parent-checkout --after . \
        --rounds 10 --out BENCH_batch_refine.json

Times three operations on each of two checkouts of this repository:

* ``neck_image``: one image through ``backbone_forward`` and
  ``det_neck_forward``, default neck channel plan with refinement on at
  k=8 at all three sites, images cycled from ``synth_dataset(seed, 256, 8)``;
* ``eval_slice``: one ``evaluate_accuracy`` call over 64 images of
  ``synth_dataset(seed, 64, 4)`` on the default classifier (refinement off);
* ``eval_slice_refined``: the same call with refinement on at k=8, same
  parameters.

Each round runs one fresh worker process per checkout, in alternating order,
so that a slow stretch of the host falls on both. A worker imports ``pst``
from its checkout's ``src``, warms up, and times ``--images`` neck images and
``--slices`` slices of each kind with ``pst.bench.benchmark``. The record
pools every round's samples per checkout into median, p10 and p90, counts
the rounds in which the change's median was the lower, and names the
machine and each checkout's commit (``pst.bench.machine_info`` and
``source_commit``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

OPERATIONS = ("neck_image", "eval_slice", "eval_slice_refined")


def worker(seed: int, images: int, slices: int) -> dict:
    """Samples (ns) of both operations with the ``pst`` on ``sys.path``."""
    import numpy as np

    from pst import bench, networks
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
    return {"samples_ns": {k: s.samples_ns.tolist() for k, s in stats.items()},
            "machine": bench.machine_info(), **bench.source_commit()}


def run_worker(checkout: Path, seed: int, images: int, slices: int) -> dict:
    code = (f"import sys, json; sys.path.insert(0, {str(checkout / 'src')!r}); "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_inference as b; "
            f"print(json.dumps(b.worker({seed}, {images}, {slices})))")
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
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    pooled = {side: {op: [] for op in OPERATIONS} for side in sides}
    medians = {side: {op: [] for op in OPERATIONS} for side in sides}
    meta = {}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for side in order:
            result = run_worker(sides[side], args.seed + r, args.images, args.slices)
            meta[side] = {k: result[k] for k in ("machine", "commit", "commit_modified")}
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
        },
        "rounds": args.rounds, "images_per_round": args.images,
        "slices_per_round": args.slices, "first_seed": args.seed,
    }
    for side in sides:
        record[side] = {**meta[side], **{op: summary(pooled[side][op]) for op in OPERATIONS}}
    record["after_faster_rounds"] = {
        op: sum(a < b for a, b in zip(medians["after"][op], medians["before"][op]))
        for op in OPERATIONS}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
