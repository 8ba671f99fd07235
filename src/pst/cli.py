"""Command line front end.

Exit codes: 0 on success, 1 when a check or numeric run fails (gradient
check over threshold, ledger or tally mismatch, diverged training), 2 on
usage and file-format errors. Argparse itself exits with 2 on bad flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import autodiff as ad
from . import bench as bench_mod
from . import costs, heatmap, io as tensor_io, networks
from .autodiff import check_gradients
from .errors import (
    AccountingError,
    ContractError,
    DimensionError,
    DivergenceError,
    FormatError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)
from .psa import PsaConfig, PsaParams, psa_forward, psa_stack_forward
from .pst_block import PstConfig, PstParams, param_count, pst_forward, scale_config

_PRECISIONS = {"f32": np.float32, "f64": np.float64}
_FUSIONS = {"sum": "sum", "gate": "self_gating"}


def _psa_config(args, **overrides) -> PsaConfig:
    fields = dict(
        token_dim=args.cprime,
        heads=args.heads,
        k=args.k,
        score_threshold=args.threshold,
        fine_enabled=args.fine == "on",
        fusion_mode=_FUSIONS[args.fusion],
        stack_depth=args.stack,
    )
    fields.update(overrides)
    return PsaConfig(**fields)


def _add_psa_flags(sub, *, cprime=32, precision="f32"):
    sub.add_argument("--cprime", type=int, default=cprime,
                     help="embedding width of the block")
    sub.add_argument("--heads", type=int, default=None,
                     help="attention heads (default: one per 32 channels)")
    sub.add_argument("--k", type=int, default=8, help="coarse cells kept for refinement")
    sub.add_argument("--threshold", type=float, default=1e-6,
                     help="minimum key score for a cell to qualify")
    sub.add_argument("--fine", choices=("on", "off"), default="off",
                     help="run the sparse refinement stage")
    sub.add_argument("--fusion", choices=sorted(_FUSIONS), default="sum",
                     help="combine branches by sum or learned gate")
    sub.add_argument("--stack", type=int, default=1, help="chained attention stages")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--precision", choices=sorted(_PRECISIONS), default=precision)


def _cmd_params(args) -> int:
    if args.size is not None:
        cfg = scale_config(args.size, args.cprime, args.c, args.cup)
    else:
        cfg = PstConfig(fine_channels=args.c, coarse_channels=args.cup,
                        token_dim=args.cprime, mlp_extension=args.mlp_extension)
    ledger = param_count(cfg)
    print(ledger.to_text())
    return 0


def _cmd_cost(args) -> int:
    cfg = PsaConfig(token_dim=args.cprime, k=args.k)
    report = costs.count_interactions(cfg, args.n, seed=args.seed)
    print(report.to_text())
    return 0


def _cmd_gradcheck(args) -> int:
    # Finite differences need f64, so that is the default; asking for f32
    # is allowed but the check itself will refuse the low-precision leaves.
    # In train mode the positional branch's normalization shift has a
    # structurally zero gradient (the output site's mean subtraction absorbs
    # it), which the relative-error floor misreads as a failure; the default
    # is therefore the inference path, where every direction is live.
    psa = _psa_config(args, token_dim=args.cprime, fine_enabled=False)
    cfg = PstConfig(fine_channels=args.c, coarse_channels=args.cup,
                    token_dim=args.cprime, psa=psa)
    rng = np.random.default_rng(args.seed)
    params = PstParams.create(cfg, rng, _PRECISIONS[args.precision])
    side = args.side
    x_raw = rng.standard_normal((cfg.fine_channels, side, side))
    u_raw = rng.standard_normal((cfg.coarse_channels, side // 2, side // 2))
    probe = rng.standard_normal((cfg.out_channels, side, side))

    def loss_builder(lifted):
        out = pst_forward(x_raw, u_raw, lifted, cfg, bn_mode=args.bn_mode, stat_sink=[])
        return ad.mean_all(ad.mul(out, probe))

    report = check_gradients(loss_builder, params, h=args.step)
    print(report.to_text())
    return 0 if report.passed else 1


def _input_maps(args, cfg, rng):
    """Input maps from tensor files when given, seeded noise otherwise."""
    if (args.x is None) != (args.u is None):
        raise ValueError("--x and --u must be given together")
    if args.x is not None:
        x_map = tensor_io.load_tensor(args.x)
        u_map = tensor_io.load_tensor(args.u)
        if x_map.ndim != 3 or u_map.ndim != 3:
            raise DimensionError("input tensors must be rank-3 channel maps")
        return x_map, u_map, x_map.dtype.type
    dtype = _PRECISIONS[args.precision]
    side = args.side
    x_map = rng.standard_normal((cfg.token_dim, side, side)).astype(dtype)
    u_map = rng.standard_normal((cfg.token_dim, side // 2, side // 2)).astype(dtype)
    return x_map, u_map, dtype


def _cmd_bench(args) -> int:
    result = bench_mod.bench_psa_vs_dense(
        n=args.n, token_dim=args.cprime, seed=args.seed,
        repeats=args.repeats, warmup=args.warmup)
    print(result.to_text())
    return 0


def _cmd_heatmap(args) -> int:
    cfg = _psa_config(args)
    rng = np.random.default_rng(args.seed)
    x_map, u_map, dtype = _input_maps(args, cfg, rng)
    params = PsaParams.create(cfg, rng, dtype)
    score_map = heatmap.score_map_from_run(x_map, u_map, params, cfg)
    heatmap.export_heatmap(args.out, score_map, fmt=args.format)
    print(f"wrote {score_map.shape[0]}x{score_map.shape[1]} heatmap to {args.out}")
    return 0


def _cmd_train_toy(args) -> int:
    result = networks.train_toy(
        seed=args.seed, n=args.n, num_classes=args.classes, steps=args.steps,
        lr=args.lr, momentum=args.momentum, batch_size=args.batch_size)
    for step in range(0, len(result.losses), max(1, args.log_every)):
        print(f"step {step + 1:>4}  loss {result.losses[step]:.4f}")
    print(f"final train accuracy: {result.final_accuracy:.4f}")
    if args.save_checkpoint:
        tensor_io.save_checkpoint(args.save_checkpoint, result.state.params)
        digest = tensor_io.checkpoint_digest(args.save_checkpoint)
        print(f"checkpoint written to {args.save_checkpoint} (sha256 {digest[:16]})")
    return 0


def _cmd_run_psa(args) -> int:
    cfg = _psa_config(args)
    rng = np.random.default_rng(args.seed)
    x_map, u_map, dtype = _input_maps(args, cfg, rng)
    diagnostics: dict = {}
    if cfg.stack_depth > 1:
        params = [PsaParams.create(cfg, rng, dtype) for _ in range(cfg.stack_depth)]
        out = psa_stack_forward(x_map, u_map, params, cfg)
        selected = None
    else:
        params = PsaParams.create(cfg, rng, dtype)
        out = psa_forward(x_map, u_map, params, cfg, diagnostics=diagnostics)
        selected = diagnostics["selection"].coarse_indices
    shape = "x".join(str(e) for e in out.shape)
    print(f"output map {shape}  mean {float(np.mean(out)):+.5f}  std {float(np.std(out)):.5f}")
    if selected is not None:
        print(f"refined coarse cells: {', '.join(str(i) for i in selected.tolist()) or 'none'}")
    if args.save_out:
        tensor_io.save_tensor(args.save_out, np.asarray(out))
        print(f"saved output tensor to {args.save_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pst", description="Pyramid feature fusion toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("params", help="print the parameter ledger of one block")
    p.add_argument("--cprime", type=int, default=32)
    p.add_argument("--c", type=int, default=8, help="fine input channels")
    p.add_argument("--cup", type=int, default=16, help="coarse input channels")
    p.add_argument("--mlp-extension", type=int, default=2)
    p.add_argument("--size", choices=("N", "S", "M"), default=None,
                   help="scale the width by the named variant before counting")
    p.set_defaults(func=_cmd_params)

    p = commands.add_parser("cost", help="verify interaction counts against the closed form")
    p.add_argument("--n", type=int, default=64, help="fine token count (square grid)")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--cprime", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cost)

    p = commands.add_parser("gradcheck", help="finite-difference check of one block")
    _add_psa_flags(p, cprime=16, precision="f64")
    p.add_argument("--c", type=int, default=8, help="fine input channels")
    p.add_argument("--cup", type=int, default=16, help="coarse input channels")
    p.add_argument("--side", type=int, default=4, help="fine map side length")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step scale")
    p.add_argument("--bn-mode", choices=("infer", "train"), default="infer",
                   help="normalization mode of the checked pass")
    p.set_defaults(func=_cmd_gradcheck)

    p = commands.add_parser("bench", help="time the pooled block against dense attention")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--cprime", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=bench_mod.MIN_REPEATS)
    p.add_argument("--warmup", type=int, default=bench_mod.MIN_WARMUP)
    p.set_defaults(func=_cmd_bench)

    p = commands.add_parser("heatmap", help="export the key-score map of one run")
    _add_psa_flags(p)
    p.add_argument("--side", type=int, default=16, help="fine map side length")
    p.add_argument("--x", default=None, help="fine input map as a tensor file")
    p.add_argument("--u", default=None, help="coarse input map as a tensor file")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.set_defaults(func=_cmd_heatmap)

    p = commands.add_parser("train-toy", help="train the toy classifier on synthetic data")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--log-every", type=int, default=25)
    p.add_argument("--save-checkpoint", default=None, help="directory for the final weights")
    p.set_defaults(func=_cmd_train_toy)

    p = commands.add_parser("run-psa", help="run one attention block on given or random maps")
    _add_psa_flags(p)
    p.add_argument("--side", type=int, default=8, help="fine map side length")
    p.add_argument("--x", default=None, help="fine input map as a tensor file")
    p.add_argument("--u", default=None, help="coarse input map as a tensor file")
    p.add_argument("--save-out", default=None, help="write the output map as a tensor file")
    p.set_defaults(func=_cmd_run_psa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (AccountingError, DivergenceError, ContractError, StateCorruptionError,
            NumericError, GatherIndexError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (DimensionError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
