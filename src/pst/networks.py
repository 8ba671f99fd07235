"""Desk-scale networks built around the fusion block.

Two heads share a three-stage pyramid backbone over 32x32 RGB images:
a detection-style neck that rewrites all three pyramid levels, and a
classifier that fuses the two top levels, pools, and projects to logits.
The classifier trains with plain momentum SGD on a synthetic, linearly
separable dataset; the sparse refinement stage stays off during training
and can be switched on afterwards without touching any parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, lift_tree
from .errors import ContractError, DimensionError, DivergenceError, NumericError
from .params import BatchNormState, kaiming, learnable_arrays
from .psa import PsaConfig, normalize_maps
from .pst_block import PstConfig, PstParams, pst_forward, pst_forward_batch

BACKBONE_CHANNELS = (16, 32, 64)
IMAGE_SHAPE = (3, 32, 32)


@dataclass(frozen=True)
class PyramidFeatures:
    """Three feature maps, each level 2x spatially coarser than the last."""

    p3: object
    p4: object
    p5: object

    def validate(self) -> None:
        shapes = [ad._val(m).shape for m in (self.p3, self.p4, self.p5)]
        for s in shapes:
            if len(s) != 3:
                raise DimensionError(f"pyramid level has shape {s}, expected [C, H, W]")
        for finer, coarser in ((shapes[0], shapes[1]), (shapes[1], shapes[2])):
            if finer[1] != 2 * coarser[1] or finer[2] != 2 * coarser[2]:
                raise DimensionError(
                    f"pyramid levels {finer} and {coarser} are not strict 2x neighbors")


@dataclass
class BackboneParams:
    convs: list
    norms: list

    @staticmethod
    def create(rng: np.random.Generator, dtype=np.float32) -> "BackboneParams":
        ins = (IMAGE_SHAPE[0],) + BACKBONE_CHANNELS[:-1]
        return BackboneParams(
            convs=[kaiming(rng, out, inp, dtype) for inp, out in zip(ins, BACKBONE_CHANNELS)],
            norms=[BatchNormState.create(out, dtype) for out in BACKBONE_CHANNELS],
        )


def backbone_forward_batch(images: list, p: BackboneParams, *, bn_mode: str = "infer",
                           stat_sink: Optional[list] = None) -> list:
    """Three stride-2 stages of pool, pointwise conv, normalization, SiLU.

    Runs a whole batch so the normalization sites see joint statistics.
    """
    for image in images:
        if ad._val(image).shape != IMAGE_SHAPE:
            raise DimensionError(f"expected a {IMAGE_SHAPE} image, got {ad._val(image).shape}")
    xs = list(images)
    per_sample_levels = [[] for _ in images]
    for conv, norm in zip(p.convs, p.norms):
        xs = [ad.downsample_avg2x(x) for x in xs]
        xs = normalize_maps([ad.conv1x1(x, conv) for x in xs], norm, bn_mode, stat_sink)
        xs = [ad.silu(x) for x in xs]
        for levels, x in zip(per_sample_levels, xs):
            levels.append(x)
    return [PyramidFeatures(*levels) for levels in per_sample_levels]


def backbone_forward(image, p: BackboneParams, *, bn_mode: str = "infer",
                     stat_sink: Optional[list] = None) -> PyramidFeatures:
    return backbone_forward_batch([image], p, bn_mode=bn_mode, stat_sink=stat_sink)[0]


# --- detection neck -------------------------------------------------------------


@dataclass(frozen=True)
class DetNeckConfig:
    pst3: PstConfig
    pst4: PstConfig
    pst5: PstConfig


def default_det_neck_config() -> DetNeckConfig:
    c3, c4, c5 = BACKBONE_CHANNELS
    return DetNeckConfig(
        pst3=PstConfig(fine_channels=c3, coarse_channels=c4, token_dim=16),
        pst4=PstConfig(fine_channels=c4, coarse_channels=c5, token_dim=32),
        pst5=PstConfig(fine_channels=c4, coarse_channels=c5, token_dim=32),
    )


@dataclass
class DetNeckParams:
    pst3: PstParams
    pst4: PstParams
    pst5: PstParams
    lateral_to_p3: np.ndarray
    lateral_to_p5: np.ndarray

    @staticmethod
    def create(cfg: DetNeckConfig, rng: np.random.Generator, dtype=np.float32) -> "DetNeckParams":
        c3, c4, c5 = BACKBONE_CHANNELS
        return DetNeckParams(
            pst3=PstParams.create(cfg.pst3, rng, dtype),
            pst4=PstParams.create(cfg.pst4, rng, dtype),
            pst5=PstParams.create(cfg.pst5, rng, dtype),
            lateral_to_p3=kaiming(rng, cfg.pst3.coarse_channels, cfg.pst4.out_channels, dtype),
            lateral_to_p5=kaiming(rng, cfg.pst5.fine_channels, cfg.pst4.out_channels, dtype),
        )


def det_neck_forward(feats: PyramidFeatures, p: DetNeckParams, cfg: DetNeckConfig, *,
                     bn_mode: str = "infer", stat_sink: Optional[list] = None) -> PyramidFeatures:
    """Rewrite the pyramid top-down, one fusion block per level.

    The middle level fuses P4 with P5. Its output, channel-projected, serves
    as the coarse partner of P3 and as the query source of the bottom site;
    the bottom site pairs that query map with P5 and its output is average
    pooled back to the P5 grid, so every site sees a strict 2x pair.
    """
    feats.validate()
    n4 = pst_forward(feats.p4, feats.p5, p.pst4, cfg.pst4, bn_mode=bn_mode, stat_sink=stat_sink)
    u3 = ad.conv1x1(n4, p.lateral_to_p3)
    n3 = pst_forward(feats.p3, u3, p.pst3, cfg.pst3, bn_mode=bn_mode, stat_sink=stat_sink)
    q5 = ad.conv1x1(n4, p.lateral_to_p5)
    n5 = ad.downsample_avg2x(
        pst_forward(q5, feats.p5, p.pst5, cfg.pst5, bn_mode=bn_mode, stat_sink=stat_sink))
    return PyramidFeatures(n3, n4, n5)


# --- classifier ------------------------------------------------------------------


@dataclass(frozen=True)
class ClsConfig:
    pst: PstConfig
    num_classes: int

    @property
    def feature_dim(self) -> int:
        return self.pst.out_channels


def default_cls_config(num_classes: int = 4, token_dim: int = 32, k: int = 8,
                       fine_enabled: bool = False) -> ClsConfig:
    _, c4, c5 = BACKBONE_CHANNELS
    psa = PsaConfig(token_dim=token_dim, k=k, fine_enabled=fine_enabled)
    pst = PstConfig(fine_channels=c4, coarse_channels=c5, token_dim=token_dim, psa=psa)
    return ClsConfig(pst=pst, num_classes=num_classes)


@dataclass
class ClsNetParams:
    backbone: BackboneParams
    pst: PstParams
    cls_weight: np.ndarray
    cls_bias: np.ndarray

    @staticmethod
    def create(cfg: ClsConfig, rng: np.random.Generator, dtype=np.float32) -> "ClsNetParams":
        return ClsNetParams(
            backbone=BackboneParams.create(rng, dtype),
            pst=PstParams.create(cfg.pst, rng, dtype),
            cls_weight=kaiming(rng, cfg.num_classes, cfg.feature_dim, dtype).T.copy(),
            cls_bias=np.zeros(cfg.num_classes, dtype=dtype),
        )


def cls_forward_batch(images: list, p: ClsNetParams, cfg: ClsConfig, *,
                      bn_mode: str = "infer", stat_sink: Optional[list] = None) -> list:
    """Logits per image: backbone, top-level fusion, pooling, affine map.

    Batched so training-mode normalization statistics span the batch.
    """
    feats = backbone_forward_batch(images, p.backbone, bn_mode=bn_mode, stat_sink=stat_sink)
    fused = pst_forward_batch([f.p4 for f in feats], [f.p5 for f in feats],
                              p.pst, cfg.pst, bn_mode=bn_mode, stat_sink=stat_sink)
    return [ad.linear(ad.mean_spatial(f), p.cls_weight, p.cls_bias) for f in fused]


def cls_forward(image, p: ClsNetParams, cfg: ClsConfig, *, bn_mode: str = "infer",
                stat_sink: Optional[list] = None):
    """Logits for one image: backbone, top-level fusion, pooling, affine."""
    return cls_forward_batch([image], p, cfg, bn_mode=bn_mode, stat_sink=stat_sink)[0]


# --- synthetic data ---------------------------------------------------------------


def synth_dataset(seed: int, n: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise images plus a class-keyed smooth bump in one quadrant.

    Class ``c`` paints a low-frequency bump of amplitude 2 into quadrant
    ``c % 4`` of channel ``c // 4``, on top of Gaussian noise with sigma
    0.5, which keeps the class means separated well beyond the noise scale.
    Labels cycle through the classes, so they are balanced. Deterministic
    for a given seed.
    """
    if not 2 <= num_classes <= 8:
        raise ValueError(f"num_classes must be in [2, 8], got {num_classes}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    half = IMAGE_SHAPE[1] // 2
    ramp = np.sin(np.pi * (np.arange(half) + 0.5) / half)
    bump = (2.0 * np.outer(ramp, ramp)).astype(np.float32)
    images = rng.normal(0.0, 0.5, size=(n,) + IMAGE_SHAPE).astype(np.float32)
    labels = np.arange(n, dtype=np.int64) % num_classes
    for i in range(n):
        c = int(labels[i])
        row, col = (c % 4) // 2, (c % 4) % 2
        channel = c // 4
        images[i, channel, row * half:(row + 1) * half, col * half:(col + 1) * half] += bump
    return images, labels


# --- training ---------------------------------------------------------------------


@dataclass
class TrainState:
    params: ClsNetParams
    cfg: ClsConfig
    velocities: dict = field(default_factory=dict)
    step: int = 0


def init_train_state(cfg: ClsConfig, seed: int, dtype=np.float32) -> TrainState:
    rng = np.random.default_rng([seed, 1])
    params = ClsNetParams.create(cfg, rng, dtype)
    velocities = {name: np.zeros_like(arr) for name, arr in learnable_arrays(params).items()}
    return TrainState(params=params, cfg=cfg, velocities=velocities)


def _apply_stat_updates(stat_sink: list) -> None:
    # Joint batch statistics give one entry per normalization site and step.
    for mean_arr, new_mean, var_arr, new_var in stat_sink:
        mean_arr[...] = new_mean
        var_arr[...] = new_var


def train_step(images: np.ndarray, labels: np.ndarray, state: TrainState,
               lr: float, momentum: float = 0.9) -> float:
    """One SGD step over a batch. Mutates parameters and velocities in place.

    The velocity update is ``v = momentum * v + g`` followed by
    ``p -= lr * v``, so zero momentum is plain gradient descent and zero
    learning rate leaves every parameter bit untouched.
    """
    if state.cfg.pst.psa.fine_enabled:
        raise ContractError("training requires the fine attention stage disabled")
    if len(images) != len(labels) or len(images) == 0:
        raise DimensionError(f"batch of {len(images)} images with {len(labels)} labels")
    tape = Tape()
    lifted, leaves = lift_tree(tape, state.params)
    stat_sink: list = []
    try:
        logits_list = cls_forward_batch(list(images), lifted, state.cfg,
                                        bn_mode="train", stat_sink=stat_sink)
        total = None
        for logits, label in zip(logits_list, labels):
            ce = ad.cross_entropy(logits, int(label))
            total = ce if total is None else ad.add(total, ce)
        loss = ad.scalar_affine(total, 1.0 / len(images))
    except NumericError as exc:
        raise DivergenceError(state.step) from exc
    loss_value = float(loss.value)
    if not np.isfinite(loss_value):
        raise DivergenceError(state.step)
    table = tape.backward(loss)
    for name, var in leaves.items():
        grad = table[var.vid]
        velocity = state.velocities[name]
        velocity *= momentum
        velocity += grad
        arr = var.value
        arr -= (lr * velocity).astype(arr.dtype, copy=False)
    _apply_stat_updates(stat_sink)
    state.step += 1
    return loss_value


def evaluate_accuracy(images: np.ndarray, labels: np.ndarray,
                      params: ClsNetParams, cfg: ClsConfig) -> float:
    hits = 0
    for image, label in zip(images, labels):
        logits = cls_forward(image, params, cfg)
        hits += int(np.argmax(logits)) == int(label)
    return hits / len(images)


@dataclass
class ToyTrainResult:
    losses: list[float]
    final_accuracy: float
    state: TrainState
    images: np.ndarray
    labels: np.ndarray


def train_toy(seed: int = 1, n: int = 512, num_classes: int = 4, steps: int = 300,
              lr: float = 0.05, momentum: float = 0.9, batch_size: int = 32,
              token_dim: int = 32) -> ToyTrainResult:
    """Train the classifier on the synthetic set and report train accuracy.

    Deterministic per seed: the dataset, the initialization, and the batch
    order each draw from their own seed-derived stream.
    """
    images, labels = synth_dataset(seed, n, num_classes)
    cfg = default_cls_config(num_classes=num_classes, token_dim=token_dim)
    state = init_train_state(cfg, seed)
    batch_rng = np.random.default_rng([seed, 2])
    order = batch_rng.permutation(n)
    cursor = 0
    losses = []
    for _ in range(steps):
        if cursor + batch_size > n:
            order = batch_rng.permutation(n)
            cursor = 0
        batch = order[cursor:cursor + batch_size]
        cursor += batch_size
        losses.append(train_step(images[batch], labels[batch], state, lr, momentum))
    accuracy = evaluate_accuracy(images, labels, state.params, state.cfg)
    return ToyTrainResult(losses=losses, final_accuracy=accuracy, state=state,
                          images=images, labels=labels)
