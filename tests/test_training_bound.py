"""The training step against float64.

A train step's sums reduce in einsum's and BLAS's own order: the batch-norm
statistics and parameter gradients (``tensor_ops.channel_stats``,
``autodiff.batch_norm``) and the conv1x1 weight gradient (one ``matmul``
per sample, summed over samples). No loop oracle gives their bytes, so these
tests bound them against float64: each op at the toy classifier's shapes
and at odd grids, and five whole training steps.
"""

import numpy as np
import pytest

import oracles
from pst import autodiff as ad
from pst import networks as nets
from pst import tensor_ops as ops
from pst.params import named_arrays

# Per-op bounds, in units of the dtype's eps, against the float64 formulas of
# ``oracles.batch_norm_direct`` on the same operands upcast; per channel for
# the sums, per element for the input gradient:
#   |mean - mean64| <= TOL["mean"] * eps * mean|x|
#   |var - var64| <= TOL["var"] * eps * var64
#   |g_beta - g_beta64| <= TOL["g_beta"] * eps * sum|up|
#   |g_gamma - g_gamma64| <= TOL["g_gamma"] * eps * sum|up * xhat64|
#   |gx - gx64| <= TOL["gx"] * eps * |scale64| * (|up| + mean|up| + |xhat64| * mean|up * xhat64|)
#   |g_w - g_w64| <= TOL["g_w"] * eps * (|up| summed against |x|), conv1x1
# Measured maxima over the cases below, float32 then float64: mean 5.8, 8.8;
# var 12.5, 29.3; g_beta 0.6, 1.0; g_gamma 1.4, 1.0; gx 5.2, 11.4; g_w 0.7,
# 1.2. The numpy-order reductions these replaced measured, in float32, 6.2,
# 24.5, 0.6, 1.4, 10.6 and 0.8 (in float64 they were the oracle's own sums).
TOL = {"mean": 64, "var": 128, "g_beta": 16, "g_gamma": 16, "gx": 64, "g_w": 16}

# Five float32 train_steps against the same steps in float64 from the same
# (float32) initial values, as max |a - a64| / (1 + |a64|) over the losses,
# over every learnable parameter and over every running statistic. Measured
# at seeds 1, 2 and 3, over all three, at most 2.4e-7, 3.9e-7 and 3.2e-7: the
# bound is five times the largest. The numpy-order reductions that these
# sums replaced measured 4.5e-7, 9.9e-7 and 2.1e-6, so they would fail it at
# seed 3.
TRAIN_TOL = 2e-6

MAP_GRIDS = ((16, 16, 16), (64, 4, 4), (8, 7, 7), (5, 5, 3), (3, 9, 1))
TOKEN_GRIDS = ((64, 32), (49, 16), (15, 7))
BN_CASES = ([((b, *g), -3) for b in (1, 2, 32) for g in MAP_GRIDS]
            + [((b, *g), -1) for b in (1, 2, 32) for g in TOKEN_GRIDS])


def worst(err, scale):
    """The largest ``|err| / scale``; an error where the scale is 0 is inf."""
    err, scale = np.broadcast_arrays(np.abs(err), scale)
    ok = scale > 0
    if np.any(err[~ok] > 0):
        return np.inf
    return float((err[ok] / scale[ok]).max(initial=0.0))


def bn_errors(shape, channel_axis, dtype, mode):
    """The batch-norm ratios of the bounds above, in units of eps."""
    rng = np.random.default_rng([len(shape), *shape])
    c = shape[channel_axis]
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    gamma, beta, mean0 = (rng.standard_normal(c).astype(dtype) for _ in range(3))
    var0 = rng.uniform(0.5, 2.0, c).astype(dtype)
    up = rng.standard_normal(shape).astype(dtype)
    tape = ad.Tape()
    xv, gv, bv = (tape.leaf(a, requires_grad=True) for a in (x, gamma, beta))
    y, _, _ = ad.batch_norm(xv, gv, bv, mean0, var0, mode=mode, channel_axis=channel_axis)
    grads = tape.backward(ad.sum_all(ad.mul(y, up)))

    x64, gamma64, beta64, mean64, var64, up64 = (
        a.astype(np.float64) for a in (x, gamma, beta, mean0, var0, up))
    *_, gx64, g_gamma64, g_beta64 = oracles.batch_norm_direct(
        x64, gamma64, beta64, mean64, var64, up64, mode=mode, channel_axis=channel_axis)
    axis = channel_axis % x.ndim
    axes = tuple(i for i in range(x.ndim) if i != axis)
    pshape = (-1,) + (1,) * (x.ndim - 1 - axis)
    rows = np.moveaxis(x64, axis, -1).reshape(-1, c)
    errors = {}
    if mode == "train":
        mean, var, _ = ops.channel_stats(x, axis)
        mean64, var64 = rows.mean(0), rows.var(0)
        errors["mean"] = worst(mean - mean64, np.abs(rows).mean(0))
        errors["var"] = worst(var - var64, var64)
    inv64 = 1 / np.sqrt(var64 + ops.BN_EPS)
    xhat64 = (x64 - mean64.reshape(pshape)) * inv64.reshape(pshape)
    up_xhat = np.abs(up64 * xhat64)
    errors["g_beta"] = worst(grads[bv.vid] - g_beta64, np.abs(up64).sum(axis=axes))
    errors["g_gamma"] = worst(grads[gv.vid] - g_gamma64, up_xhat.sum(axis=axes))
    n = rows.shape[0]
    terms = (np.abs(up64) + (np.abs(up64).sum(axis=axes) / n).reshape(pshape)
             + np.abs(xhat64) * (up_xhat.sum(axis=axes) / n).reshape(pshape))
    errors["gx"] = worst(grads[xv.vid] - gx64,
                         np.abs(inv64 * gamma64).reshape(pshape) * terms)
    return {k: v / np.finfo(dtype).eps for k, v in errors.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("shape, channel_axis", BN_CASES)
def test_batch_norm_statistics_and_gradients_within_the_float64_bound(
        shape, channel_axis, mode, dtype):
    errors = bn_errors(shape, channel_axis, dtype, mode)
    assert set(errors) == ({"mean", "var"} if mode == "train" else set()) | {
        "g_beta", "g_gamma", "gx"}
    for name, ratio in errors.items():
        assert ratio <= TOL[name], (name, ratio)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, c_out", [
    ((32, 3, 16, 16), 16), ((32, 32, 8, 8), 64), ((32, 64, 4, 4), 32), ((1, 16, 7, 7), 8),
    ((2, 5, 5, 3), 7), ((16, 9, 1), 4)])
def test_conv1x1_weight_gradient_within_the_float64_bound(shape, c_out, dtype):
    """One matmul per sample, summed over samples, against the float64 sum
    over every position of every sample."""
    rng = np.random.default_rng([7, *shape])
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((c_out, shape[-3])).astype(dtype)
    up = rng.standard_normal((*shape[:-3], c_out, *shape[-2:])).astype(dtype)
    tape = ad.Tape()
    wv = tape.leaf(w, requires_grad=True)
    got = tape.backward(ad.sum_all(ad.mul(ad.conv1x1(x, wv), up)))[wv.vid]
    assert got.dtype == dtype and got.shape == w.shape
    up64, x64 = (a.astype(np.float64).reshape(-1, a.shape[-3], a.shape[-2] * a.shape[-1])
                 for a in (up, x))
    want = np.einsum("boj,bij->oi", up64, x64)
    scale = np.einsum("boj,bij->oi", np.abs(up64), np.abs(x64))
    assert worst(got - want, scale) / np.finfo(dtype).eps <= TOL["g_w"]


def train_pair(seed, steps=5, batch=32):
    """``steps`` float32 train_steps and the same steps in float64, from the
    float32 initial values: ``(losses32, losses64, state32, state64)``."""
    cfg = nets.default_cls_config(4)
    state32 = nets.init_train_state(cfg, seed)
    state64 = nets.init_train_state(cfg, seed, np.float64)
    for a, b in zip(named_arrays(state32.params).values(), named_arrays(state64.params).values()):
        b[...] = a
    images, labels = nets.synth_dataset(seed, steps * batch, 4)
    losses32, losses64 = [], []
    for lo in range(0, steps * batch, batch):
        batch_images, batch_labels = images[lo:lo + batch], labels[lo:lo + batch]
        losses32.append(nets.train_step(batch_images, batch_labels, state32, 0.05, 0.9))
        losses64.append(nets.train_step(batch_images.astype(np.float64), batch_labels,
                                        state64, 0.05, 0.9))
    return losses32, losses64, state32, state64


def gap(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / (1 + np.abs(b))))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_five_float32_steps_stay_within_the_float64_bound(seed):
    losses32, losses64, state32, state64 = train_pair(seed)
    arrays32, arrays64 = named_arrays(state32.params), named_arrays(state64.params)
    assert len(arrays32) == 47
    running = [k for k in arrays32 if k.endswith(("running_mean", "running_var"))]
    learned = [k for k in arrays32 if k not in running]
    assert len(running) == 16
    assert all(a.dtype == np.float32 for a in arrays32.values())
    assert all(a.dtype == np.float64 for a in arrays64.values())
    assert losses32 != losses64  # the two runs round differently
    assert gap(losses32, losses64) <= TRAIN_TOL
    assert max(gap(arrays32[k], arrays64[k]) for k in learned) <= TRAIN_TOL
    assert max(gap(arrays32[k], arrays64[k]) for k in running) <= TRAIN_TOL
