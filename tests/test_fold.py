"""Infer-mode normalization folded into one per-channel affine.

Where a site folds, its running statistics and affine become one ``scale``
and ``shift`` applied to the output of the linear map before it, and
``bn_cpe``'s shift joins ``bn_out``'s through ``wo``. The folded path rounds
differently from the batch norm it replaces. These tests bound that
difference against the float64 straight-line oracle and against the
unfolded path, which train mode and taped parameters still run, and check
that folding keeps the checks and the per-image bytes of the batch norm
path.
"""

import numpy as np
import pytest

import oracles
from pst import autodiff as ad
from pst import networks as nets
from pst import pst_block as blk
from pst import tensor_ops as ops
from pst.errors import NumericError, StateCorruptionError
from pst.params import named_arrays
from pst.psa import PsaConfig

# Each bound is on max |out - ref| / (1 + |ref|).
# Folded float64 block against the float64 oracle: only rounding, at most
# 1e-13 measured.
F64_TOL = 1e-10
# Folded float32 block against the float64 oracle: at most 5.4e-5 measured
# over 40 blocks, where the unfolded float32 block reads up to 4.3e-5.
F32_TOL = 2e-4
# Folded float32 logits against the unfolded float32 logits of the same
# parameters: at most 2.1e-6 measured over six classifiers.
LOGIT_TOL = 2e-5

# Every normalization site of the classifier, by its name in the parameter tree.
CLS_SITES = ("backbone.norms.0", "backbone.norms.1", "backbone.norms.2", "pst.bn_x",
             "pst.bn_u", "pst.psa.bn_cpe", "pst.psa.bn_out", "pst.bn_end")


def randomize_norms(params, rng):
    """Non-trivial affine and running statistics at every normalization site."""
    for name, arr in named_arrays(params).items():
        field = name.rsplit(".", 1)[-1]
        if field == "gamma":
            arr[...] = 1.0 + 0.3 * rng.standard_normal(arr.shape)
        elif field == "beta":
            arr[...] = 0.5 * rng.standard_normal(arr.shape)
        elif field == "running_mean":
            arr[...] = 0.5 * rng.standard_normal(arr.shape)
        elif field == "running_var":
            arr[...] = np.exp(0.5 * rng.standard_normal(arr.shape))
    return params


def refined_block(seed, dtype, fusion_mode="sum"):
    cfg = blk.PstConfig(fine_channels=8, coarse_channels=16, token_dim=32,
                        psa=PsaConfig(token_dim=32, k=8, fine_enabled=True,
                                      fusion_mode=fusion_mode))
    rng = np.random.default_rng([seed, 40])
    p = randomize_norms(blk.PstParams.create(cfg, rng, dtype), rng)
    x = rng.standard_normal((8, 16, 16)).astype(dtype)
    u = rng.standard_normal((16, 8, 8)).astype(dtype)
    return x, u, p, cfg


def classifier(seed, fine_enabled=False, dtype=np.float32):
    cfg = nets.default_cls_config(fine_enabled=fine_enabled)
    rng = np.random.default_rng([seed, 41])
    p = randomize_norms(nets.ClsNetParams.create(cfg, rng, dtype), rng)
    images, _ = nets.synth_dataset(seed, 16, 4)
    return images.astype(dtype), p, cfg


def unfolded_logits(images, p, cfg):
    """The batch-norm path: parameters lifted onto a tape do not fold."""
    lifted, _ = ad.lift_tree(ad.Tape(), p, requires_grad=False)
    return nets.cls_forward_batch(images, lifted, cfg).value


def within(out, ref, tol):
    return float((np.abs(out - ref) / (1.0 + np.abs(ref))).max()) <= tol


class TestAgainstOracles:
    @pytest.mark.parametrize("fusion_mode", ["sum", "self_gating"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_refined_block_matches_float64_reference(self, fusion_mode, dtype, tol):
        for seed in range(3):
            x, u, p, cfg = refined_block(seed, dtype, fusion_mode)
            out = blk.pst_forward(x, u, p, cfg)
            assert within(out, oracles.pst_reference(x, u, p, cfg), tol), seed

    def test_refined_selection_equals_the_reference(self):
        for seed in range(3):
            x, u, p, cfg = refined_block(seed, np.float32)
            diag, record = {}, {}
            blk.pst_forward(x, u, p, cfg, diagnostics=diag)
            oracles.pst_reference(x, u, p, cfg, record)
            # No near-tie: the k-th and the next score stand apart by far
            # more than the float32 scores' own error.
            ranked = np.sort(record["key_scores"])[::-1]
            assert ranked[cfg.psa.k - 1] - ranked[cfg.psa.k] > 1e-4 * ranked.mean(), seed
            assert diag["selection"].coarse_indices.tolist() == record["coarse_indices"], seed

    def test_initial_statistics_give_the_batch_norm_bytes(self):
        """With gamma 1, beta 0, mean 0 and variance 1 at every site, the
        folded affine makes the batch norm's operations on the same values."""
        cfg = nets.default_cls_config()
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(43), np.float32)
        images, _ = nets.synth_dataset(43, 8, 4)
        folded = nets.cls_forward_batch(images, p, cfg)
        assert folded.tobytes() == unfolded_logits(images, p, cfg).tobytes()

    def test_classifier_logits_match_the_unfolded_path(self):
        for seed in range(3):
            images, p, cfg = classifier(seed)
            folded = nets.cls_forward_batch(images, p, cfg)
            unfolded = unfolded_logits(images, p, cfg)
            assert not np.array_equal(folded, unfolded)
            assert within(folded, unfolded, LOGIT_TOL), seed


class TestWhichPathRuns:
    def _count(self, monkeypatch):
        calls = {"batch_norm": 0, "fold": 0}
        norm, fold = ops._batch_norm, ops.fold_batch_norm

        def counted_norm(*args, **kwargs):
            calls["batch_norm"] += 1
            return norm(*args, **kwargs)

        def counted_fold(*args, **kwargs):
            calls["fold"] += 1
            return fold(*args, **kwargs)

        monkeypatch.setattr(ops, "_batch_norm", counted_norm)
        monkeypatch.setattr(ops, "fold_batch_norm", counted_fold)
        return calls

    def test_infer_mode_folds_every_site(self, monkeypatch):
        images, p, cfg = classifier(1)
        calls = self._count(monkeypatch)
        nets.cls_forward_batch(images, p, cfg)
        assert calls == {"batch_norm": 0, "fold": len(CLS_SITES)}

    def test_train_mode_and_taped_parameters_keep_the_batch_norm(self, monkeypatch):
        images, p, cfg = classifier(1)
        calls = self._count(monkeypatch)
        nets.cls_forward_batch(images, p, cfg, bn_mode="train", stat_sink=[])
        unfolded_logits(images, p, cfg)
        assert calls == {"batch_norm": 2 * len(CLS_SITES), "fold": 0}

    def test_taped_input_with_plain_parameters_folds_to_the_same_bytes(self):
        x, u, p, _ = refined_block(2, np.float32)
        # A taped pass runs the coarse stage only.
        cfg = blk.PstConfig(fine_channels=8, coarse_channels=16, token_dim=32)
        tape = ad.Tape()
        taped = blk.pst_forward(tape.leaf(x, requires_grad=True), tape.leaf(u), p, cfg)
        assert np.array_equal(taped.value, blk.pst_forward(x, u, p, cfg))


class TestChecksKept:
    @pytest.mark.parametrize("site", CLS_SITES)
    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_corrupt_running_variance_raises_at_each_folded_site(self, site, bad):
        images, p, cfg = classifier(2)
        named_arrays(p)[f"{site}.running_var"][1] = bad
        with pytest.raises(StateCorruptionError):
            nets.cls_forward_batch(images, p, cfg)

    def test_non_finite_input_raises(self):
        x, u, p, cfg = refined_block(3, np.float32)
        x[2, 5, 7] = np.nan
        with pytest.raises(NumericError):
            blk.pst_forward(x, u, p, cfg)
        images, p, cfg = classifier(3)
        images[0, 1, 4, 4] = np.nan
        with pytest.raises(NumericError):
            nets.cls_forward_batch(images, p, cfg)

    def test_folded_calls_write_no_parameter(self):
        images, p, cfg = classifier(4, fine_enabled=True)
        neck_cfg = nets.default_det_neck_config()
        rng = np.random.default_rng(42)
        neck = randomize_norms(nets.DetNeckParams.create(neck_cfg, rng), rng)
        trees = (p, neck)
        before = [a.tobytes() for tree in trees for a in named_arrays(tree).values()]
        nets.cls_forward_batch(images, p, cfg)
        nets.det_neck_forward(nets.backbone_forward(images[0], p.backbone), neck, neck_cfg)
        after = [a.tobytes() for tree in trees for a in named_arrays(tree).values()]
        assert after == before

    @pytest.mark.parametrize("fine_enabled", [False, True])
    def test_infer_logits_per_image_equal_the_batched_bytes(self, fine_enabled):
        images, p, cfg = classifier(5, fine_enabled=fine_enabled)
        batched = nets.cls_forward_batch(images, p, cfg)
        for image, row in zip(images, batched):
            assert nets.cls_forward(image, p, cfg).tobytes() == row.tobytes()
