"""Toy networks: backbone geometry, neck wiring, classifier training."""

import hashlib
import importlib.util
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pst
from pst import autodiff as ad
from pst import bench
from pst import networks as nets
from pst import psa
from pst import tensor_ops as ops
from pst.errors import ContractError, DimensionError, DivergenceError, NumericError
from pst.params import learnable_arrays, map_arrays, named_arrays
from test_threads import DIGEST_PLATFORM, _platform, needs_control


class TestBackbone:
    def test_classifier_calls_each_layer_by_its_module_name(self, monkeypatch):
        # Per-layer tracing replaces these names in ``pst.networks``; a call
        # that goes round them would leave the layer's span empty.
        cfg = nets.default_cls_config(token_dim=16)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(15), np.float32)
        images, _ = nets.synth_dataset(16, 2, 4)
        calls = []

        def counted(name, layer):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return layer(*args, **kwargs)
            return wrapper

        for name in ("backbone_forward", "pst_forward"):
            monkeypatch.setattr(nets, name, counted(name, getattr(nets, name)))
        nets.cls_forward_batch(images, p, cfg)
        assert calls == ["backbone_forward", "pst_forward"]

    def test_pyramid_shapes(self):
        rng = np.random.default_rng(0)
        p = nets.BackboneParams.create(rng, np.float32)
        image = rng.standard_normal(nets.IMAGE_SHAPE).astype(np.float32)
        feats = nets.backbone_forward(image, p)
        assert feats.p3.shape == (16, 16, 16)
        assert feats.p4.shape == (32, 8, 8)
        assert feats.p5.shape == (64, 4, 4)
        feats.validate()

    def test_image_shape_check(self):
        p = nets.BackboneParams.create(np.random.default_rng(1), np.float32)
        with pytest.raises(DimensionError):
            nets.backbone_forward(np.zeros((3, 64, 64), dtype=np.float32), p)

    def test_pyramid_validation(self):
        with pytest.raises(DimensionError):
            nets.PyramidFeatures(np.zeros((4, 8)), np.zeros((4, 4, 4)),
                                 np.zeros((4, 2, 2))).validate()
        with pytest.raises(DimensionError, match="2x neighbors"):
            nets.PyramidFeatures(np.zeros((4, 8, 8)), np.zeros((4, 4, 4)),
                                 np.zeros((4, 3, 3))).validate()


class TestDetNeck:
    @staticmethod
    def make(seed):
        cfg = nets.default_det_neck_config()
        p = nets.DetNeckParams.create(cfg, np.random.default_rng(seed), np.float32)
        return cfg, p

    @staticmethod
    def pyramid(rng):
        return nets.PyramidFeatures(
            rng.standard_normal((16, 16, 16)).astype(np.float32),
            rng.standard_normal((32, 8, 8)).astype(np.float32),
            rng.standard_normal((64, 4, 4)).astype(np.float32))

    def test_output_grids_match_input_grids(self):
        cfg, p = self.make(2)
        out = nets.det_neck_forward(self.pyramid(np.random.default_rng(3)), p, cfg)
        assert out.p3.shape == (32, 16, 16)
        assert out.p4.shape == (64, 8, 8)
        assert out.p5.shape == (64, 4, 4)
        out.validate()

    def test_zero_pyramid_stays_zero_with_default_shifts(self):
        cfg, p = self.make(4)
        zeros = nets.PyramidFeatures(np.zeros((16, 16, 16), dtype=np.float32),
                                     np.zeros((32, 8, 8), dtype=np.float32),
                                     np.zeros((64, 4, 4), dtype=np.float32))
        out = nets.det_neck_forward(zeros, p, cfg)
        assert np.array_equal(out.p3, np.zeros((32, 16, 16)))
        assert np.array_equal(out.p4, np.zeros((64, 8, 8)))
        assert np.array_equal(out.p5, np.zeros((64, 4, 4)))

    def test_zero_pyramid_lands_on_middle_site_shift(self):
        cfg, p = self.make(5)
        beta = np.random.default_rng(6).standard_normal(64).astype(np.float32)
        p.pst4.bn_end.beta = beta
        zeros = nets.PyramidFeatures(np.zeros((16, 16, 16), dtype=np.float32),
                                     np.zeros((32, 8, 8), dtype=np.float32),
                                     np.zeros((64, 4, 4), dtype=np.float32))
        out = nets.det_neck_forward(zeros, p, cfg)
        assert np.array_equal(out.p4, np.broadcast_to(beta[:, None, None], (64, 8, 8)))

    def test_deterministic(self):
        cfg, p = self.make(7)
        feats = self.pyramid(np.random.default_rng(8))
        a = nets.det_neck_forward(feats, p, cfg)
        b = nets.det_neck_forward(feats, p, cfg)
        assert np.array_equal(a.p3, b.p3)
        assert np.array_equal(a.p4, b.p4)
        assert np.array_equal(a.p5, b.p5)


    def test_one_refined_neck_image_makes_at_most_700_pst_calls(self):
        """Interpreter overhead, not arithmetic, sets a neck image's latency,
        and its call count does not depend on the host's load. One image of
        the ``neck_image`` operation of ``tools/bench_inference.py``
        (refinement on at k=8 at all three sites) makes at most 700 calls
        into ``pst`` functions under ``sys.setprofile``; it made 994 while
        every untaped op still looked up its tape."""
        ops.set_debug_checks(False)
        path = Path(__file__).resolve().parents[1] / "tools" / "bench_inference.py"
        spec = importlib.util.spec_from_file_location("bench_inference", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        neck_image = tool.neck_image_op(1)
        neck_image()  # first-call lookups, such as the BLAS control
        counts = tool.call_counts(neck_image, os.path.dirname(pst.__file__))
        assert counts["pst"] <= 700, counts


class TestClassifier:
    def test_logit_vector_length(self):
        cfg = nets.default_cls_config(num_classes=6, token_dim=16)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(9), np.float32)
        image = np.random.default_rng(10).standard_normal(nets.IMAGE_SHAPE).astype(np.float32)
        assert nets.cls_forward(image, p, cfg).shape == (6,)

    def test_identical_images_identical_logits(self):
        cfg = nets.default_cls_config(token_dim=16)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(11), np.float32)
        image = np.random.default_rng(12).standard_normal(nets.IMAGE_SHAPE).astype(np.float32)
        a, b = nets.cls_forward_batch([image, image.copy()], p, cfg)
        assert np.array_equal(a, b)

    def test_zero_head_gives_zero_logits(self):
        cfg = nets.default_cls_config(token_dim=16)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(13), np.float32)
        p.cls_weight[...] = 0.0
        image = np.random.default_rng(14).standard_normal(nets.IMAGE_SHAPE).astype(np.float32)
        assert np.array_equal(nets.cls_forward(image, p, cfg), np.zeros(4))

    def test_init_is_seed_deterministic(self):
        cfg = nets.default_cls_config(token_dim=16)
        a = nets.init_train_state(cfg, 5).params
        b = nets.init_train_state(cfg, 5).params
        for name, arr in named_arrays(a).items():
            assert arr.tobytes() == named_arrays(b)[name].tobytes(), name


class TestBatchFirst:
    """The stacked path against the one-image path it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fine_enabled", [False, True])
    def test_infer_logits_equal_per_image_bytes(self, dtype, fine_enabled):
        cfg = nets.default_cls_config(fine_enabled=fine_enabled)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(30), dtype)
        images, _ = nets.synth_dataset(31, 64, 4)
        images = images.astype(dtype)
        single = [nets.cls_forward(image, p, cfg) for image in images]
        for b in (1, 3, 64):
            listed = nets.cls_forward_batch(list(images[:b]), p, cfg)
            stacked = nets.cls_forward_batch(images[:b], p, cfg)
            assert len(listed) == b and stacked.shape == (b, cfg.num_classes)
            for i in range(b):
                assert listed[i].tobytes() == single[i].tobytes(), (b, i)
                assert stacked[i].tobytes() == single[i].tobytes(), (b, i)

    def test_evaluate_accuracy_equals_per_image_argmax(self):
        """At fewer images than one slice, at a partial last slice and at
        eight whole slices."""
        images, labels, state = small_train_setup(seed=32, num_classes=4, n=512)
        for _ in range(2):
            nets.train_step(images[:8], labels[:8], state, lr=0.05)
        hits = np.array([int(np.argmax(nets.cls_forward(image, state.params, state.cfg)))
                         == int(label) for image, label in zip(images, labels)])
        for n in (24, 100, 512):
            got = nets.evaluate_accuracy(images[:n], labels[:n], state.params, state.cfg)
            assert got == hits[:n].sum() / n, n

    def test_evaluate_accuracy_memory_does_not_grow_with_images(self):
        """Slices of ``EVAL_SLICE`` images bound the traced peak: 512 images
        peak about as high as 64, where one forward over all 512 peaked 8x."""
        cfg = nets.default_cls_config()
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(36), np.float32)
        images, labels = nets.synth_dataset(37, 512, 4)

        def peak(n):
            tracemalloc.start()
            try:
                nets.evaluate_accuracy(images[:n], labels[:n], p, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert nets.EVAL_SLICE == 64
        assert peak(512) < 1.25 * peak(64)

    def test_step_tape_length_does_not_grow_with_batch(self, monkeypatch):
        tapes = []

        class RecordingTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(nets, "Tape", RecordingTape)
        images, labels, state = small_train_setup(seed=33, n=8)
        for b in (1, 8):
            nets.train_step(images[:b], labels[:b], state, lr=0.01)
        assert len(tapes) == 2
        assert len(tapes[0].op_names()) == len(tapes[1].op_names())
        assert tapes[1].op_names().count("cross_entropy") == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_float64_classifier_loss_gradcheck_at_batch_three(self, seed):
        """Train-mode loss of a 3-image stack against finite differences, for
        every learnable array of the fusion block and the head.

        ``psa.bn_cpe.beta`` shifts the positional term per channel, which the
        train-mode ``bn_out`` removes, so its gradient is structurally zero:
        rounding noise on the tape (asserted below 1e-12 here), and for the
        finite differences one rounding step of the loss (1.1e-11), within
        the checker's resolution."""
        cfg = nets.default_cls_config(num_classes=3, token_dim=4)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng([34, seed]), np.float64)
        images, labels = nets.synth_dataset(35 + seed, 3, 3)
        images = images.astype(np.float64)
        checked = {name: arr for name, arr in learnable_arrays(p).items()
                   if not name.startswith("backbone.")}
        assert "pst.psa.bn_cpe.beta" in checked

        def build(lifted):
            tree = map_arrays(p, lambda name, arr, _: lifted.get(name, arr))
            logits = nets.cls_forward_batch(images, tree, cfg, bn_mode="train")
            return ad.mean_all(ad.cross_entropy(logits, labels))

        report = ad.check_gradients(build, checked)
        assert report.passed, report.to_text()
        assert len(report.entries) == len(checked)

        tape = ad.Tape()
        lifted, leaves = ad.lift_tree(tape, p)
        loss = ad.mean_all(ad.cross_entropy(
            nets.cls_forward_batch(images, lifted, cfg, bn_mode="train"), labels))
        table = tape.backward(loss)
        assert np.abs(table[leaves["pst.psa.bn_cpe.beta"].vid]).max() < 1e-12

    def test_listed_logits_on_a_tape_are_per_image(self):
        cfg = nets.default_cls_config(token_dim=16)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(36), np.float32)
        images, _ = nets.synth_dataset(37, 3, 4)
        tape = ad.Tape()
        lifted, _ = ad.lift_tree(tape, p)
        logits = nets.cls_forward_batch(list(images), lifted, cfg, bn_mode="train")
        assert [lg.shape for lg in logits] == [(4,)] * 3
        assert all(isinstance(lg, ad.Var) for lg in logits)


class TestSynthDataset:
    def test_seed_determinism(self):
        im1, lb1 = nets.synth_dataset(3, 32, 4)
        im2, lb2 = nets.synth_dataset(3, 32, 4)
        assert np.array_equal(im1, im2)
        assert np.array_equal(lb1, lb2)
        im3, _ = nets.synth_dataset(4, 32, 4)
        assert not np.array_equal(im1, im3)

    def test_labels_balanced(self):
        _, labels = nets.synth_dataset(0, 64, 4)
        assert np.bincount(labels).tolist() == [16, 16, 16, 16]

    def test_class_mean_quadrant_margin(self):
        images, labels = nets.synth_dataset(1, 128, 4)
        half = 16
        for c in range(4):
            mean_img = images[labels == c].mean(axis=0)[0]
            quads = [mean_img[r * half:(r + 1) * half, q * half:(q + 1) * half].mean()
                     for r in (0, 1) for q in (0, 1)]
            own = quads.pop(c)
            assert own - max(quads) > 0.5

    def test_quadrant_template_separates_classes(self):
        images, labels = nets.synth_dataset(2, 128, 4)
        half = 16
        hits = 0
        for image, label in zip(images, labels):
            quads = [image[0, r * half:(r + 1) * half, q * half:(q + 1) * half].mean()
                     for r in (0, 1) for q in (0, 1)]
            hits += int(np.argmax(quads)) == int(label)
        assert hits / len(labels) > 0.9

    def test_eight_classes_use_second_channel(self):
        images, labels = nets.synth_dataset(5, 16, 8)
        half = 16
        for image, label in zip(images, labels):
            channel = int(label) // 4
            c = int(label) % 4
            row, col = (c % 4) // 2, (c % 4) % 2
            quad = image[channel, row * half:(row + 1) * half, col * half:(col + 1) * half]
            assert quad.mean() > 0.4

    def test_argument_bounds(self):
        with pytest.raises(ValueError):
            nets.synth_dataset(0, 8, 1)
        with pytest.raises(ValueError):
            nets.synth_dataset(0, 8, 9)
        with pytest.raises(ValueError):
            nets.synth_dataset(0, 0, 4)


def small_train_setup(seed=6, num_classes=2, token_dim=16, n=16):
    images, labels = nets.synth_dataset(seed, n, num_classes)
    cfg = nets.default_cls_config(num_classes=num_classes, token_dim=token_dim)
    state = nets.init_train_state(cfg, seed)
    return images, labels, state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_kernel_dtype_is_the_map_dtype_in_library_calls(monkeypatch, dtype):
    """The depthwise conv casts a kernel of another dtype to the map's. No
    call from a training step (forward and input adjoint), a refined
    classifier forward or the detection neck needs that cast."""
    seen = []
    conv = ops.depthwise_conv7x7

    def spy(x, kernel):
        seen.append((x.dtype, kernel.dtype))
        return conv(x, kernel)

    monkeypatch.setattr(ops, "depthwise_conv7x7", spy)
    images, labels = nets.synth_dataset(38, 4, 2)
    images = images.astype(dtype)
    cfg = nets.default_cls_config(num_classes=2, token_dim=16)
    state = nets.init_train_state(cfg, 38, dtype)
    nets.train_step(images, labels, state, lr=0.01)
    refined = nets.default_cls_config(num_classes=2, token_dim=16, fine_enabled=True)
    nets.cls_forward_batch(images, state.params, refined)
    neck_cfg = nets.default_det_neck_config()
    neck = nets.DetNeckParams.create(neck_cfg, np.random.default_rng(39), dtype)
    backbone = nets.BackboneParams.create(np.random.default_rng(40), dtype)
    nets.det_neck_forward(nets.backbone_forward(images[0], backbone), neck, neck_cfg)
    assert len(seen) == 2 + 1 + 3
    assert all(np.result_type(x, k) == x for x, k in seen)


class TestTrainStep:
    def test_zero_learning_rate_freezes_learnables(self):
        images, labels, state = small_train_setup()
        before = {name: arr.copy() for name, arr in learnable_arrays(state.params).items()}
        stats_before = state.params.pst.bn_end.running_mean.copy()
        nets.train_step(images[:8], labels[:8], state, lr=0.0)
        for name, arr in learnable_arrays(state.params).items():
            assert arr.tobytes() == before[name].tobytes(), name
        assert not np.array_equal(state.params.pst.bn_end.running_mean, stats_before)
        assert state.step == 1

    def test_zero_momentum_is_plain_gradient_descent(self):
        images, labels, state = small_train_setup(seed=7)
        reference = nets.init_train_state(state.cfg, 7)
        batch = images[:8]
        batch_labels = labels[:8]

        tape = nets.Tape()
        lifted, leaves = ad.lift_tree(tape, reference.params)
        sink = []
        logits = nets.cls_forward_batch(list(batch), lifted, reference.cfg,
                                        bn_mode="train", stat_sink=sink)
        total = None
        for lg, lb in zip(logits, batch_labels):
            ce = ad.cross_entropy(lg, int(lb))
            total = ce if total is None else ad.add(total, ce)
        table = tape.backward(ad.scalar_affine(total, 1.0 / len(batch)))
        expected = {}
        for name, var in leaves.items():
            arr = var.value.copy()
            expected[name] = arr - (0.05 * table[var.vid]).astype(arr.dtype)

        nets.train_step(batch, batch_labels, state, lr=0.05, momentum=0.0)
        for name, arr in learnable_arrays(state.params).items():
            assert arr.tobytes() == expected[name].tobytes(), name

    def test_loss_decreases_on_a_fixed_batch(self):
        images, labels, state = small_train_setup(seed=8)
        losses = [nets.train_step(images, labels, state, lr=0.05, momentum=0.0)
                  for _ in range(10)]
        assert losses[-1] < losses[0]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 7

    def test_fine_stage_rejected_in_training(self):
        cfg = nets.default_cls_config(num_classes=2, token_dim=16, fine_enabled=True)
        state = nets.init_train_state(cfg, 9)
        images, labels = nets.synth_dataset(9, 4, 2)
        with pytest.raises(ContractError, match="fine attention"):
            nets.train_step(images, labels, state, lr=0.05)

    def test_traced_peak_of_a_step(self):
        """One B=32 step at token width 32 keeps each activation only while
        its Var or a backward rule reads it: 9.8 MiB traced at the peak,
        against 14.4 MiB when the tape kept every recorded value."""
        images, labels, state = small_train_setup(seed=41, num_classes=4, token_dim=32, n=64)
        nets.train_step(images[:32], labels[:32], state, lr=0.05)
        peak = bench.traced_peak_mb(
            lambda: nets.train_step(images[32:], labels[32:], state, lr=0.05))
        assert peak <= 11.0

    @pytest.mark.parametrize("name", ["pst.psa.cpe_kernel", "pst.end_conv"])
    def test_non_finite_parameter_raises_divergence(self, name):
        """A NaN weight of the fusion block fails at the block's output
        check, and the step reports it as a divergence at its step."""
        ops.set_debug_checks(False)
        images, labels, state = small_train_setup(seed=11)
        learnable_arrays(state.params)[name].reshape(-1)[0] = np.nan
        with pytest.raises(DivergenceError) as exc:
            nets.train_step(images[:4], labels[:4], state, lr=0.05)
        assert isinstance(exc.value.__cause__, NumericError)
        assert state.step == 0

    def test_batch_contract(self):
        images, labels, state = small_train_setup(seed=10)
        with pytest.raises(DimensionError):
            nets.train_step(images[:4], labels[:3], state, lr=0.05)
        with pytest.raises(DimensionError):
            nets.train_step(images[:0], labels[:0], state, lr=0.05)


class TestLifecycle:
    def test_fine_toggle_after_coarse_training(self):
        images, labels, state = small_train_setup(seed=11, n=8)
        for _ in range(3):
            nets.train_step(images, labels, state, lr=0.02)
        cfg_off = state.cfg
        cfg_on = nets.ClsConfig(
            pst=nets.PstConfig(
                fine_channels=cfg_off.pst.fine_channels,
                coarse_channels=cfg_off.pst.coarse_channels,
                token_dim=cfg_off.pst.token_dim,
                psa=psa.PsaConfig(token_dim=cfg_off.pst.token_dim, k=8, fine_enabled=True)),
            num_classes=cfg_off.num_classes)
        off = nets.cls_forward(images[0], state.params, cfg_off)
        on = nets.cls_forward(images[0], state.params, cfg_on)
        assert np.all(np.isfinite(on))
        assert not np.array_equal(off, on)

    def test_full_selection_matches_dense_substitute(self, monkeypatch):
        cfg = nets.default_cls_config(token_dim=32, k=16, fine_enabled=True)
        p = nets.ClsNetParams.create(cfg, np.random.default_rng(12), np.float32)
        image = np.random.default_rng(13).standard_normal(nets.IMAGE_SHAPE).astype(np.float32)
        sparse = nets.cls_forward(image, p, cfg)

        calls = []

        def every_token(rows, indices):
            # Dense: the fine stage gathers every fine token, in grid order.
            calls.append(indices)
            return rows

        fine_stage = psa._fine_attention
        stages = []

        def counted(*args):
            stages.append(args)
            return fine_stage(*args)

        monkeypatch.setattr(ad, "gather_rows", every_token)
        monkeypatch.setattr(psa, "_fine_attention", counted)
        dense = nets.cls_forward(image, p, cfg)
        assert len(calls) == 1 and len(stages) == 1
        assert np.allclose(sparse, dense, atol=1e-4)


class TestTrainToy:
    def test_short_run_learns_two_classes(self):
        result = nets.train_toy(seed=3, n=64, num_classes=2, steps=30,
                                batch_size=16, token_dim=16)
        assert result.final_accuracy >= 0.9
        assert len(result.losses) == 30
        assert result.losses[-1] < result.losses[0]
        assert result.state.step == 30

    @needs_control
    def test_training_bytes_equal_the_recorded_run(self):
        """The 20 losses, the parameters and running statistics after them,
        and the logits of one evaluation slice, against digests taken before
        the batch-norm, row-max and depthwise-gradient kernels took their
        long-loop forms. Every op has its own byte oracle; this pins how they
        compose over a whole training run."""
        if _platform() != DIGEST_PLATFORM:
            pytest.skip("digests were recorded with another numpy, BLAS build or CPU")
        result = nets.train_toy(seed=1, steps=20)
        logits = nets.cls_forward_batch(result.images[:nets.EVAL_SLICE], result.state.params,
                                        result.state.cfg)
        arrays = named_arrays(result.state.params)
        got = (_digest(np.array(result.losses)), _digest(*arrays.values()), _digest(logits))
        assert len(arrays) == 47
        assert got == TRAIN_DIGESTS


# SHA-256 prefixes of train_toy(seed=1, steps=20)'s losses, of its parameters
# and buffers in tree order, and of the infer-mode logits of its first 64
# images, on the platform of tests/test_threads.py's BLOCK_DIGESTS. The
# logits digest was taken again when infer-mode normalizations were folded
# into the maps before them (tests/test_fold.py bounds the folded logits
# against the unfolded ones); training does not fold, and the losses and
# parameters kept their digests.
TRAIN_DIGESTS = ("3b1406339e87df85c39550e59ca97ed9", "e38de1e3c87914e15db5b42f05bee3ee",
                 "36273b2cf2008f4a9af61e69c19ed286")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:32]
