"""Fusion block: forward contract, parameter accounting, scaling rules, memory."""

import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from pst import autodiff as ad
from pst import pst_block as blk
from pst.errors import AccountingError, ContractError, DimensionError, NumericError
from pst.params import named_arrays
from pst import psa
from pst import tensor_ops as ops
from pst.psa import PsaConfig


def small_cfg(**psa_kwargs):
    d = psa_kwargs.pop("token_dim", 8)
    return blk.PstConfig(fine_channels=3, coarse_channels=5, token_dim=d,
                         psa=PsaConfig(token_dim=d, **psa_kwargs))


def make_inputs(rng, cfg, side=8, dtype=np.float64):
    x = rng.standard_normal((cfg.fine_channels, side, side)).astype(dtype)
    u = rng.standard_normal((cfg.coarse_channels, side // 2, side // 2)).astype(dtype)
    return x, u


class TestForwardContract:
    def test_output_shape_doubles_token_dim(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        out = blk.pst_forward(x, u, p, cfg)
        assert out.shape == (16, 8, 8)

    def test_channel_checks(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        with pytest.raises(DimensionError):
            blk.pst_forward(np.zeros((4, 8, 8)), np.zeros((5, 4, 4)), p, cfg)
        with pytest.raises(DimensionError):
            blk.pst_forward(np.zeros((3, 8, 8)), np.zeros((6, 4, 4)), p, cfg)

    def test_resolution_adjacency_check(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        with pytest.raises(DimensionError, match="2x refinement"):
            blk.pst_forward(np.zeros((3, 8, 8)), np.zeros((5, 8, 8)), p, cfg)

    def test_stacking_rejected_inside_block(self):
        cfg = small_cfg(stack_depth=2)
        p = blk.PstParams.create(cfg, np.random.default_rng(3), np.float64)
        with pytest.raises(ContractError, match="single attention stage"):
            blk.pst_forward(np.zeros((3, 8, 8)), np.zeros((5, 4, 4)), p, cfg)

    def test_zeroed_parameters_give_zero_output(self):
        rng = np.random.default_rng(4)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        for arr in named_arrays(p, include_buffers=False).values():
            arr[...] = 0.0
        x, u = make_inputs(rng, cfg)
        out = blk.pst_forward(x, u, p, cfg)
        assert np.array_equal(out, np.zeros((16, 8, 8)))


class TestNonFiniteInputs:
    """One NaN pixel must fail loudly instead of turning refinement off."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_entry_points_raise(self, bad):
        rng = np.random.default_rng(70)
        cfg = small_cfg(k=2, fine_enabled=True)
        p = blk.PstParams.create(cfg, rng, np.float32)
        x, u = make_inputs(rng, cfg, dtype=np.float32)
        x_bad = x.copy()
        x_bad[0, 5, 7] = bad
        with pytest.raises(NumericError):
            blk.pst_forward(x_bad, u, p, cfg)
        with pytest.raises(NumericError):
            blk.pst_forward(np.stack([x, x_bad]), np.stack([u, u]), p, cfg)
        xs = rng.standard_normal((8, 8, 8)).astype(np.float32)
        us = rng.standard_normal((8, 4, 4)).astype(np.float32)
        us_bad = us.copy()
        us_bad[3, 1, 2] = bad
        with pytest.raises(NumericError):
            psa.psa_forward(xs, us_bad, p.psa, cfg.psa)
        with pytest.raises(NumericError):
            psa.psa_forward(np.stack([xs, xs]), np.stack([us, us_bad]), p.psa, cfg.psa)


class TestComposition:
    @pytest.mark.parametrize("fine_enabled", [False, True])
    def test_matches_straight_line_reference(self, fine_enabled):
        rng = np.random.default_rng(5)
        cfg = blk.PstConfig(
            fine_channels=8, coarse_channels=16, token_dim=32,
            psa=PsaConfig(token_dim=32, k=8, fine_enabled=fine_enabled))
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        out = blk.pst_forward(x, u, p, cfg)
        ref = oracles.pst_reference(x, u, p, cfg)
        assert np.allclose(out, ref, atol=1e-5)

    def test_gating_composition(self):
        rng = np.random.default_rng(6)
        cfg = blk.PstConfig(
            fine_channels=4, coarse_channels=6, token_dim=8,
            psa=PsaConfig(token_dim=8, heads=2, k=2, fine_enabled=True,
                          fusion_mode="self_gating"))
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        assert np.allclose(blk.pst_forward(x, u, p, cfg),
                           oracles.pst_reference(x, u, p, cfg), atol=1e-5)


class TestTranslationEquivariance:
    def test_interior_support_translates_identically(self):
        rng = np.random.default_rng(7)
        cfg = blk.PstConfig(fine_channels=3, coarse_channels=5, token_dim=8,
                            psa=PsaConfig(token_dim=8, heads=2))
        p = blk.PstParams.create(cfg, rng, np.float64)
        x1 = np.zeros((3, 20, 20))
        u1 = np.zeros((5, 10, 10))
        x1[:, 8:12, 8:12] = rng.standard_normal((3, 4, 4))
        u1[:, 4:6, 4:6] = rng.standard_normal((5, 2, 2))
        x2 = np.roll(x1, (2, 2), axis=(1, 2))
        u2 = np.roll(u1, (1, 1), axis=(1, 2))
        out1 = blk.pst_forward(x1, u1, p, cfg)
        out2 = blk.pst_forward(x2, u2, p, cfg)
        assert np.allclose(out2[:, 2:, 2:], out1[:, :-2, :-2], atol=1e-10)


def stacked(pairs):
    return np.stack([x for x, _ in pairs]), np.stack([u for _, u in pairs])


class TestBatching:
    def test_single_element_batch_is_exact(self):
        rng = np.random.default_rng(8)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        assert np.array_equal(blk.pst_forward(x[None], u[None], p, cfg)[0],
                              blk.pst_forward(x, u, p, cfg))

    def test_infer_batch_matches_per_sample(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        pairs = [make_inputs(rng, cfg) for _ in range(3)]
        outs = blk.pst_forward(*stacked(pairs), p, cfg)
        for (x, u), out in zip(pairs, outs):
            assert np.array_equal(out, blk.pst_forward(x, u, p, cfg))

    def test_train_batch_touches_five_sites(self):
        rng = np.random.default_rng(10)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        pairs = [make_inputs(rng, cfg) for _ in range(2)]
        sink = []
        blk.pst_forward(*stacked(pairs), p, cfg, bn_mode="train", stat_sink=sink)
        assert len(sink) == 5
        sites = {id(old_mean) for old_mean, _, _, _ in sink}
        assert sites == {id(p.bn_x.running_mean), id(p.bn_u.running_mean),
                         id(p.psa.bn_cpe.running_mean), id(p.psa.bn_out.running_mean),
                         id(p.bn_end.running_mean)}

    def test_batch_diagnostics_reach_the_attention_block(self):
        rng = np.random.default_rng(11)
        cfg = small_cfg(k=2, fine_enabled=True)
        p = blk.PstParams.create(cfg, rng, np.float64)
        pairs = [make_inputs(rng, cfg) for _ in range(2)]
        diags = [{}, {}]
        blk.pst_forward(*stacked(pairs), p, cfg, diagnostics=diags)
        for (x, u), diag in zip(pairs, diags):
            single = {}
            blk.pst_forward(x, u, p, cfg, diagnostics=single)
            assert np.array_equal(diag["key_scores"], single["key_scores"])

    @pytest.mark.parametrize("batched", [False, True])
    def test_block_calls_the_attention_body_by_its_module_name(self, monkeypatch, batched):
        # Per-layer tracing replaces ``pst_block.psa_forward``; a call that
        # goes round that name would leave the attention layer's span empty.
        rng = np.random.default_rng(14)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        if batched:
            x, u = np.stack([x, x]), np.stack([u, u])
        calls = []
        body = blk.psa_forward

        def counted(*args, **kwargs):
            calls.append(1)
            return body(*args, **kwargs)

        monkeypatch.setattr(blk, "psa_forward", counted)
        blk.pst_forward(x, u, p, cfg)
        assert len(calls) == 1


def block_scale_case(n, dtype=np.float32):
    """The block of the block-scale benchmark: 32 fine and 64 coarse raw
    channels, token width 64 (two heads), k=8, refinement on, over ``n``
    fine tokens."""
    cfg = blk.PstConfig(fine_channels=32, coarse_channels=64, token_dim=64,
                        psa=PsaConfig(token_dim=64, k=8, fine_enabled=True))
    rng = np.random.default_rng([1, n])
    p = blk.PstParams.create(cfg, rng, dtype)
    side = int(round(n ** 0.5))
    x = rng.standard_normal((32, side, side)).astype(np.float32)
    u = rng.standard_normal((64, side // 2, side // 2)).astype(np.float32)
    return x, u, p, cfg


class TestMemory:
    # Traced peak of one 4096-token call, 8.64 to 8.72 MiB when measured, plus
    # 5%. A block holding each of its intermediates to the end of the call,
    # with an unchunked SiLU, peaked at 9.97 MiB.
    PEAK_4096 = int(1.05 * 8.72 * 2**20)

    def test_traced_peak_of_one_4096_token_call(self):
        x, u, p, cfg = block_scale_case(4096)
        ops.set_debug_checks(False)  # its finiteness masks are temporaries of their own
        blk.pst_forward(x, u, p, cfg)
        tracemalloc.start()
        try:
            blk.pst_forward(x, u, p, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_4096

    def test_normalized_fine_map_is_freed_once_its_tokens_exist(self, monkeypatch):
        # The block passes its normalized maps to the attention body as
        # temporaries, which the body drops once their tokens exist.
        rng = np.random.default_rng(13)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        maps, alive = [], []
        to_tokens, project = ad.map_to_tokens, psa.project_qkv

        def record(m):
            maps.append(weakref.ref(m))
            return to_tokens(m)

        def check(x_tokens, u_tokens, params):
            alive.extend(ref() is not None for ref in maps)
            return project(x_tokens, u_tokens, params)

        monkeypatch.setattr(ad, "map_to_tokens", record)
        monkeypatch.setattr(psa, "project_qkv", check)
        blk.pst_forward(x, u, p, cfg)
        # The coarse map is still the body's own local while it projects.
        assert alive == [False, True]

    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion_mode", ["sum", "self_gating"])
    @pytest.mark.parametrize("diagnose", [False, True])
    def test_infer_call_leaves_inputs_and_parameters_unchanged(self, param_dtype, fusion_mode,
                                                              diagnose):
        rng = np.random.default_rng(12)
        cfg = small_cfg(k=3, fine_enabled=True, fusion_mode=fusion_mode)
        p = blk.PstParams.create(cfg, rng, param_dtype)
        pairs = [make_inputs(rng, cfg, dtype=np.float32) for _ in range(2)]
        inputs = list(stacked(pairs))
        before = [a.copy() for a in inputs] + [a.copy() for a in named_arrays(p).values()]
        diags = [{}, {}] if diagnose else None
        outs = blk.pst_forward(*inputs, p, cfg, diagnostics=diags)
        after = inputs + list(named_arrays(p).values())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
        for (x, u), out, diag in zip(pairs, outs, diags or [None, None]):
            single = {} if diagnose else None
            assert np.array_equal(blk.pst_forward(x, u, p, cfg, diagnostics=single), out)
            if diagnose:
                # The weights and scores handed out stay those of the call.
                assert np.allclose(diag["attention"].mean(axis=(0, 1)), diag["key_scores"],
                                   rtol=1e-5, atol=0)
                assert np.array_equal(diag["attention"], single["attention"])


class TestGradients:
    def test_full_block_infer_gradcheck(self):
        rng = np.random.default_rng(11)
        cfg = blk.PstConfig(fine_channels=2, coarse_channels=3, token_dim=4,
                            psa=PsaConfig(token_dim=4))
        p = blk.PstParams.create(cfg, rng, np.float64)
        x = rng.standard_normal((2, 4, 4))
        u = rng.standard_normal((3, 2, 2))
        probe = rng.standard_normal((8, 4, 4))

        def build(lifted):
            out = blk.pst_forward(x, u, lifted, cfg)
            return ad.sum_all(ad.mul(out, probe))

        report = ad.check_gradients(build, p)
        assert report.passed, report.to_text()

    def test_train_mode_positional_shift_has_null_gradient(self):
        """A constant channel shift after the positional term is absorbed by
        the output normalization's train-mode mean subtraction."""
        rng = np.random.default_rng(12)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        probe = rng.standard_normal((16, 8, 8))
        tape = ad.Tape()
        lifted, leaves = ad.lift_tree(tape, p)
        out = blk.pst_forward(x, u, lifted, cfg, bn_mode="train")
        table = tape.backward(ad.sum_all(ad.mul(out, probe)))
        analytic = table[leaves["psa.bn_cpe.beta"].vid]
        assert np.max(np.abs(analytic)) < 1e-12

        def f(beta):
            saved = p.psa.bn_cpe.beta.copy()
            p.psa.bn_cpe.beta[...] = beta
            try:
                return float((blk.pst_forward(x, u, p, cfg, bn_mode="train") * probe).sum())
            finally:
                p.psa.bn_cpe.beta[...] = saved

        numeric = ad.finite_diff_grad(f, p.psa.bn_cpe.beta)
        assert np.max(np.abs(numeric)) < 1e-6


class TestParamAccounting:
    def test_reference_configuration(self):
        cfg = blk.PstConfig(fine_channels=8, coarse_channels=16, token_dim=32)
        ledger = blk.param_count(cfg)
        assert ledger.total == 13472
        assert ledger.closed_form == 13472
        assert "total 13472 (closed form 13472)" in ledger.to_text()

    def test_uniform_channel_algebra(self):
        for c in (1, 4, 16, 33):
            assert blk.closed_form_param_count(c, c, c) == 14 * c * c + 61 * c

    def test_quadratic_term_scales_fourfold_when_width_doubles(self):
        for c, cu, d in ((8, 16, 32), (3, 5, 7), (20, 40, 64)):
            linear = (cu + 3 * c + 61)
            quad = blk.closed_form_param_count(c, cu, d) - linear * d
            quad2 = blk.closed_form_param_count(c, cu, 2 * d) - linear * 2 * d
            assert quad2 == 4 * quad

    def test_fifty_random_ledgers(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            c = int(rng.integers(1, 65))
            cu = int(rng.integers(1, 65))
            d = int(rng.integers(1, 33)) * int(rng.choice([1, 32]))
            cfg = blk.PstConfig(fine_channels=c, coarse_channels=cu, token_dim=d)
            ledger = blk.param_count(cfg)
            assert ledger.total == blk.closed_form_param_count(c, cu, d)

    def test_ledger_names_the_actual_arrays(self):
        """The ledger names exactly the learnable arrays of a bundle, gate
        parameters aside."""
        for cfg, seed in ((small_cfg(), 14), (small_cfg(fusion_mode="self_gating"), 15)):
            p = blk.PstParams.create(cfg, np.random.default_rng(seed), np.float64)
            ledger = {row.name: row.shape for row in blk.param_count(cfg).rows}
            actual = {name: arr.shape
                      for name, arr in named_arrays(p, include_buffers=False).items()
                      if not name.startswith("psa.gate_")}
            assert ledger == actual

    def test_mismatch_raises_accounting_error(self, monkeypatch):
        monkeypatch.setattr(blk, "closed_form_param_count", lambda c, cu, d: 1)
        with pytest.raises(AccountingError, match="disagrees"):
            blk.param_count(small_cfg())

    def test_wider_mlp_skips_the_closed_form_audit(self):
        cfg = blk.PstConfig(fine_channels=8, coarse_channels=16, token_dim=32,
                            mlp_extension=4)
        ledger = blk.param_count(cfg)
        assert ledger.total != ledger.closed_form
        assert ledger.total == 13472 + 2 * 2 * 32 * 32


class TestScaleConfig:
    def test_size_ladder_and_heads(self):
        n = blk.scale_config("N", 64, 8, 16)
        s = blk.scale_config("S", 64, 8, 16)
        m = blk.scale_config("M", 64, 8, 16)
        assert (n.token_dim, s.token_dim, m.token_dim) == (64, 128, 256)
        assert (n.psa.heads, s.psa.heads, m.psa.heads) == (2, 4, 8)

    def test_width_saturates(self):
        assert blk.scale_config("M", 1024, 8, 16).token_dim == 2048

    def test_narrow_base_keeps_one_head(self):
        assert blk.scale_config("N", 32, 8, 16).psa.heads == 1

    def test_unknown_size(self):
        with pytest.raises(ValueError):
            blk.scale_config("L", 64, 8, 16)
