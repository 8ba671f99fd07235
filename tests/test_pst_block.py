"""Fusion block: forward contract, parameter accounting, scaling rules."""

import numpy as np
import pytest

import oracles
from pst import autodiff as ad
from pst import pst_block as blk
from pst.errors import AccountingError, ContractError, DimensionError, NumericError
from pst.params import named_arrays
from pst import psa
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
            blk.pst_forward_batch([x, x_bad], [u, u], p, cfg)
        xs = rng.standard_normal((8, 8, 8)).astype(np.float32)
        us = rng.standard_normal((8, 4, 4)).astype(np.float32)
        us_bad = us.copy()
        us_bad[3, 1, 2] = bad
        with pytest.raises(NumericError):
            psa.psa_forward(xs, us_bad, p.psa, cfg.psa)
        with pytest.raises(NumericError):
            psa.psa_forward_batch([xs, xs], [us, us_bad], p.psa, cfg.psa)


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


class TestBatching:
    def test_single_element_batch_is_exact(self):
        rng = np.random.default_rng(8)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        x, u = make_inputs(rng, cfg)
        assert np.array_equal(blk.pst_forward_batch([x], [u], p, cfg)[0],
                              blk.pst_forward(x, u, p, cfg))

    def test_infer_batch_matches_per_sample(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        pairs = [make_inputs(rng, cfg) for _ in range(3)]
        outs = blk.pst_forward_batch([x for x, _ in pairs], [u for _, u in pairs], p, cfg)
        for (x, u), out in zip(pairs, outs):
            assert np.array_equal(out, blk.pst_forward(x, u, p, cfg))

    def test_train_batch_touches_five_sites(self):
        rng = np.random.default_rng(10)
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, rng, np.float64)
        pairs = [make_inputs(rng, cfg) for _ in range(2)]
        sink = []
        blk.pst_forward_batch([x for x, _ in pairs], [u for _, u in pairs], p, cfg,
                              bn_mode="train", stat_sink=sink)
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
        blk.pst_forward_batch([x for x, _ in pairs], [u for _, u in pairs], p, cfg,
                              diagnostics=diags)
        for (x, u), diag in zip(pairs, diags):
            single = {}
            blk.pst_forward(x, u, p, cfg, diagnostics=single)
            assert np.array_equal(diag["key_scores"], single["key_scores"])

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
        cfg = small_cfg()
        p = blk.PstParams.create(cfg, np.random.default_rng(14), np.float64)
        assert blk.ledger_matches_params(cfg, p)
        gate_cfg = small_cfg(fusion_mode="self_gating")
        gate_p = blk.PstParams.create(gate_cfg, np.random.default_rng(15), np.float64)
        assert blk.ledger_matches_params(gate_cfg, gate_p)

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
