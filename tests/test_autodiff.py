"""Tape mechanics, per-op gradient checks, and the checker's own guarantees."""

import numpy as np
import pytest

from pst import autodiff as ad
from pst.errors import CapabilityError, ContractError, NumericError


def _probe_loss(out, probe):
    """Scalar loss sum(out * probe) so every output coordinate gets weight."""
    return ad.sum_all(ad.mul(out, probe))


def _case_add(rng):
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
    r = rng.standard_normal((3, 4))
    return params, lambda p: _probe_loss(ad.add(p["a"], p["b"]), r)


def _case_mul(rng):
    params = {"a": rng.standard_normal((2, 5)), "b": rng.standard_normal((2, 5))}
    r = rng.standard_normal((2, 5))
    return params, lambda p: _probe_loss(ad.mul(p["a"], p["b"]), r)


def _case_scalar_affine(rng):
    params = {"x": rng.standard_normal((3, 3))}
    r = rng.standard_normal((3, 3))
    return params, lambda p: _probe_loss(ad.scalar_affine(p["x"], 1.7, shift=-0.4), r)


def _case_matmul(rng):
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
    r = rng.standard_normal((3, 2))
    return params, lambda p: _probe_loss(ad.matmul(p["a"], p["b"]), r)


def _case_transpose(rng):
    params = {"x": rng.standard_normal((2, 5))}
    r = rng.standard_normal((5, 2))
    return params, lambda p: _probe_loss(ad.transpose(p["x"]), r)


def _case_softmax_rows(rng):
    params = {"x": rng.standard_normal((4, 5))}
    r = rng.standard_normal((4, 5))
    return params, lambda p: _probe_loss(ad.softmax_rows(p["x"]), r)


def _case_conv1x1(rng):
    params = {"x": rng.standard_normal((3, 4, 4)), "w": rng.standard_normal((2, 3))}
    r = rng.standard_normal((2, 4, 4))
    return params, lambda p: _probe_loss(ad.conv1x1(p["x"], p["w"]), r)


def _case_depthwise(rng):
    params = {"x": rng.standard_normal((1, 4, 4)), "k": rng.standard_normal((1, 7, 7))}
    r = rng.standard_normal((1, 4, 4))
    return params, lambda p: _probe_loss(ad.depthwise_conv7x7(p["x"], p["k"]), r)


def _bn_case(mode, channel_axis):
    def make(rng):
        shape = (3, 4, 4) if channel_axis == 0 else (8, 3)
        params = {
            "x": rng.standard_normal(shape),
            "gamma": 1.0 + 0.1 * rng.standard_normal(3),
            "beta": rng.standard_normal(3),
        }
        mean = rng.standard_normal(3) * 0.2
        var = 1.0 + 0.1 * rng.standard_normal(3)
        r = rng.standard_normal(shape)

        def build(p):
            y, _, _ = ad.batch_norm(p["x"], p["gamma"], p["beta"], mean, var,
                                    mode=mode, channel_axis=channel_axis)
            return _probe_loss(y, r)

        return params, build

    return make


def _case_upsample(rng):
    params = {"x": rng.standard_normal((2, 2, 3))}
    r = rng.standard_normal((2, 4, 6))
    return params, lambda p: _probe_loss(ad.upsample_nearest2x(p["x"]), r)


def _case_downsample(rng):
    params = {"x": rng.standard_normal((2, 4, 6))}
    r = rng.standard_normal((2, 2, 3))
    return params, lambda p: _probe_loss(ad.downsample_avg2x(p["x"]), r)


def _case_concat_channels(rng):
    params = {"a": rng.standard_normal((2, 3, 3)), "b": rng.standard_normal((1, 3, 3))}
    r = rng.standard_normal((3, 3, 3))
    return params, lambda p: _probe_loss(ad.concat_channels(p["a"], p["b"]), r)


def _case_map_to_tokens(rng):
    params = {"x": rng.standard_normal((2, 3, 4))}
    r = rng.standard_normal((12, 2))
    return params, lambda p: _probe_loss(ad.map_to_tokens(p["x"]), r)


def _case_tokens_to_map(rng):
    params = {"t": rng.standard_normal((12, 2))}
    r = rng.standard_normal((2, 3, 4))
    return params, lambda p: _probe_loss(ad.tokens_to_map(p["t"], 3, 4), r)


def _case_gather_rows(rng):
    params = {"t": rng.standard_normal((5, 3))}
    idx = np.array([0, 2, 2, 4, 1])
    r = rng.standard_normal((5, 3))
    return params, lambda p: _probe_loss(ad.gather_rows(p["t"], idx), r)


def _case_col_slice(rng):
    params = {"t": rng.standard_normal((3, 6))}
    r = rng.standard_normal((3, 2))
    return params, lambda p: _probe_loss(ad.col_slice(p["t"], 1, 3), r)


def _case_concat_cols(rng):
    params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 4))}
    r = rng.standard_normal((3, 6))
    return params, lambda p: _probe_loss(ad.concat_cols([p["a"], p["b"]]), r)


def _case_row_slice(rng):
    params = {"t": rng.standard_normal((6, 3))}
    r = rng.standard_normal((2, 3))
    return params, lambda p: _probe_loss(ad.row_slice(p["t"], 2, 4), r)


def _case_concat_rows(rng):
    params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((4, 3))}
    r = rng.standard_normal((6, 3))
    return params, lambda p: _probe_loss(ad.concat_rows([p["a"], p["b"]]), r)


def _case_add_bias(rng):
    params = {"x": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
    r = rng.standard_normal((4, 3))
    return params, lambda p: _probe_loss(ad.add_bias(p["x"], p["b"]), r)


def _case_linear(rng):
    params = {"v": rng.standard_normal(4),
              "w": rng.standard_normal((4, 3)),
              "b": rng.standard_normal(3)}
    r = rng.standard_normal(3)
    return params, lambda p: _probe_loss(ad.linear(p["v"], p["w"], p["b"]), r)


def _case_silu(rng):
    params = {"x": rng.standard_normal((3, 4))}
    r = rng.standard_normal((3, 4))
    return params, lambda p: _probe_loss(ad.silu(p["x"]), r)


def _case_sigmoid(rng):
    params = {"x": rng.standard_normal((3, 4))}
    r = rng.standard_normal((3, 4))
    return params, lambda p: _probe_loss(ad.sigmoid(p["x"]), r)


def _case_mean_spatial(rng):
    params = {"x": rng.standard_normal((3, 4, 4))}
    r = rng.standard_normal(3)
    return params, lambda p: _probe_loss(ad.mean_spatial(p["x"]), r)


def _case_sum_all(rng):
    params = {"x": rng.standard_normal((3, 4))}
    return params, lambda p: ad.sum_all(p["x"])


def _case_mean_all(rng):
    params = {"x": rng.standard_normal((3, 4))}
    return params, lambda p: ad.mean_all(p["x"])


def _case_cross_entropy(rng):
    params = {"logits": rng.standard_normal(5)}
    return params, lambda p: ad.cross_entropy(p["logits"], 3)


def _attention_case(heads):
    def make(rng):
        params = {"q": rng.standard_normal((5, 4)), "k": rng.standard_normal((3, 4)),
                  "v": rng.standard_normal((3, 4))}
        r = rng.standard_normal((5, 4))

        def build(p):
            out, _ = ad.attention(p["q"], p["k"], p["v"], heads)
            return _probe_loss(out, r)

        return params, build

    return make


OP_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "scalar_affine": _case_scalar_affine,
    "matmul": _case_matmul,
    "transpose": _case_transpose,
    "softmax_rows": _case_softmax_rows,
    "attention_heads1": _attention_case(1),
    "attention_heads2": _attention_case(2),
    "conv1x1": _case_conv1x1,
    "depthwise_conv7x7": _case_depthwise,
    "batch_norm_train_map": _bn_case("train", 0),
    "batch_norm_infer_map": _bn_case("infer", 0),
    "batch_norm_train_tokens": _bn_case("train", 1),
    "batch_norm_infer_tokens": _bn_case("infer", 1),
    "upsample_nearest2x": _case_upsample,
    "downsample_avg2x": _case_downsample,
    "concat_channels": _case_concat_channels,
    "map_to_tokens": _case_map_to_tokens,
    "tokens_to_map": _case_tokens_to_map,
    "gather_rows": _case_gather_rows,
    "col_slice": _case_col_slice,
    "concat_cols": _case_concat_cols,
    "row_slice": _case_row_slice,
    "concat_rows": _case_concat_rows,
    "add_bias": _case_add_bias,
    "linear": _case_linear,
    "silu": _case_silu,
    "sigmoid": _case_sigmoid,
    "mean_spatial": _case_mean_spatial,
    "sum_all": _case_sum_all,
    "mean_all": _case_mean_all,
    "cross_entropy": _case_cross_entropy,
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_gradcheck_per_op(op):
    for seed in range(10):
        params, build = OP_CASES[op](np.random.default_rng([seed, hash(op) % 2**32]))
        report = ad.check_gradients(build, params)
        assert report.passed, f"{op} seed {seed}:\n{report.to_text()}"
        assert {e.name for e in report.entries} == set(params)


def test_every_recordable_op_has_a_gradcheck_case():
    """Keep the table above in sync with the dispatch table."""
    covered = set(OP_CASES) | {"batch_norm", "mean", "attention"}
    assert set(ad._RECORDABLE) <= covered


class TestHandGradients:
    def test_self_add_doubles(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, -2.0]), requires_grad=True)
        table = tape.backward(ad.sum_all(ad.add(x, x)))
        assert np.array_equal(table[x.vid], [2.0, 2.0])

    def test_matmul_left_gradient_formula(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        g = rng.standard_normal((3, 2))
        tape = ad.Tape()
        av = tape.leaf(a, requires_grad=True)
        table = tape.backward(ad.sum_all(ad.mul(ad.matmul(av, b), g)))
        assert np.allclose(table[av.vid], g @ b.T, atol=1e-12)

    def test_sum_all_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.zeros((2, 3)), requires_grad=True)
        table = tape.backward(ad.sum_all(x))
        assert np.array_equal(table[x.vid], np.ones((2, 3)))

    def test_half_squared_norm_gradient_is_x(self):
        x0 = np.random.default_rng(22).standard_normal(6)
        tape = ad.Tape()
        x = tape.leaf(x0, requires_grad=True)
        loss = ad.scalar_affine(ad.sum_all(ad.mul(x, x)), 0.5)
        table = tape.backward(loss)
        assert np.allclose(table[x.vid], x0, atol=1e-12)

    def test_fan_out_accumulates(self):
        x0 = np.array([0.5, -1.5])
        tape = ad.Tape()
        x = tape.leaf(x0, requires_grad=True)
        table = tape.backward(ad.sum_all(ad.add(ad.mul(x, x), x)))
        assert np.allclose(table[x.vid], 2.0 * x0 + 1.0, atol=1e-12)


class TestTapeContract:
    def test_single_use(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(2), requires_grad=True)
        loss = ad.sum_all(x)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)

    def test_non_scalar_loss(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            tape.backward(ad.mul(x, x))

    def test_foreign_loss(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = t1.leaf(np.ones(2), requires_grad=True)
        loss = ad.sum_all(x)
        with pytest.raises(ContractError):
            t2.backward(loss)

    def test_mixed_tape_operands(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ContractError):
            ad.add(a, b)

    def test_nodes_visited_counts_every_node(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        orphan = tape.leaf(np.zeros(2), requires_grad=True)
        ad.mul(orphan, orphan)
        tape.backward(ad.sum_all(ad.silu(x)))
        assert tape.nodes_visited == len(tape.nodes)

    def test_unreachable_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        orphan = tape.leaf(np.full(4, 2.0), requires_grad=True)
        table = tape.backward(ad.sum_all(x))
        assert np.array_equal(table[orphan.vid], np.zeros(4))


class TestRecordDispatch:
    def test_unknown_op(self):
        tape = ad.Tape()
        with pytest.raises(CapabilityError, match="nosuch"):
            tape.record("nosuch", np.ones(2))

    def test_known_op_eager(self):
        tape = ad.Tape()
        out = tape.record("matmul", np.eye(2), np.ones((2, 1)))
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [[1.0], [1.0]])

    def test_known_op_taped(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        out = tape.record("mean", x)
        assert isinstance(out, ad.Var)
        assert float(out.value) == 1.0


class TestFiniteDiff:
    def test_square_at_three(self):
        grad = ad.finite_diff_grad(lambda t: float(t[0]) ** 2, np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-8

    def test_sine_at_zero(self):
        grad = ad.finite_diff_grad(lambda t: float(np.sin(t[0])), np.array([0.0]))
        assert abs(grad[0] - 1.0) < 1e-8

    def test_non_finite_loss(self):
        with pytest.raises(NumericError):
            ad.finite_diff_grad(lambda t: float("nan"), np.array([1.0]))


class TestCheckerGuarantees:
    def test_relative_error_detects_sign_flip(self):
        g = np.array([0.5, -1.2, 3.0])
        assert ad.relative_error(g, -g) == pytest.approx(2.0)

    def test_float32_leaf_rejected_by_name(self):
        params = {"w_bad": np.ones(3, dtype=np.float32)}
        with pytest.raises(ContractError, match="w_bad"):
            ad.check_gradients(lambda p: ad.sum_all(p["w_bad"]), params)

    def test_untouched_parameter_still_reported(self):
        params = {"used": np.ones(2), "idle": np.ones(3)}
        report = ad.check_gradients(lambda p: ad.sum_all(p["used"]), params)
        assert {e.name for e in report.entries} == {"used", "idle"}
        assert report.passed

    def test_report_text_pass_and_fail(self):
        good = ad.GradReport([ad.GradCheckEntry("w", 1e-9)])
        assert "overall: pass" in good.to_text()
        bad = ad.GradReport([ad.GradCheckEntry("w", 1e-9), ad.GradCheckEntry("v", 0.5)])
        assert "overall: FAIL" in bad.to_text()
        assert [e.name for e in bad.failures()] == ["v"]
