"""Primitive ops against hand values, loop oracles, and stated invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pst import tensor_ops as ops
from pst.errors import (
    DimensionError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)


class TestMatmul:
    def test_identity(self):
        b = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(ops.matmul(np.eye(3), b), b)

    def test_hand_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(ops.matmul(a, b), [[3.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.allclose(ops.matmul(a, b), oracles.matmul_loops(a, b), atol=1e-6)

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ops.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            ops.matmul(np.zeros(3), np.zeros((3, 2)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ops.softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0)

    def test_large_magnitude_is_stable(self):
        out = ops.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_against_direct_formula(self):
        x = np.random.default_rng(2).standard_normal((4, 6))
        assert np.allclose(ops.softmax_rows(x), oracles.softmax_direct(x), atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_rows_sum_to_one_at_magnitude_1e3(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1e3, 1e3, size=(3, 5))
        sums = ops.softmax_rows(x).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            ops.softmax_rows(np.zeros(4))


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_two_branch_formula(self, dtype):
        big = np.finfo(dtype).max
        special = [0.0, -0.0, big, -big, 1e3, -1e3, 80.0, -80.0, 1e-30, -1e-30,
                   np.inf, -np.inf, np.nan, -np.nan]
        noise = np.random.default_rng(0).standard_normal(4096) * 30
        x = np.concatenate([special, noise]).astype(dtype)
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        ops.set_debug_checks(False)  # NaN inputs are part of the comparison
        got = ops.sigmoid(x)
        assert got.dtype == x.dtype
        assert got.tobytes() == expected.tobytes()


class TestConv1x1:
    def test_identity_weight(self):
        x = np.random.default_rng(3).standard_normal((4, 3, 5))
        assert np.array_equal(ops.conv1x1(x, np.eye(4)), x)

    def test_hand_sum(self):
        x = np.full((2, 3, 3), 3.0)
        out = ops.conv1x1(x, np.array([[1.0, 1.0]]))
        assert out.shape == (1, 3, 3)
        assert np.allclose(out, 6.0)

    def test_100_trials_against_pixel_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c_in = int(rng.integers(1, 33))
            c_out = int(rng.integers(1, 33))
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            x = rng.standard_normal((c_in, h, w))
            wt = rng.standard_normal((c_out, c_in))
            assert np.allclose(ops.conv1x1(x, wt), oracles.conv1x1_pixels(x, wt), atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.conv1x1(np.zeros((3, 2, 2)), np.zeros((4, 2)))


class TestDepthwiseConv7x7:
    @staticmethod
    def delta(c):
        k = np.zeros((c, 7, 7))
        k[:, 3, 3] = 1.0
        return k

    def test_delta_kernel_is_identity_bit_exact(self):
        x = np.random.default_rng(5).standard_normal((3, 8, 9))
        assert np.array_equal(ops.depthwise_conv7x7(x, self.delta(3)), x)

    def test_all_ones_interior_pixel(self):
        x = np.ones((1, 16, 16))
        out = ops.depthwise_conv7x7(x, np.ones((1, 7, 7)))
        assert out[0, 8, 8] == pytest.approx(49.0)

    def test_against_four_loop_reference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 5))
        k = rng.standard_normal((2, 7, 7))
        assert np.allclose(ops.depthwise_conv7x7(x, k), oracles.depthwise_4loop(x, k), atol=1e-5)

    def test_kernel_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.depthwise_conv7x7(np.zeros((3, 4, 4)), np.zeros((2, 7, 7)))


class TestBatchNorm:
    def test_identity_stats(self):
        x = np.random.default_rng(7).standard_normal((3, 4, 4))
        ones = np.ones(3)
        zeros = np.zeros(3)
        y, _, _ = ops.batch_norm(x, ones, zeros, zeros, ones, mode="infer")
        assert np.allclose(y, x, atol=1e-4)

    def test_train_mode_standardizes_before_affine(self):
        rng = np.random.default_rng(8)
        x = 3.0 + 2.0 * rng.standard_normal((5, 9, 9))
        y, _, _ = ops.batch_norm(x, np.ones(5), np.zeros(5),
                                 np.zeros(5), np.ones(5), mode="train")
        assert np.all(np.abs(y.mean(axis=(1, 2))) < 1e-4)
        assert np.all(np.abs(y.var(axis=(1, 2)) - 1.0) < 1e-3)

    def test_worked_infer_example(self):
        y, _, _ = ops.batch_norm(
            np.array([[2.0]]), np.array([3.0]), np.array([1.0]),
            np.array([1.0]), np.array([4.0]), mode="infer", channel_axis=0)
        expected = 3.0 * (2.0 - 1.0) / np.sqrt(4.0 + 1e-5) + 1.0
        assert y[0, 0] == pytest.approx(expected, abs=1e-12)
        assert abs(y[0, 0] - 2.4999963) < 1e-5

    def test_running_stat_update_formula(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 6, 6))
        mean0 = np.array([0.3, -0.2])
        var0 = np.array([1.5, 0.7])
        _, mean1, var1 = ops.batch_norm(x, np.ones(2), np.zeros(2),
                                        mean0, var0, mode="train")
        assert np.allclose(mean1, 0.97 * mean0 + 0.03 * x.mean(axis=(1, 2)))
        assert np.allclose(var1, 0.97 * var0 + 0.03 * x.var(axis=(1, 2)))
        # original buffers untouched (pure op)
        assert np.array_equal(mean0, [0.3, -0.2])

    def test_infer_returns_stats_unchanged(self):
        x = np.random.default_rng(10).standard_normal((4, 2))
        mean0 = np.zeros(2)
        var0 = np.ones(2)
        _, mean1, var1 = ops.batch_norm(x, np.ones(2), np.zeros(2),
                                        mean0, var0, mode="infer", channel_axis=1)
        assert np.array_equal(mean1, mean0)
        assert np.array_equal(var1, var0)

    def test_token_axis(self):
        x = np.random.default_rng(11).standard_normal((10, 3))
        y, _, _ = ops.batch_norm(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                                 mode="train", channel_axis=1)
        assert np.all(np.abs(y.mean(axis=0)) < 1e-4)

    def test_negative_running_variance(self):
        with pytest.raises(StateCorruptionError):
            ops.batch_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.array([1.0, -0.5]), mode="infer", channel_axis=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ops.batch_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.ones(2), mode="test", channel_axis=0)

    def test_affine_shape_check(self):
        with pytest.raises(DimensionError, match="gamma"):
            ops.batch_norm(np.zeros((3, 2, 2)), np.ones(2), np.zeros(3),
                           np.zeros(3), np.ones(3))


class TestResampling:
    def test_upsample_single_pixel(self):
        out = ops.upsample_nearest2x(np.full((1, 1, 1), 5.0))
        assert np.array_equal(out, np.full((1, 2, 2), 5.0))

    def test_upsample_block_pattern(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = ops.upsample_nearest2x(x)
        assert np.array_equal(out[0], [
            [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_down_up_round_trip(self):
        x = np.random.default_rng(12).standard_normal((3, 4, 6))
        assert np.array_equal(ops.downsample_avg2x(ops.upsample_nearest2x(x)), x)

    def test_downsample_constant(self):
        out = ops.downsample_avg2x(np.full((2, 4, 4), 7.0))
        assert np.allclose(out, 7.0)

    def test_downsample_hand_mean(self):
        out = ops.downsample_avg2x(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out, [[[2.5]]])

    def test_downsample_against_block_mean(self):
        x = np.random.default_rng(13).standard_normal((2, 8, 10))
        assert np.allclose(ops.downsample_avg2x(x), oracles.downsample_blockmean(x), atol=1e-6)

    def test_downsample_odd_extent(self):
        with pytest.raises(DimensionError):
            ops.downsample_avg2x(np.zeros((1, 3, 4)))


class TestConcatChannels:
    def test_two_constant_planes(self):
        out = ops.concat_channels(np.full((1, 2, 2), 1.0), np.full((1, 2, 2), 2.0))
        assert np.allclose(out[0], 1.0) and np.allclose(out[1], 2.0)

    def test_prefix_slice_is_first_input(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4, 4))
        b = rng.standard_normal((2, 4, 4))
        out = ops.concat_channels(a, b)
        assert np.array_equal(out[:3], a)
        assert np.array_equal(out[3:], b)

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            ops.concat_channels(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))


class TestTokenLayout:
    def test_row_major_flattening(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(ops.map_to_tokens(x), [[1.0], [2.0], [3.0], [4.0]])

    def test_token_index_formula(self):
        x = np.random.default_rng(15).standard_normal((3, 8, 8))
        tokens = ops.map_to_tokens(x)
        assert np.array_equal(tokens[9], x[:, 1, 1])

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 100))
    def test_round_trip_bit_exact(self, c, h, w, seed):
        x = np.random.default_rng(seed).standard_normal((c, h, w))
        assert np.array_equal(ops.tokens_to_map(ops.map_to_tokens(x), h, w), x)

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            ops.tokens_to_map(np.zeros((5, 2)), 2, 2)


class TestGatherRows:
    def test_full_range_is_identity(self):
        t = np.random.default_rng(16).standard_normal((5, 3))
        assert np.array_equal(ops.gather_rows(t, np.arange(5)), t)

    def test_order_preserved(self):
        t = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(ops.gather_rows(t, [2, 0]), t[[2, 0]])

    def test_partition_remerge(self):
        t = np.random.default_rng(17).standard_normal((8, 2))
        left = ops.gather_rows(t, [0, 2, 4, 6])
        right = ops.gather_rows(t, [1, 3, 5, 7])
        merged = np.zeros_like(t)
        merged[::2] = left
        merged[1::2] = right
        assert np.array_equal(merged, t)

    def test_out_of_range_carries_value(self):
        with pytest.raises(GatherIndexError, match="7"):
            ops.gather_rows(np.zeros((4, 2)), [0, 7])
        with pytest.raises(GatherIndexError, match="-1"):
            ops.gather_rows(np.zeros((4, 2)), [-1])


class TestTopkIndices:
    def test_descending_selection(self):
        s = np.array([0.4, 0.3, 0.2, 0.1])
        assert ops.topk_indices(s, 2, 0.0).tolist() == [0, 1]

    def test_tie_breaks_to_lower_index(self):
        s = np.array([0.5, 0.5, 0.1])
        assert ops.topk_indices(s, 2, 0.0).tolist() == [0, 1]

    def test_threshold_filters(self):
        s = np.array([1e-7, 0.9])
        assert ops.topk_indices(s, 2, 1e-6).tolist() == [1]

    def test_k_zero_empty(self):
        assert ops.topk_indices(np.array([0.5]), 0, 0.0).size == 0

    def test_all_below_threshold_empty(self):
        assert ops.topk_indices(np.full(4, 1e-9), 3, 1e-6).size == 0

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            ops.topk_indices(np.array([1.0]), -1, 0.0)
        with pytest.raises(ValueError):
            ops.topk_indices(np.array([1.0]), 1, -0.1)

    def test_deterministic(self):
        s = np.random.default_rng(18).uniform(size=32)
        first = ops.topk_indices(s, 8, 1e-6)
        assert all(np.array_equal(first, ops.topk_indices(s, 8, 1e-6)) for _ in range(5))

    @given(st.integers(0, 10_000), st.integers(0, 12))
    def test_matches_sort_reference(self, seed, k):
        s = np.random.default_rng(seed).uniform(size=16)
        got = ops.topk_indices(s, k, 1e-6).tolist()
        assert got == oracles.topk_reference(s, k, 1e-6)


class TestDebugChecks:
    def test_non_finite_output_raises(self):
        a = np.array([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            ops.matmul(a, np.ones((2, 1)))

    def test_disabled_checks_pass_through(self):
        ops.set_debug_checks(False)
        a = np.array([[np.nan, 1.0]])
        out = ops.matmul(a, np.ones((2, 1)))
        assert np.isnan(out[0, 0])
