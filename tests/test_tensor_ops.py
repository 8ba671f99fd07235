"""Primitive ops against hand values, loop oracles, and stated invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from pst import autodiff as ad
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


SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_formula(self, dtype):
        x = oracles.activation_inputs(dtype)
        ops.set_debug_checks(False)  # NaN inputs are part of the comparison
        got = ops.sigmoid(x)
        assert got.dtype == x.dtype
        assert got.tobytes() == oracles.sigmoid_steps(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limits_and_specials(self, dtype):
        """0 below the overflow edge of ``exp(-x)``, 1 far above zero, 1/2 at
        both zeros and at subnormals, NaN at NaN."""
        info = np.finfo(dtype)
        low = np.array([-info.max, -1e3, -710.0, -np.inf], dtype=dtype)
        ops.set_debug_checks(False)
        assert np.array_equal(ops.sigmoid(low), np.zeros(4, dtype))
        assert np.array_equal(ops.sigmoid(np.array([info.max, 1e3, np.inf], dtype)), np.ones(3))
        half = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal], dtype)
        assert np.array_equal(ops.sigmoid(half), np.full(4, 0.5))
        assert np.isnan(ops.sigmoid(np.array([np.nan, -np.nan], dtype))).all()
        # Past the edge of float32's exp, float64's still gives a positive value.
        below = np.array([-88.8, -100.0], dtype)
        assert (ops.sigmoid(below) == 0).all() == (dtype == np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_bytes_equal_the_formula_property(self, dtype, data):
        width = np.finfo(dtype).bits
        drawn = data.draw(hnp.arrays(dtype, st.integers(0, 40),
                                     elements=st.floats(width=width)))
        x = np.concatenate([np.array(SIGMOID_SPECIALS, dtype=dtype), drawn])
        ops.set_debug_checks(False)
        assert ops.sigmoid(x).tobytes() == oracles.sigmoid_steps(x).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [100, 3 * ops.ACTIVATION_CHUNK + 7])
    def test_no_runtime_warning(self, dtype, size):
        """The overflow of ``exp(-x)`` is masked, and nothing else warns:
        sigmoid at every input, silu at every input but -inf (whose
        ``-inf * 0`` is NaN and warns as an invalid operation)."""
        ops.set_debug_checks(False)
        x = np.resize(oracles.activation_inputs(dtype, size=0), size)
        assert (x < np.log(np.finfo(dtype).tiny) - 10).any()
        ops.sigmoid(x)
        finite = np.where(x == -np.inf, -1e3, x).astype(dtype)
        ops.silu(finite)
        ops.silu(finite.copy(), out=finite)


CHUNK = ops.ACTIVATION_CHUNK


class TestActivationChunks:
    """Over more than ``ACTIVATION_CHUNK`` elements, sigmoid and silu run in
    chunks; the bytes are those of the whole-array form."""

    @staticmethod
    def whole(fn, x, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(ops, "ACTIVATION_CHUNK", max(CHUNK, x.size))
            return fn(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [0, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_bytes_equal_whole_form(self, dtype, size, monkeypatch):
        rng = np.random.default_rng(size)
        x = (rng.standard_normal(size) * 30).astype(dtype)
        x[::997] = np.resize(oracles.activation_inputs(dtype, size=0), x[::997].size)
        ops.set_debug_checks(False)
        with np.errstate(invalid="ignore"):
            for fn, oracle, key in ((ops.sigmoid, oracles.sigmoid_steps, np.ndarray.tobytes),
                                    (ops.silu, oracles.silu_steps, oracles.nan_blind)):
                got = fn(x)
                assert got.dtype == x.dtype and got.shape == x.shape
                assert got.tobytes() == self.whole(fn, x, monkeypatch).tobytes()
                assert key(got) == key(oracle(x))
            y = x.copy()
            assert ops.silu(y, out=y) is y
            assert oracles.nan_blind(y) == oracles.nan_blind(oracles.silu_steps(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["step", "transposed", "reversed", "column"])
    def test_non_contiguous_views(self, dtype, view, monkeypatch):
        base = (np.random.default_rng(3).standard_normal((8, 150, 170)) * 30).astype(dtype)
        x = {"step": base[::2], "transposed": base.transpose(2, 0, 1),
             "reversed": base[..., ::-1], "column": base[:, :, 1::3]}[view]
        assert x.size > CHUNK and not x.flags.c_contiguous
        dense = np.ascontiguousarray(x)
        for fn, oracle in ((ops.sigmoid, oracles.sigmoid_steps),
                           (ops.silu, oracles.silu_steps)):
            got = fn(x)
            assert np.ascontiguousarray(got).tobytes() == oracle(dense).tobytes()
            assert got.tobytes() == self.whole(fn, x, monkeypatch).tobytes()
        before = base.copy()
        ops.silu(x, out=x)
        assert np.ascontiguousarray(x).tobytes() == oracles.silu_steps(dense).tobytes()
        untouched = np.ones(base.shape, dtype=bool)
        untouched[{"step": np.s_[::2], "transposed": np.s_[...], "reversed": np.s_[...],
                   "column": np.s_[:, :, 1::3]}[view]] = False
        assert np.array_equal(base[untouched], before[untouched])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 40), (8, 150, 170)])
    def test_non_contiguous_out(self, dtype, shape, monkeypatch):
        """``out`` a strided view of a larger buffer, whole and chunked:
        the formula's bytes land in the view, and the rest of the buffer
        keeps its own."""
        x = oracles.activation_inputs(dtype, size=int(np.prod(shape)))[:int(np.prod(shape))]
        x = np.where(x == -np.inf, -1e3, x).astype(dtype).reshape(shape)
        buffer = np.full((shape[0], 2 * shape[1], *shape[2:]), 7.0, dtype=dtype)
        out = buffer[:, 1::2]
        assert not out.flags.c_contiguous
        ops.set_debug_checks(False)
        assert ops.silu(x, out=out) is out
        assert oracles.nan_blind(out) == oracles.nan_blind(oracles.silu_steps(x))
        assert (buffer[:, ::2] == 7.0).all()
        with monkeypatch.context() as m:
            m.setattr(ops, "ACTIVATION_CHUNK", 64)
            again = np.empty_like(buffer)
            ops.silu(x, out=again[:, ::2])
        assert oracles.nan_blind(again[:, ::2]) == oracles.nan_blind(out)

    def test_temporaries_stay_within_a_chunk(self):
        x = np.random.default_rng(4).standard_normal((128, 4096)).astype(np.float32)
        ops.set_debug_checks(False)
        scratch = 2 * CHUNK * x.itemsize + 64 * 1024  # a float chunk, slack
        for call, bound in ((lambda: ops.silu(x, out=x), scratch),
                            (lambda: ops.silu(x), x.nbytes + scratch),
                            (lambda: ops.sigmoid(x), x.nbytes + scratch)):
            call()
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound


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


class TestFoldBatchNorm:
    def test_folded_affine_matches_the_infer_formula(self):
        rng = np.random.default_rng(12)
        gamma, beta, mean = rng.standard_normal((3, 5))
        var = np.exp(rng.standard_normal(5))
        x = rng.standard_normal((5, 4, 4))
        scale, shift = ops.fold_batch_norm(gamma, beta, mean, var, 5)
        want = oracles.batch_norm_infer_direct(x, gamma, beta, mean, var)
        assert np.allclose(x * scale[:, None, None] + shift[:, None, None], want,
                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape, channel_axis", [
        ((5, 4, 4), 0), ((1, 5, 4, 4), 1), ((3, 5, 4, 4), 1), ((2, 2, 5, 3, 3), 2),
        ((8, 5), 1), ((3, 8, 5), 2)])
    def test_channel_affine_bytes_are_the_broadcast_formula(self, shape, channel_axis):
        """On a map, a token matrix or a stack of either, in place or not:
        each element is ``x * scale + shift`` of its channel."""
        rng = np.random.default_rng([13, *shape])
        x = rng.standard_normal(shape).astype(np.float32)
        scale, shift = rng.standard_normal((2, shape[channel_axis])).astype(np.float32)
        pshape = (-1,) + (1,) * (len(shape) - channel_axis - 1)
        want = x * scale.reshape(pshape) + shift.reshape(pshape)
        assert ops.channel_affine(x, scale, shift, channel_axis).tobytes() == want.tobytes()
        assert ops.channel_affine(x, scale, None, channel_axis).tobytes() == \
            (x * scale.reshape(pshape)).tobytes()
        ops.channel_affine(x, scale, shift, channel_axis, out=x)
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_corrupt_running_variance(self, bad):
        with pytest.raises(StateCorruptionError):
            ops.fold_batch_norm(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, bad]), 2)

    def test_shape_check(self):
        with pytest.raises(DimensionError, match="beta"):
            ops.fold_batch_norm(np.ones(3), np.zeros(2), np.zeros(3), np.ones(3), 3)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 9, 11), (2, 3, 16, 16), (40, 8, 3), (4, 64, 4, 4)])
    def test_bytes_equal_49_tap_formula(self, dtype, shape):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape).astype(dtype)
        k = rng.standard_normal((shape[-3], 7, 7)).astype(dtype)
        got = ops.depthwise_conv7x7(x, k)
        assert got.dtype == x.dtype
        assert got.tobytes() == oracles.depthwise_49_taps(x, k).tobytes()

    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(1, 3), max_size=2),
           st.integers(1, 40), st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
           st.booleans())
    # Few channels: one channel, where the column tap's stride ties the
    # row's (tall one-column maps, stacks of 1x1 maps, a lone 1x1 map), and
    # two to four channels over one or two columns or along long rows.
    @example(np.float32, [], 1, 1337, 1, 0, False)
    @example(np.float32, [], 1, 1338, 1, 0, False)
    @example(np.float64, [2], 1, 1339, 1, 1, False)
    @example(np.float64, [1337], 1, 1, 1, 2, False)
    @example(np.float32, [1338], 1, 1, 1, 3, False)
    @example(np.float64, [3], 4, 167, 1, 4, False)
    @example(np.float32, [3], 4, 167, 2, 5, False)
    @example(np.float32, [2], 2, 3, 700, 6, False)
    @example(np.float64, [2, 2], 1, 1, 1, 7, False)
    @example(np.float32, [], 1, 7, 1, 15, False)  # W * C = 1
    # Wide channels over small grids: the stacks of training and
    # evaluation, the neck's maps, and odd channel counts.
    @example(np.float32, [64], 32, 4, 4, 8, False)
    @example(np.float32, [32], 64, 8, 8, 9, False)
    @example(np.float32, [], 32, 4, 4, 10, False)
    @example(np.float32, [], 16, 8, 8, 11, False)
    @example(np.float64, [2], 33, 3, 16, 12, False)
    @example(np.float32, [2], 32, 3, 16, 13, False)
    @example(np.float64, [3], 31, 5, 2, 14, False)
    # The adjoint's kernel, turned by 180 degrees (negative strides).
    @example(np.float32, [32], 32, 4, 4, 16, True)
    def test_bytes_equal_49_tap_formula_property(self, dtype, lead, c, h, w, seed, turned):
        """Any stack of maps, with +0.0 and -0.0 among the inputs and zero
        taps, gives the oracle's bytes; so does a turned kernel view."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((*lead, c, h, w)).astype(dtype)
        u = rng.random(x.shape)
        x[u < 0.2] = 0.0
        x[u > 0.9] = -0.0
        k = rng.standard_normal((c, 7, 7)).astype(dtype)
        k[rng.random(k.shape) < 0.1] = 0.0
        if turned:
            k = k[:, ::-1, ::-1]
        got = ops.depthwise_conv7x7(x, k)
        expected = oracles.depthwise_49_taps(x, k)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_float64_kernel_is_cast_to_float32_map(self):
        """A kernel of another dtype is cast to the map's dtype first, so the
        products and sums stay in float32."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 6, 8, 5)).astype(np.float32)
        k = rng.standard_normal((6, 7, 7))
        got = ops.depthwise_conv7x7(x, k)
        assert got.dtype == np.float32
        assert got.tobytes() == oracles.depthwise_49_taps(x, k.astype(np.float32)).tobytes()

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 3, 3), (3, 0, 5), (3, 5, 0), (0, 2, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_map(self, shape, dtype):
        got = ops.depthwise_conv7x7(np.zeros(shape, dtype), np.ones((shape[-3], 7, 7), dtype))
        assert got.shape == shape and got.dtype == dtype

    def test_memory_is_padded_copy_output_and_tiled_taps(self):
        """At [64, 64, 64] the call holds the padded copy, the output and
        the kernel tiled to [7, 7, W * C], and nothing the size of a
        [49, ...] product block."""
        c = h = w = 64
        x = np.random.default_rng(12).standard_normal((c, h, w)).astype(np.float32)
        k = np.random.default_rng(13).standard_normal((c, 7, 7)).astype(np.float32)
        item = x.itemsize
        bound = (c * (h + 6) * (w + 6) + x.size + 49 * w * c) * item + 64 * 1024
        ops.set_debug_checks(False)  # its finiteness mask is not the kernel's
        ops.depthwise_conv7x7(x, k)
        tracemalloc.start()
        try:
            ops.depthwise_conv7x7(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_kernel_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.depthwise_conv7x7(np.zeros((3, 4, 4)), np.zeros((2, 7, 7)))

    @given(b=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_row_windows_equal_sliding_window_view(self, b, h, w, c, dtype, seed):
        """The forward's [b, H, 7, 7, W * C] tap view and the gradient's
        [b, H, 7, W, 7 * C] view are the ones ``sliding_window_view``
        builds: same shape, strides and values, and read-only."""
        xp = np.random.default_rng(seed).standard_normal((b, h + 6, (w + 6) * c)).astype(dtype)
        for count, length in ((7, w * c), (w, 7 * c)):
            got = ops._row_windows(xp, h, count, length, c)
            want = sliding_window_view(xp, (h, length), axis=(1, 2))[:, :, ::c]
            want = want.transpose(0, 3, 1, 2, 4)
            assert (got.shape, got.strides) == (want.shape, want.strides)
            assert np.array_equal(got, want)
            assert not got.flags.writeable


class TestDepthwiseKernelGrad:
    @staticmethod
    def signed_zeros(rng, shape, dtype):
        a = rng.standard_normal(shape).astype(dtype)
        u = rng.random(shape)
        a[u < 0.15] = 0.0
        a[u > 0.9] = -0.0
        return a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (32, 32, 4, 4), (64, 32, 4, 4), (2, 64, 8, 8), (40, 8, 3), (3, 9, 2, 2), (4, 5, 1, 1),
        (5, 9, 11), (2, 3, 16, 16), (3, 1, 1, 1), (2, 2, 1, 1), (1, 4, 2, 2)])
    def test_bytes_equal_per_tap_sums(self, dtype, shape):
        """Channel-last stacks of small grids (C > 2W) and channel-first maps
        alike give the bytes of one numpy sum per tap, with +0.0 and -0.0
        among the inputs."""
        rng = np.random.default_rng([14, *shape])
        x, up = (self.signed_zeros(rng, shape, dtype) for _ in range(2))
        got = ops.depthwise_kernel_grad(x, up)
        want = oracles.depthwise_kernel_grad_taps(x, up)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(1, 3), max_size=2),
           st.integers(1, 40), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_bytes_equal_per_tap_sums_property(self, dtype, lead, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x, up = (self.signed_zeros(rng, (*lead, c, h, w), dtype) for _ in range(2))
        got = ops.depthwise_kernel_grad(x, up)
        assert got.tobytes() == oracles.depthwise_kernel_grad_taps(x, up).tobytes()

    def test_mixed_dtypes_sum_in_the_wider(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 20, 4, 4)).astype(np.float32)
        up = rng.standard_normal(x.shape)
        got = ops.depthwise_kernel_grad(x, up)
        assert got.dtype == np.float64
        assert got.tobytes() == oracles.depthwise_kernel_grad_taps(x, up).tobytes()

    @pytest.mark.parametrize("shape", [(8, 32, 4, 4), (2, 3, 9, 9)])
    def test_nan_pixel_gives_nan_in_the_same_taps(self, shape):
        """A NaN pixel makes NaN every tap whose window reaches it, in the
        same places as the per-tap sums; the bytes of those NaNs may differ
        and are not compared."""
        ops.set_debug_checks(False)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(shape).astype(np.float32)
        up = rng.standard_normal(shape).astype(np.float32)
        x[1, 2, 0, 1] = np.nan
        got = ops.depthwise_kernel_grad(x, up)
        want = oracles.depthwise_kernel_grad_taps(x, up)
        assert np.isnan(got).any() and not np.isnan(got).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.depthwise_kernel_grad(np.zeros((2, 3, 4, 4)), np.zeros((2, 3, 4, 5)))


# float64 bounds of the train-mode statistics, in units of the dtype's eps,
# per channel against numpy's mean and variance of the float64 rows:
# |mean - mean64| <= MEAN_TOL * eps * mean(|x|), |var - var64| <= VAR_TOL *
# eps * var64. Over STAT_LAYOUTS at three seeds each, with magnitudes spread
# over 16 binades, at most 7.1 and 322 measured in float32 (the earlier
# numpy-order reduce measured the same 7.1 and 322) and 8.3 and 33 in float64.
MEAN_TOL = 64
VAR_TOL = 2048
STAT_LAYOUTS = [
    ((32, 16, 16, 16), 1), ((32, 32, 8, 8), 1), ((32, 64, 4, 4), 1), ((2, 16, 4, 4), 1),
    ((32, 64, 32), 2), ((2, 4096, 64), 2), ((16, 8, 8), 0), ((3, 1, 4, 4), 1),
    ((1, 40, 64, 64), 1), ((7, 3, 2), 2), ((1, 16, 7, 9), 1), ((2, 8, 5, 3), 1),
    ((32, 8, 7, 7), 1), ((32, 49, 16), 2), ((1, 49, 16), 2)]


def stat_rows64(x, channel_axis):
    """The float64 ``[positions, C]`` rows of ``x`` that the bounds read."""
    c = channel_axis % x.ndim
    return np.moveaxis(x.astype(np.float64), c, -1).reshape(-1, x.shape[c])


class TestBatchNormBounds:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, channel_axis", STAT_LAYOUTS)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("view", ["contiguous", "transposed"])
    def test_stats_within_the_float64_bound(self, dtype, shape, channel_axis, seed, view):
        rng = np.random.default_rng([10, seed, *shape])
        x = (rng.standard_normal(shape) * np.exp2(rng.integers(-8, 8, shape)) + 3).astype(dtype)
        if view == "transposed":  # the same values through a non-contiguous view
            x = np.ascontiguousarray(x.T).T
        rows = stat_rows64(x, channel_axis)
        eps = np.finfo(dtype).eps
        mean, var, centered = ops.channel_stats(x, channel_axis)
        assert mean.dtype == var.dtype == centered.dtype == x.dtype
        assert np.all(np.abs(mean - rows.mean(0)) <= MEAN_TOL * eps * np.abs(rows).mean(0))
        assert np.all(np.abs(var - rows.var(0)) <= VAR_TOL * eps * rows.var(0))
        pshape = (-1,) + (1,) * (x.ndim - 1 - channel_axis % x.ndim)
        assert centered.tobytes() == (x - mean.reshape(pshape)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_stack_and_its_token_rows_agree(self, dtype):
        """A [B, C, H, W] stack and its [B*H*W, C] token rows reduce in
        different orders, within the bound of each other."""
        x = (np.random.default_rng(9).standard_normal((5, 3, 4, 6)) * 7 + 2).astype(dtype)
        rows = np.concatenate([ops.map_to_tokens(m) for m in x])
        eps = np.finfo(dtype).eps
        (m1, v1, _), (m2, v2, _) = ops.channel_stats(x, 1), ops.channel_stats(rows, 1)
        assert np.all(np.abs(m1 - m2) <= 2 * MEAN_TOL * eps * np.abs(rows).mean(0))
        assert np.all(np.abs(v1 - v2) <= 2 * VAR_TOL * eps * v1)

    def test_centered_into_out(self):
        x = np.random.default_rng(12).standard_normal((4, 6, 3, 3)).astype(np.float32)
        want = ops.channel_stats(x, 1)
        buffer = x.copy()
        got = ops.channel_stats(buffer, 1, out=buffer)
        assert got[2] is buffer
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_stats_of_a_nan_row(self):
        """A NaN makes its channel's mean and variance NaN and leaves the
        other channels' bytes as they are without it."""
        ops.set_debug_checks(False)
        x = np.random.default_rng(11).standard_normal((4, 6, 3, 3)).astype(np.float32)
        clean = ops.channel_stats(x, 1)
        x[2, 4, 1, 0] = np.nan
        for got, want in zip(ops.channel_stats(x, 1)[:2], clean):
            assert np.isnan(got[4]) and np.isnan(got).sum() == 1
            assert np.delete(got, 4).tobytes() == np.delete(want, 4).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape, channel_axis", [
        ((0, 4, 3, 3), 1), ((0, 5, 4), 2), ((2, 3, 0, 4), 1), ((4, 0), 0)])
    def test_statistics_over_no_positions_raise(self, shape, channel_axis):
        """Train mode over a zero-sample stack (or an empty grid) has no
        statistics: DimensionError, not numpy's empty-mean warning and NaN
        running statistics. Infer mode maps the empty stack to an empty
        stack."""
        x = np.zeros(shape, dtype=np.float32)
        c = shape[channel_axis]
        state = (np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))
        with pytest.raises(DimensionError, match="no positions"):
            ops.channel_stats(x, channel_axis)
        with pytest.raises(DimensionError, match="no positions"):
            ad.batch_norm(x, *state, mode="train", channel_axis=channel_axis)
        tape = ad.Tape()
        with pytest.raises(DimensionError, match="no positions"):
            ad.batch_norm(tape.leaf(x, requires_grad=True), *state, mode="train",
                          channel_axis=channel_axis)
        y, mean, var = ad.batch_norm(x, *state, mode="infer", channel_axis=channel_axis)
        assert y.shape == shape and np.array_equal(var, state[3])


class TestBatchNorm:
    def test_identity_stats(self):
        x = np.random.default_rng(7).standard_normal((3, 4, 4))
        ones = np.ones(3)
        zeros = np.zeros(3)
        y, _, _ = ad.batch_norm(x, ones, zeros, zeros, ones, mode="infer")
        assert np.allclose(y, x, atol=1e-4)

    def test_train_mode_standardizes_before_affine(self):
        rng = np.random.default_rng(8)
        x = 3.0 + 2.0 * rng.standard_normal((5, 9, 9))
        y, _, _ = ad.batch_norm(x, np.ones(5), np.zeros(5),
                                 np.zeros(5), np.ones(5), mode="train")
        assert np.all(np.abs(y.mean(axis=(1, 2))) < 1e-4)
        assert np.all(np.abs(y.var(axis=(1, 2)) - 1.0) < 1e-3)

    def test_worked_infer_example(self):
        y, _, _ = ad.batch_norm(
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
        _, mean1, var1 = ad.batch_norm(x, np.ones(2), np.zeros(2),
                                        mean0, var0, mode="train")
        assert np.allclose(mean1, 0.97 * mean0 + 0.03 * x.mean(axis=(1, 2)))
        assert np.allclose(var1, 0.97 * var0 + 0.03 * x.var(axis=(1, 2)))
        # original buffers untouched (pure op)
        assert np.array_equal(mean0, [0.3, -0.2])

    def test_infer_returns_stats_unchanged(self):
        x = np.random.default_rng(10).standard_normal((4, 2))
        mean0 = np.zeros(2)
        var0 = np.ones(2)
        _, mean1, var1 = ad.batch_norm(x, np.ones(2), np.zeros(2),
                                        mean0, var0, mode="infer", channel_axis=1)
        assert np.array_equal(mean1, mean0)
        assert np.array_equal(var1, var0)

    def test_token_axis(self):
        x = np.random.default_rng(11).standard_normal((10, 3))
        y, _, _ = ad.batch_norm(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                                 mode="train", channel_axis=1)
        assert np.all(np.abs(y.mean(axis=0)) < 1e-4)

    def test_negative_running_variance(self):
        with pytest.raises(StateCorruptionError):
            ad.batch_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.array([1.0, -0.5]), mode="infer", channel_axis=0)

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_nan_running_variance(self, mode):
        with pytest.raises(StateCorruptionError):
            ad.batch_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.array([1.0, np.nan]), mode=mode, channel_axis=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ad.batch_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.ones(2), mode="test", channel_axis=0)

    def test_affine_shape_check(self):
        with pytest.raises(DimensionError, match="gamma"):
            ad.batch_norm(np.zeros((3, 2, 2)), np.ones(2), np.zeros(3),
                           np.zeros(3), np.ones(3))


class TestResampling:
    def test_upsample_single_pixel(self):
        out = ops.upsample_tokens2x(np.full((1, 1, 1), 5.0))
        assert np.array_equal(out, np.full((4, 1), 5.0))

    def test_upsample_block_pattern(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = ops.tokens_to_map(ops.upsample_tokens2x(x), 4, 4)
        assert np.array_equal(out[0], [
            [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    @pytest.mark.parametrize("shape", [(3, 4, 6), (2, 5, 1, 3), (2, 1, 3, 5, 2), (4, 1, 1)])
    def test_upsample_tokens_equal_repeated_map(self, shape):
        x = np.random.default_rng(11).standard_normal(shape).astype(np.float32)
        assert ops.upsample_tokens2x(x).tobytes() == oracles.upsample_tokens_repeat(x).tobytes()

    def test_down_up_round_trip(self):
        x = np.random.default_rng(12).standard_normal((3, 4, 6))
        up = ops.tokens_to_map(ops.upsample_tokens2x(x), 8, 12)
        assert np.array_equal(ops.downsample_avg2x(up), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead, c, h, w", [
        ((), 1, 1, 1), ((), 3, 2, 1), ((3,), 5, 3, 1), ((), 2, 1, 2), ((2, 3), 3, 2, 2),
        ((5,), 40, 1, 3), ((3,), 7, 3, 5), ((2, 1, 3), 4, 4, 4), ((32,), 32, 4, 4)])
    def test_upsample_adjoint_bytes_equal_numpy_block_sum(self, dtype, lead, c, h, w):
        rng = np.random.default_rng([c, h, w])
        shape = (*lead, 4 * h * w, c)
        t = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)).astype(dtype)
        got = ops.upsample_tokens2x_adjoint(t, h, w)
        assert got.shape == (*lead, c, h, w)
        assert got.tobytes() == oracles.upsample_adjoint_block_sum(t, h, w).tobytes()

    def test_downsample_constant(self):
        out = ops.downsample_avg2x(np.full((2, 4, 4), 7.0))
        assert np.allclose(out, 7.0)

    def test_downsample_hand_mean(self):
        out = ops.downsample_avg2x(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out, [[[2.5]]])

    def test_downsample_against_block_mean(self):
        x = np.random.default_rng(13).standard_normal((2, 8, 10))
        assert np.allclose(ops.downsample_avg2x(x), oracles.downsample_blockmean(x), atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 32, 32), (32, 16, 16, 16), (2, 5, 6, 10),
                                       (4, 2, 16, 2, 4), (4, 2, 16, 4, 2)])
    def test_downsample_matches_reshaped_mean(self, dtype, shape):
        """Byte-equal to numpy's mean over the reshaped blocks, which sums
        (x00 + x01) + (x10 + x11) at every width but 2; at width 2 it sums
        the four in sequence, and the two agree to rounding."""
        x = (np.random.default_rng(len(shape)).standard_normal(shape) * 30).astype(dtype)
        *lead, c, h, w = shape
        expected = x.reshape(*lead, c, h // 2, 2, w // 2, 2).mean(axis=(-3, -1))
        got = ops.downsample_avg2x(x)
        if w > 2:
            assert got.tobytes() == expected.tobytes()
        assert np.allclose(got, expected, rtol=0, atol=4 * np.finfo(dtype).eps * np.abs(x).max())

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

    @given(st.integers(0, 10_000), st.integers(0, 12))
    def test_stack_rows_match_sort_reference(self, seed, k):
        """Each row of a [2, 3, 16] stack, with ties, NaN and rows below the
        threshold, is the reference padded with -1 to the longest row."""
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 5, size=(2, 3, 16)) / 4.0
        s[0, 1] = 0.0
        s[1, 2, rng.integers(0, 16)] = np.nan
        got = ops.topk_indices(s, k, 0.1)
        want = [oracles.topk_reference(row, k, 0.1) for row in s.reshape(6, 16)]
        width = max(map(len, want))
        assert got.shape == (2, 3, width) and got.dtype == np.int64
        assert got.reshape(6, width).tolist() == [w + [-1] * (width - len(w)) for w in want]


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
