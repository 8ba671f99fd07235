"""Tape mechanics, per-op gradient checks, and the checker's own guarantees."""

import inspect
import sys
import weakref
import zlib

import numpy as np
import pytest

import oracles
from pst import autodiff as ad
from pst import tensor_ops as ops
from pst.errors import ContractError, NumericError


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


def _affine_case(channel_axis, shape, shift=True):
    def make(rng):
        params = {"x": rng.standard_normal(shape)}
        c = shape[channel_axis]
        scale, bias = rng.standard_normal(c), rng.standard_normal(c) if shift else None
        r = rng.standard_normal(shape)
        return params, lambda p: _probe_loss(
            ad.channel_affine(p["x"], scale, bias, channel_axis=channel_axis), r)

    return make


def _bn_case(mode, channel_axis, shape):
    def make(rng):
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
    r = rng.standard_normal((24, 2))
    return params, lambda p: _probe_loss(ad.upsample_tokens2x(p["x"]), r)


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


def _case_concat_cols(rng):
    params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 4))}
    r = rng.standard_normal((3, 6))
    return params, lambda p: _probe_loss(ad.concat_cols([p["a"], p["b"]]), r)


def _case_stack(rng):
    params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 3))}
    r = rng.standard_normal((3, 2, 3))
    return params, lambda p: _probe_loss(ad.stack([p["a"], p["b"], p["a"]]), r)


def _case_unstack(rng):
    params = {"t": rng.standard_normal((3, 2, 4))}
    rs = rng.standard_normal((3, 2, 4))

    def build(p):
        parts = ad.unstack(p["t"])
        total = _probe_loss(parts[0], rs[0])
        for part, r in zip(parts[1:], rs[1:]):
            total = ad.add(total, _probe_loss(part, r))
        return total

    return params, build


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


def _batched(op, *shapes, **kwargs):
    """Gradcheck case of ``op`` with one operand per shape, the shapes
    carrying leading batch axes, and a probe over the output."""
    def make(rng):
        params = {name: rng.standard_normal(s) for name, s in zip("abc", shapes)}
        r = rng.standard_normal(np.shape(op(*params.values(), **kwargs)))
        return params, lambda p: _probe_loss(op(*p.values(), **kwargs), r)

    return make


def _case_cross_entropy_batched(rng):
    params = {"logits": rng.standard_normal((2, 3, 5))}
    labels = np.array([[0, 4, 2], [3, 3, 1]])
    r = rng.standard_normal((2, 3))
    return params, lambda p: _probe_loss(ad.cross_entropy(p["logits"], labels), r)


def _case_gather_rows_batched_source(rng):
    # The fine stage gathers from one sample of a stack.
    params = {"t": rng.standard_normal((2, 5, 3))}
    idx = np.array([4, 0, 4])
    r = rng.standard_normal((3, 3))
    return params, lambda p: _probe_loss(ad.gather_rows(ad.unstack(p["t"])[1], idx), r)


def _attention_case(heads, lead=()):
    def make(rng):
        params = {"q": rng.standard_normal((*lead, 5, 4)),
                  "k": rng.standard_normal((*lead, 3, 4)),
                  "v": rng.standard_normal((*lead, 3, 4))}
        r = rng.standard_normal((*lead, 5, 4))

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
    "channel_affine_map": _affine_case(-3, (3, 4, 4)),
    "channel_affine_tokens": _affine_case(-1, (8, 3), shift=False),
    "batch_norm_train_map": _bn_case("train", 0, (3, 4, 4)),
    "batch_norm_infer_map": _bn_case("infer", 0, (3, 4, 4)),
    "batch_norm_train_tokens": _bn_case("train", 1, (8, 3)),
    "batch_norm_infer_tokens": _bn_case("infer", 1, (8, 3)),
    "upsample_tokens2x": _case_upsample,
    "downsample_avg2x": _case_downsample,
    "concat_channels": _case_concat_channels,
    "map_to_tokens": _case_map_to_tokens,
    "tokens_to_map": _case_tokens_to_map,
    "gather_rows": _case_gather_rows,
    "concat_cols": _case_concat_cols,
    "stack": _case_stack,
    "unstack": _case_unstack,
    "add_bias": _case_add_bias,
    "linear": _case_linear,
    "silu": _case_silu,
    "sigmoid": _case_sigmoid,
    "mean_spatial": _case_mean_spatial,
    "sum_all": _case_sum_all,
    "mean_all": _case_mean_all,
    "cross_entropy": _case_cross_entropy,
    # Batched forms: leading batch axes on every operand that carries them.
    "matmul_batched": _batched(ad.matmul, (2, 3, 4), (4, 2)),
    "attention_batched_heads1": _attention_case(1, lead=(2,)),
    "attention_batched_heads2": _attention_case(2, lead=(2,)),
    "conv1x1_batched": _batched(ad.conv1x1, (2, 3, 4, 4), (2, 3)),
    "depthwise_conv7x7_batched": _batched(ad.depthwise_conv7x7, (2, 1, 4, 4), (1, 7, 7)),
    "channel_affine_map_batched": _affine_case(-3, (2, 3, 3, 2)),
    "channel_affine_tokens_batched": _affine_case(-1, (2, 4, 3)),
    "batch_norm_train_map_batched": _bn_case("train", -3, (2, 3, 3, 2)),
    "batch_norm_infer_map_batched": _bn_case("infer", -3, (2, 3, 3, 2)),
    "batch_norm_train_tokens_batched": _bn_case("train", -1, (2, 4, 3)),
    "batch_norm_infer_tokens_batched": _bn_case("infer", -1, (2, 4, 3)),
    "upsample_tokens2x_batched": _batched(ad.upsample_tokens2x, (2, 2, 2, 3)),
    "downsample_avg2x_batched": _batched(ad.downsample_avg2x, (2, 2, 4, 6)),
    "concat_channels_batched": _batched(ad.concat_channels, (2, 2, 3, 3), (2, 1, 3, 3)),
    "map_to_tokens_batched": _batched(ad.map_to_tokens, (2, 2, 3, 4)),
    "tokens_to_map_batched": _batched(ad.tokens_to_map, (2, 12, 2), h=3, w=4),
    "concat_cols_batched": _batched(lambda a, b: ad.concat_cols([a, b]), (2, 3, 2), (2, 3, 4)),
    "add_bias_batched": _batched(ad.add_bias, (2, 4, 3), (3,)),
    "add_batched": _batched(ad.add, (2, 3, 4), (2, 3, 4)),
    "mul_batched": _batched(ad.mul, (2, 3, 4), (2, 3, 4)),
    "silu_batched": _batched(ad.silu, (2, 3, 4)),
    "sigmoid_batched": _batched(ad.sigmoid, (2, 3, 4)),
    "linear_batched": _batched(ad.linear, (2, 3, 4), (4, 3), (3,)),
    "mean_spatial_batched": _batched(ad.mean_spatial, (2, 3, 4, 4)),
    "cross_entropy_batched": _case_cross_entropy_batched,
    "gather_rows_batched_source": _case_gather_rows_batched_source,
}


def op_stream(op: str) -> int:
    """A per-op seed stream that is the same in every process (``hash`` of a
    string is salted per process)."""
    return zlib.crc32(op.encode())


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_gradcheck_per_op(op):
    for seed in range(10):
        params, build = OP_CASES[op](np.random.default_rng([seed, op_stream(op)]))
        report = ad.check_gradients(build, params)
        assert report.passed, f"{op} seed {seed}:\n{report.to_text()}"
        assert {e.name for e in report.entries} == set(params)


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_untaped_forward_gives_the_taped_bytes(op, monkeypatch):
    """Each case's forward on plain arrays returns plain numpy values, the
    op's outputs and the loss, of the types and with the bytes of the taped
    forward's values: the early exit an op takes when no operand is a Var
    runs the same kernel. Every op output is an ndarray; only ``unstack``'s
    loss, a sum of 0-d arrays, is a numpy scalar, taped or not."""
    params, build = OP_CASES[op](np.random.default_rng([0, op_stream(op)]))
    probe_loss = _probe_loss
    outs = []

    def capture(out, probe):
        outs.append(out)
        return probe_loss(out, probe)

    monkeypatch.setattr(sys.modules[__name__], "_probe_loss", capture)
    loss = build(params)
    plain = [*outs, loss]
    tape = ad.Tape()
    lifted, _ = ad.lift_tree(tape, params)
    outs.clear()
    loss = build(lifted)
    taped = [*outs, loss]
    assert len(plain) == len(taped) >= 1
    assert all(type(out) is np.ndarray for out in plain[:-1])
    for got, want in zip(plain, taped):
        assert isinstance(want, ad.Var) and type(got) is type(want.value)
        assert isinstance(got, (np.ndarray, np.generic))
        assert got.dtype == want.value.dtype and got.shape == want.value.shape
        assert got.tobytes() == want.value.tobytes()


@pytest.mark.parametrize("key", [(6, 1222065912), (4, 1228114386)])
def test_gradcheck_judges_a_coordinate_by_its_finite_difference_spread(key):
    """Two sigmoid draws that the salted seeding once reached: one
    coordinate's gradient (about 1e-7) is so small that the step-h central
    difference is off by rounding, and the relative error alone rejects it.
    The spread against the half step shows that error, and the check
    passes at the unchanged threshold."""
    params, build = OP_CASES["sigmoid"](np.random.default_rng(key))
    tape = ad.Tape()
    lifted, leaves = ad.lift_tree(tape, params)
    analytic = tape.backward(build(lifted))[leaves["x"].vid]
    x = params["x"]
    base = x.copy()

    def f(candidate):
        x[...] = candidate
        try:
            return float(build(params))
        finally:
            x[...] = base

    report = ad.check_gradients(build, params)
    assert ad.relative_error(analytic, ad.finite_diff_grad(f, base)) > report.threshold
    assert report.passed and report.threshold == 1e-4, report.to_text()


def test_every_recordable_op_has_a_gradcheck_case():
    """Every public op of the engine that records a tape node has a case
    above; ``attention``, ``batch_norm`` and ``channel_affine`` are covered
    by variant cases."""
    recording = {name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                 and not name.startswith("_") and "._emit(" in inspect.getsource(fn)}
    assert {"matmul", "attention", "batch_norm", "cross_entropy"} <= recording
    assert recording <= set(OP_CASES) | {"attention", "batch_norm", "channel_affine"}


# Closure variables through which a backward rule reads an array in its
# arithmetic; a rule of any other op holds no array at all. A rule reads its
# operands' shapes and dtypes, and which operands are Vars, from plain values.
RULE_READS = {
    "mul": {"a_factor", "b_factor"},
    "matmul": {"right", "left"},
    "softmax_rows": {"y"},
    "attention": {"weights", "logits_values", "logits_out", "q_reads", "k_reads"},
    "conv1x1": {"weight", "inputs"},
    "depthwise_conv7x7": {"inputs", "turned"},
    "batch_norm": {"xhat", "inv", "gamma_v"},
    "channel_affine": {"factor"},
    "gather_rows": {"idx"},
    "linear": {"weight", "inputs"},
    "silu": {"xv", "s"},
    "sigmoid": {"y"},
    "cross_entropy": {"probs", "onehot"},
}


def _held(obj):
    """The Vars and arrays a closure cell holds, looking into sequences."""
    if isinstance(obj, (ad.Var, np.ndarray)):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _held(item)]
    return []


class TestTapeMemory:
    def test_rules_hold_only_what_they_read(self):
        """Every op, recorded once per gradcheck case: no rule holds a Var
        (which owns its value), and each array a rule holds is one its
        arithmetic reads, not one it needs only for a shape or a dtype."""
        seen: dict[str, set] = {}
        for case in OP_CASES.values():
            params, build = case(np.random.default_rng(0))
            tape = ad.Tape()
            lifted, _ = ad.lift_tree(tape, params)
            build(lifted)
            for node in tape._nodes:
                cells = zip(node.bwd.__code__.co_freevars, node.bwd.__closure__ or ())
                for name, cell in cells:
                    held = _held(cell.cell_contents)
                    assert not any(isinstance(x, ad.Var) for x in held), (node.op, name)
                    if held:
                        assert name in RULE_READS.get(node.op, ()), (node.op, name)
                        seen.setdefault(node.op, set()).add(name)
        assert seen == RULE_READS

    def test_value_read_only_by_the_next_op_is_freed(self):
        """A conv1x1 output that only the following batch_norm reads (its
        rule keeps x-hat, not the input) is freed once its Var is."""
        rng = np.random.default_rng(50)
        tape = ad.Tape()
        w, gamma, beta = (tape.leaf(a, requires_grad=True) for a in (
            rng.standard_normal((4, 3)), np.ones(4), np.zeros(4)))
        h = ad.conv1x1(rng.standard_normal((2, 3, 5, 5)), w)
        refs = [weakref.ref(a) for a in (h.value, h.value.base) if a is not None]
        y, _, _ = ad.batch_norm(h, gamma, beta, np.zeros(4), np.ones(4), mode="train",
                                channel_axis=-3)
        del h
        assert all(ref() is None for ref in refs)
        grads = tape.backward(ad.sum_all(ad.mul(y, rng.standard_normal((2, 4, 5, 5)))))
        assert grads[w.vid].shape == (4, 3)


class TestKernelBytes:
    """The rewritten kernels against their formulas in ``oracles``, byte for
    byte, with and without a tape."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_with_and_without_tape(self, dtype):
        """Taped and untaped silu give the same bytes, NaNs included; against
        the formula a NaN input's NaN may differ in sign (see
        ``oracles.nan_blind``)."""
        x = oracles.activation_inputs(dtype, size=2000, seed=40)
        up = np.random.default_rng(41).standard_normal(x.shape).astype(dtype)
        blind = oracles.nan_blind
        ops.set_debug_checks(False)  # the specials make non-finite products
        with np.errstate(invalid="ignore", over="ignore"):
            untaped = ad.silu(x)
            assert blind(untaped) == blind(oracles.silu_steps(x))
            tape = ad.Tape()
            xv = tape.leaf(x, requires_grad=True)
            y = ad.silu(xv)
            assert y.value.tobytes() == untaped.tobytes()
            grad = tape.backward(ad.sum_all(ad.mul(y, up)))[xv.vid]
            assert blind(grad) == blind(oracles.silu_grad_steps(x, up))
            finite = np.isfinite(x)
            assert grad[finite].tobytes() == oracles.silu_grad_steps(x, up)[finite].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("shape, channel_axis", [
        ((3, 6, 5, 4), -3), ((3, 20, 6), -1), ((6, 5, 4), -3), ((20, 6), -1),
        ((2, 16, 4, 4), -3), ((64, 16, 4, 4), -3), ((2, 64, 32), -1), ((64, 64, 32), -1)])
    def test_batch_norm_with_and_without_tape(self, dtype, mode, shape, channel_axis):
        """Plain, in place and taped calls give the same bytes for ``y`` and
        the running statistics. Given the op's own statistics and parameter
        gradients, which einsum sums (``tests/test_training_bound.py``
        bounds them against float64), ``y`` and the input gradient are the
        formulas' bytes: single maps and token matrices broadcast their
        per-channel terms as [C, 1, 1], stacks of two or more spread them
        over one sample."""
        stacked = len(shape) == (4 if channel_axis == -3 else 3)
        c = shape[channel_axis]
        channels = np.arange(c)  # a stack writes it out; else a view of it is broadcast
        operand = ops.per_channel(np.empty(shape), len(shape) + channel_axis)(channels)
        assert (operand.shape == shape[1:] and operand.base is not channels) == stacked
        rng = np.random.default_rng(42)
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        gamma, beta, mean0 = (rng.standard_normal(c).astype(dtype) for _ in range(3))
        var0 = rng.uniform(0.5, 2.0, c).astype(dtype)
        up = rng.standard_normal(shape).astype(dtype)
        kw = dict(mode=mode, channel_axis=channel_axis)

        plain = ad.batch_norm(x, gamma, beta, mean0, var0, **kw)
        buffer = x.copy()
        in_place = ad.batch_norm(buffer, gamma, beta, mean0, var0, in_place=True, **kw)
        assert in_place[0] is buffer
        tape = ad.Tape()
        xv, gv, bv = (tape.leaf(a, requires_grad=True) for a in (x, gamma, beta))
        recorded = ad.batch_norm(xv, gv, bv, mean0, var0, **kw)
        grads = tape.backward(ad.sum_all(ad.mul(recorded[0], up)))
        stats = ops.channel_stats(x, channel_axis)[:2] if mode == "train" else None
        sums = (grads[gv.vid], grads[bv.vid])
        y, new_mean, new_var, gx, _, _ = oracles.batch_norm_direct(
            x, gamma, beta, mean0, var0, up, stats=stats, sums=sums, **kw)
        for got in (plain, in_place, (recorded[0].value, *recorded[1:])):
            for have, want in zip(got, (y, new_mean, new_var)):
                assert have.dtype == want.dtype
                assert have.tobytes() == want.tobytes()
        assert grads[xv.vid].tobytes() == gx.tobytes()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_batch_norm_nan_row(self, mode):
        """A NaN in one row of a stack gives NaN in the same places as the
        broadcast formulas: its channel in train mode, its element in infer
        mode. Every other output keeps the bytes it has without the NaN."""
        ops.set_debug_checks(False)
        rng = np.random.default_rng(44)
        x = rng.standard_normal((8, 6, 4, 4)).astype(np.float32)
        gamma, beta, mean0 = (rng.standard_normal(6).astype(np.float32) for _ in range(3))
        var0 = rng.uniform(0.5, 2.0, 6).astype(np.float32)
        clean = ad.batch_norm(x, gamma, beta, mean0, var0, mode=mode, channel_axis=-3)[0]
        x[3, 2, 1, 1] = np.nan
        want = oracles.batch_norm_direct(x, gamma, beta, mean0, var0, x, mode=mode,
                                         channel_axis=-3)[0]
        got = ad.batch_norm(x, gamma, beta, mean0, var0, mode=mode, channel_axis=-3)[0]
        nan = np.isnan(want)
        assert nan.any() and not nan.all()
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == clean[~nan].tobytes()

    @pytest.mark.parametrize("shape", [(32, 32, 4, 4), (2, 3, 9, 9)])
    def test_depthwise_kernel_gradient_on_the_tape(self, shape):
        """The recorded conv's kernel gradient is the per-tap sums', cast to
        the kernel's dtype."""
        rng = np.random.default_rng(45)
        x = rng.standard_normal(shape).astype(np.float32)
        up = rng.standard_normal(shape).astype(np.float32)
        for kernel in (rng.standard_normal((shape[-3], 7, 7)).astype(np.float32),
                       rng.standard_normal((shape[-3], 7, 7))):
            tape = ad.Tape()
            kv = tape.leaf(kernel, requires_grad=True)
            out = ad.depthwise_conv7x7(x, kv)
            grad = tape.backward(ad.sum_all(ad.mul(out, up)))[kv.vid]
            want = oracles.depthwise_kernel_grad_taps(x, up).astype(kernel.dtype)
            assert grad.dtype == kernel.dtype
            assert grad.tobytes() == want.tobytes()


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
        assert tape.nodes_visited == len(tape.op_names())

    def test_unreachable_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        orphan = tape.leaf(np.full(4, 2.0), requires_grad=True)
        table = tape.backward(ad.sum_all(x))
        assert np.array_equal(table[orphan.vid], np.zeros(4))


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

    def test_gradient_below_finite_difference_resolution_passes(self):
        """A shift that train-mode normalization removes has a structurally
        zero gradient: rounding noise on the tape (about 1e-15) and one
        rounding step of the loss in finite differences (8.9e-11), which
        relative_error alone rejects."""
        rng = np.random.default_rng(1)
        params = {"x": rng.standard_normal((6, 3)), "shift": rng.standard_normal(3)}
        mean, var, r = np.zeros(3), np.ones(3), rng.standard_normal((6, 3))

        def build(p):
            y, _, _ = ad.batch_norm(ad.add_bias(p["x"], p["shift"]), np.ones(3), np.zeros(3),
                                    mean, var, mode="train", channel_axis=-1)
            return ad.sum_all(ad.mul(y, r))

        tape = ad.Tape()
        lifted, leaves = ad.lift_tree(tape, params)
        analytic = tape.backward(build(lifted))[leaves["shift"].vid]
        shift = params["shift"]
        base = shift.copy()

        def f(candidate):
            shift[...] = candidate
            try:
                return float(build(params))
            finally:
                shift[...] = base

        numeric = ad.finite_diff_grad(f, base)
        assert np.abs(analytic).max() < 1e-14 and np.abs(numeric).max() > 1e-11
        assert ad.relative_error(analytic, numeric) > 1e-4
        report = ad.check_gradients(build, params)
        assert report.passed, report.to_text()
        errors = {e.name: e.max_rel_error for e in report.entries}
        assert errors["shift"] == 0.0 and errors["x"] > 0.0

    def test_zero_tape_gradient_of_a_used_leaf_fails(self):
        """A leaf the loss reads past the tape gets an exactly zero tape
        gradient; its numeric gradient is resolved, so the check fails."""
        params = {"w": np.ones(3), "hidden": np.full(2, 0.5)}
        report = ad.check_gradients(
            lambda p: ad.scalar_affine(ad.sum_all(p["w"]), float(p["hidden"].value.sum())), params)
        assert [e.name for e in report.failures()] == ["hidden"]

    def test_report_text_pass_and_fail(self):
        good = ad.GradReport([ad.GradCheckEntry("w", 1e-9)])
        assert "overall: pass" in good.to_text()
        bad = ad.GradReport([ad.GradCheckEntry("w", 1e-9), ad.GradCheckEntry("v", 0.5)])
        assert "overall: FAIL" in bad.to_text()
        assert [e.name for e in bad.failures()] == ["v"]
