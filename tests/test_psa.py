"""Attention pipeline: projections, scoring, selection, fusion, stacking."""

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from pst import autodiff as ad
from pst import psa
from pst import tensor_ops as ops
from pst.errors import ContractError, DimensionError, GatherIndexError
from pst.params import named_arrays
from test_threads import shared_units


def make_pair(rng, d=8, side=8, dtype=np.float64):
    x_map = rng.standard_normal((d, side, side)).astype(dtype)
    u_map = rng.standard_normal((d, side // 2, side // 2)).astype(dtype)
    return x_map, u_map


def make_params(cfg, seed=0, dtype=np.float64):
    return psa.PsaParams.create(cfg, np.random.default_rng(seed), dtype)


def coarse_attention(q, k, v, heads):
    """The attention core with a weights buffer, as the block's coarse
    stage runs it for diagnostics: the output and the [heads, N, M] weights."""
    weights = ops.attention_weights_buffer(q, k, heads)
    out, _ = psa.attention(q, k, v, heads, weights)
    return out, weights


class TestConfig:
    def test_default_heads_one_per_32_channels(self):
        assert psa.PsaConfig(token_dim=64).heads == 2
        assert psa.PsaConfig(token_dim=8).heads == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=0)
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=4096)
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=6, heads=4)
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=8, k=-1)
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=8, score_threshold=-1e-9)
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=8, fusion_mode="mean")
        with pytest.raises(ValueError):
            psa.PsaConfig(token_dim=8, stack_depth=0)


class TestProjectQkv:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 4))
        u = rng.standard_normal((4, 4))
        cfg = psa.PsaConfig(token_dim=4)
        p = make_params(cfg)
        p.wq = p.wk = p.wv = np.eye(4)
        q, k, v = psa.project_qkv(x, u, p)
        assert np.array_equal(q, x)
        assert np.array_equal(k, u)
        assert np.array_equal(v, u)

    def test_zero_coarse_tokens_give_uniform_attention(self):
        rng = np.random.default_rng(1)
        cfg = psa.PsaConfig(token_dim=8, heads=2)
        p = make_params(cfg)
        q, k, v = psa.project_qkv(rng.standard_normal((16, 8)), np.zeros((4, 8)), p)
        assert np.array_equal(k, np.zeros((4, 8)))
        assert np.array_equal(v, np.zeros((4, 8)))
        _, weights = coarse_attention(q, k, v, cfg.heads)
        assert np.allclose(weights, 0.25)

    def test_matches_transpose_formula(self):
        rng = np.random.default_rng(2)
        cfg = psa.PsaConfig(token_dim=8)
        p = make_params(cfg, seed=3)
        x = rng.standard_normal((16, 8))
        u = rng.standard_normal((4, 8))
        q, k, v = psa.project_qkv(x, u, p)
        assert np.allclose(q, x @ p.wq.T, atol=1e-6)
        assert np.allclose(k, u @ p.wk.T, atol=1e-6)
        assert np.allclose(v, u @ p.wv.T, atol=1e-6)

    def test_ratio_check(self):
        cfg = psa.PsaConfig(token_dim=4)
        p = make_params(cfg)
        with pytest.raises(DimensionError, match="4:1"):
            psa.project_qkv(np.zeros((10, 4)), np.zeros((4, 4)), p)


class TestCoarseAttention:
    def test_single_key_returns_its_value(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((1, 6))
        v = rng.standard_normal((1, 6))
        out, weights = coarse_attention(q, k, v, 2)
        assert np.allclose(out, np.broadcast_to(v, (4, 6)), atol=1e-12)
        assert np.allclose(weights, 1.0)

    def test_zero_queries_average_values(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 4))
        out, _ = coarse_attention(np.zeros((3, 4)), rng.standard_normal((5, 4)), v, 1)
        assert np.allclose(out, np.broadcast_to(v.mean(axis=0), (3, 4)), atol=1e-12)

    def test_two_heads_equal_two_half_runs(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((6, 8))
        k = rng.standard_normal((4, 8))
        v = rng.standard_normal((4, 8))
        out2, w2 = coarse_attention(q, k, v, 2)
        left, wl = coarse_attention(q[:, :4], k[:, :4], v[:, :4], 1)
        right, wr = coarse_attention(q[:, 4:], k[:, 4:], v[:, 4:], 1)
        assert np.allclose(out2, np.concatenate([left, right], axis=1), atol=1e-12)
        assert np.allclose(w2, np.concatenate([wl, wr]), atol=1e-12)

    def test_matches_per_head_oracle(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((8, 6))
        k = rng.standard_normal((4, 6))
        v = rng.standard_normal((4, 6))
        out, weights = coarse_attention(q, k, v, 3)
        ref_out, ref_w = oracles.dense_attention_heads(q, k, v, 3)
        assert np.allclose(out, ref_out, atol=1e-6)
        assert np.allclose(weights, ref_w, atol=1e-6)

    def test_weights_shape_and_row_sums(self):
        rng = np.random.default_rng(7)
        _, weights = coarse_attention(rng.standard_normal((8, 4)),
                                      rng.standard_normal((3, 4)),
                                      rng.standard_normal((3, 4)), 2)
        assert weights.shape == (2, 8, 3)
        assert np.allclose(weights.sum(axis=2), 1.0, atol=1e-6)

    def test_outputs_stay_inside_value_hull(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((5, 8))
        out, _ = coarse_attention(rng.standard_normal((12, 8)) * 3,
                                  rng.standard_normal((5, 8)), v, 2)
        eps = 1e-9
        assert np.all(out <= v.max(axis=0) + eps)
        assert np.all(out >= v.min(axis=0) - eps)


class TestKeyScores:
    def test_uniform_attention(self):
        rng = np.random.default_rng(9)
        _, scores = psa.attention(np.zeros((8, 4)), rng.standard_normal((4, 4)),
                                  rng.standard_normal((4, 4)), 2)
        assert np.allclose(scores, 0.25)

    def test_dominant_key_wins(self):
        k = np.zeros((4, 4))
        k[2] = 3.0
        _, scores = psa.attention(np.ones((6, 4)), k, np.zeros((4, 4)), 1)
        assert scores.argmax() == 2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        q, k, v = (rng.standard_normal(shape) for shape in ((12, 6), (4, 6), (4, 6)))
        _, scores = psa.attention(q, k, v, 3)
        _, weights = oracles.dense_attention_heads(q, k, v, 3)
        assert np.allclose(scores, oracles.key_scores_loops(weights), atol=1e-7)

    def test_scores_sum_to_one_for_softmax_stacks(self):
        rng = np.random.default_rng(10)
        q = rng.standard_normal((16, 8))
        k = rng.standard_normal((4, 8))
        _, scores = psa.attention(q, k, rng.standard_normal((4, 8)), 2)
        assert abs(scores.sum() - 1.0) < 1e-6

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            psa.attention(np.zeros((2, 4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), 1)


class TestAttentionCore:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_ragged_tiles_match_oracle(self, monkeypatch, heads):
        # 23 queries against 7 keys in tiles of 5 rows: four full tiles and a
        # ragged one of 3.
        monkeypatch.setattr(ops, "ATTENTION_TILE_LOGITS", 5 * heads * 7)
        rng = np.random.default_rng([60, heads])
        q, k, v = (rng.standard_normal(shape) for shape in ((23, 4), (7, 4), (7, 4)))
        weights = np.empty((heads, 23, 7))
        out, scores = psa.attention(q, k, v, heads, weights)
        ref_out, ref_weights = oracles.dense_attention_heads(q, k, v, heads)
        assert np.allclose(out, ref_out, atol=1e-12)
        assert np.allclose(weights, ref_weights, atol=1e-12)
        assert np.allclose(scores, oracles.key_scores_loops(ref_weights), atol=1e-12)

    def test_float32_key_scores_at_4096_tokens(self):
        # Block-sized core: 4096 queries, 1024 keys, two heads of 32, with
        # logits spread wide enough that float32 accumulation over all 8192
        # query rows would lose the sum.
        rng = np.random.default_rng(62)
        q, k, v = (rng.standard_normal(shape).astype(np.float32)
                   for shape in ((4096, 64), (1024, 64), (1024, 64)))
        q *= 2
        k *= 2
        _, scores = psa.attention(q, k, v, 2)
        assert abs(scores.sum() - 1.0) < 1e-6
        q64, k64 = q.astype(np.float64), k.astype(np.float64)
        exact = np.zeros(1024)
        for h in range(2):
            cols = slice(32 * h, 32 * (h + 1))
            logits = q64[:, cols] @ k64[:, cols].T / np.sqrt(32)
            att = np.exp(logits - logits.max(axis=1, keepdims=True))
            exact += (att / att.sum(axis=1, keepdims=True)).sum(axis=0)
        exact /= 2 * 4096
        assert np.abs(scores - exact).max() <= 1e-4 * exact.mean()

    def test_scaled_queries_share_the_output_buffer(self):
        """The scaled queries are written into the output, which each unit
        overwrites only after reading its own rows: a call holds its output,
        one tile and a few small buffers, and no second [N, d] array."""
        rng = np.random.default_rng(63)
        q, k, v = (rng.standard_normal(shape).astype(np.float32)
                   for shape in ((4096, 64), (1024, 64), (1024, 64)))
        tile = ops._tile_rows(4096, 1024, 2) * 1024 * 4
        ops.set_debug_checks(False)  # its finiteness mask is not the core's
        psa.attention(q, k, v, 2)
        tracemalloc.start()
        try:
            psa.attention(q, k, v, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + tile + 256 * 1024 < 2 * q.nbytes + tile

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("lead, n", [((), 64), ((), 128), ((64,), 64), ((4, 8), 16)])
    def test_skinny_stacks_match_the_row_max_steps(self, heads, lead, n):
        """Tiles with at least ATTENTION_COLUMN_MAX_ROWS rows per key take
        their row max over the key columns; out, scores and weights keep the
        bytes of the tile steps with numpy's row max (the 64-query map alone
        is the control that still takes it). Small-integer queries and keys
        make exact ties and rows of zero logits, signed zeros among them."""
        m, d = 16, 8
        rng = np.random.default_rng([64, heads, n, len(lead)])
        q = rng.integers(-2, 3, (*lead, n, d)).astype(np.float32)
        k = rng.integers(-2, 3, (*lead, m, d)).astype(np.float32)
        v = rng.standard_normal((*lead, m, d)).astype(np.float32)
        q[..., ::5, :] = 0.0
        q[..., 1::7, :] = -0.0
        k[..., ::3, :] *= -0.0
        column_max = n * max(1, int(np.prod(lead))) >= ops.ATTENTION_COLUMN_MAX_ROWS * m
        assert column_max == (lead != () or n == 128)
        weights = ops.attention_weights_buffer(q, k, heads)
        out, scores = psa.attention(q, k, v, heads, weights)
        want = oracles.attention_tile_steps(q, k, v, heads)
        for got, ref in zip((out, scores, weights), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_column_max_keeps_the_weights_of_signed_zero_maxima(self):
        """Rows whose maximum is -0, +0, a tie of both, a tie of equal
        values or infinite: the column max equals numpy's max up to the sign
        of a zero, and exp(tile - max) keeps its bytes. A NaN row gives NaN
        in the same row; the bytes of that NaN may differ and are not
        compared."""
        ops.set_debug_checks(False)
        tile = np.array([[-0.0, -1.0, -2.0], [0.0, -0.0, -3.0], [-0.0, 0.0, -1.0],
                         [2.0, 2.0, 1.0], [-5.0, -5.0, -5.0], [1.0, np.inf, 3.0],
                         [-np.inf, -np.inf, -np.inf], [1.0, np.nan, 2.0]], dtype=np.float32)
        tile = np.stack([tile, tile[::-1, ::-1]])
        got = ops._column_max(tile, np.empty(tile.shape[:-1], dtype=tile.dtype))
        want = tile.max(axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        with np.errstate(invalid="ignore"):
            e_got = np.exp(tile - got[..., None])
            e_want = np.exp(tile - want[..., None])
        finite = ~np.isnan(e_want)
        assert np.array_equal(np.isnan(e_got), ~finite)
        assert e_got[finite].tobytes() == e_want[finite].tobytes()

    @pytest.mark.parametrize("lead", [(), (32,)])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_query_row_gives_nan_in_the_same_places(self, lead):
        """A NaN in one query row makes that row of ``out`` and of the
        weights NaN, and the key scores of its sample. So does a NaN key in
        every row of its head, which then holds some NaN logits beside
        finite ones: the one case where ``np.fmax`` and numpy's max differ.
        An infinite key gives a NaN row where its logit is +inf and a zero
        weight where it is -inf. Each case runs on both row-max paths (a
        bare map, a stack of 32) and on both runners (inline, and shared
        with the pool worker as in ``tests/test_threads.py``); every other
        element keeps the bytes of ``oracles.attention_tile_steps``. The
        bytes of the NaNs may differ and are not compared."""
        ops.set_debug_checks(False)
        rng = np.random.default_rng(65)
        clean = [rng.standard_normal((*lead, rows, 8)).astype(np.float32)
                 for rows in (64, 16, 16)]
        assert (64 * max(1, int(np.prod(lead))) >= ops.ATTENTION_COLUMN_MAX_ROWS * 16) == bool(lead)
        first = (0,) * len(lead)
        # (operand, row, column, value): a query, a key of head 1, a key of head 0
        for which, row, col, value in ((0, 5, 3, np.nan), (1, 2, 6, np.nan), (1, 7, 1, np.inf)):
            q, k, v = (a.copy() for a in clean)
            (q, k)[which][first + (row, col)] = value
            wants = oracles.attention_tile_steps(q, k, v, 2)
            assert not np.isnan(wants[0]).all() and np.isnan(wants[1]).any()
            for runner in (contextlib.nullcontext, shared_units):
                weights = ops.attention_weights_buffer(q, k, 2)
                with runner(), mock.patch.object(ops._AttentionUnits, "run", autospec=True,
                                                 side_effect=ops._AttentionUnits.run) as run:
                    got = (*psa.attention(q, k, v, 2, weights), weights)
                assert run.called == (runner is shared_units)
                for have, want in zip(got, wants):
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(have), nan)
                    assert have[~nan].tobytes() == want[~nan].tobytes()

    def test_weights_buffer_shape_checked(self):
        with pytest.raises(DimensionError):
            psa.attention(np.zeros((4, 4)), np.zeros((2, 4)), np.zeros((2, 4)), 2,
                          np.empty((2, 4, 3)))

    def test_taped_core_matches_untaped_bitwise(self):
        rng = np.random.default_rng(63)
        q, k, v = (rng.standard_normal(shape).astype(np.float32)
                   for shape in ((32, 8), (8, 8), (8, 8)))
        plain, plain_scores = psa.attention(q, k, v, 2)
        tape = ad.Tape()
        taped, taped_scores = psa.attention(tape.leaf(q, requires_grad=True), k, v, 2)
        assert tape.op_names() == ["attention"]
        assert np.array_equal(plain, taped.value)
        assert np.array_equal(plain_scores, taped_scores)


class TestSelectFineIndices:
    def test_cell_five_on_a_4x4_grid(self):
        scores = np.full(16, 1e-3)
        scores[5] = 0.9
        cfg = psa.PsaConfig(token_dim=8, k=1)
        sel = psa.select_fine_indices(scores, cfg, (4, 4))
        assert sel.coarse_indices.tolist() == [5]
        assert sel.fine_indices.tolist() == [18, 19, 26, 27]

    def test_rank_then_row_major_ordering(self):
        scores = np.zeros(16)
        scores[5] = 0.5
        scores[0] = 0.3
        cfg = psa.PsaConfig(token_dim=8, k=2)
        sel = psa.select_fine_indices(scores, cfg, (4, 4))
        assert sel.coarse_indices.tolist() == [5, 0]
        assert sel.fine_indices.tolist() == [18, 19, 26, 27, 0, 1, 8, 9]
        assert np.array_equal(sel.scores, [0.5, 0.3])

    def test_k_zero_selects_nothing(self):
        cfg = psa.PsaConfig(token_dim=8, k=0)
        sel = psa.select_fine_indices(np.full(4, 0.25), cfg, (2, 2))
        assert sel.coarse_indices.size == 0
        assert sel.fine_indices.size == 0

    def test_all_below_threshold_selects_nothing(self):
        cfg = psa.PsaConfig(token_dim=8, k=4)
        sel = psa.select_fine_indices(np.full(4, 1e-9), cfg, (2, 2))
        assert sel.fine_indices.size == 0

    def test_score_count_check(self):
        cfg = psa.PsaConfig(token_dim=8, k=2)
        with pytest.raises(DimensionError):
            psa.select_fine_indices(np.zeros(15), cfg, (4, 4))

    @given(st.integers(0, 10_000), st.integers(0, 8))
    def test_selection_properties(self, seed, k):
        scores = np.random.default_rng(seed).uniform(size=16)
        scores /= scores.sum()
        cfg = psa.PsaConfig(token_dim=8, k=k)
        sel = psa.select_fine_indices(scores, cfg, (4, 4))
        coarse = sel.coarse_indices.tolist()
        assert coarse == oracles.topk_reference(scores, k, cfg.score_threshold)
        assert sel.fine_indices.size == 4 * len(coarse)
        assert len(set(sel.fine_indices.tolist())) == sel.fine_indices.size
        assert np.array_equal(sel.scores, scores[sel.coarse_indices])
        expected_fine = [f for ci in coarse for f in oracles.expand_2x2(ci, 4)]
        assert sel.fine_indices.tolist() == expected_fine
        if sel.fine_indices.size:
            assert sel.fine_indices.min() >= 0 and sel.fine_indices.max() < 64


    def test_vectorized_expansion_matches_loop_on_non_square_grid(self):
        hc, wc = 3, 5
        rng = np.random.default_rng(60)
        cfg = psa.PsaConfig(token_dim=8, k=hc * wc)
        for _ in range(20):
            scores = rng.uniform(size=hc * wc)
            scores[rng.integers(0, hc * wc, size=4)] = 0.0
            sel = psa.select_fine_indices(scores, cfg, (hc, wc))
            expected = [f for ci in sel.coarse_indices for f in oracles.expand_2x2(ci, wc)]
            assert sel.fine_indices.dtype == np.int64
            assert sel.fine_indices.tolist() == expected
            assert sel.fine_indices.max() < 4 * hc * wc


class TestFineAttention:
    def test_empty_selection_yields_zeros(self):
        cfg = psa.PsaConfig(token_dim=8, k=0)
        p = make_params(cfg)
        sel = psa.select_fine_indices(np.full(4, 0.25), cfg, (2, 2))
        q = np.random.default_rng(11).standard_normal((16, 8))
        out = psa.fine_attention(q, np.zeros((16, 8)), p, sel, cfg.heads)
        assert np.array_equal(out, np.zeros((16, 8)))

    def test_zero_queries_average_selected_values(self):
        rng = np.random.default_rng(12)
        cfg = psa.PsaConfig(token_dim=8, k=1)
        p = make_params(cfg, seed=13)
        x_tokens = rng.standard_normal((16, 8))
        scores = np.zeros(4)
        scores[2] = 1.0
        sel = psa.select_fine_indices(scores, cfg, (2, 2))
        out = psa.fine_attention(np.zeros((16, 8)), x_tokens, p, sel, cfg.heads)
        v_sel = (x_tokens @ p.wv.T)[sel.fine_indices]
        assert np.allclose(out, np.broadcast_to(v_sel.mean(axis=0), (16, 8)), atol=1e-12)

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_full_selection_equals_dense(self, dtype, atol):
        for seed in range(3):
            rng = np.random.default_rng([14, seed])
            cfg = psa.PsaConfig(token_dim=16, heads=2, k=16)
            p = make_params(cfg, seed=seed, dtype=dtype)
            x_tokens = rng.standard_normal((64, 16)).astype(dtype)
            q = rng.standard_normal((64, 16)).astype(dtype)
            sel = psa.select_fine_indices(np.full(16, 1.0 / 16), cfg, (4, 4))
            assert sel.fine_indices.size == 64
            out = psa.fine_attention(q, x_tokens, p, sel, cfg.heads)
            dense = psa.dense_cross_attention(q, x_tokens @ p.wk.T, x_tokens @ p.wv.T, cfg.heads)
            assert np.allclose(out, dense, atol=atol)

    def test_reuses_coarse_projections(self):
        """The sparse stage owns no weights; perturbing wk/wv moves it."""
        rng = np.random.default_rng(15)
        cfg = psa.PsaConfig(token_dim=8, heads=2, k=1)
        p = make_params(cfg, seed=16)
        assert {"wq", "wk", "wv", "wo", "cpe_kernel"} <= {
            n.split(".")[0] for n in named_arrays(p)}
        x_tokens = rng.standard_normal((16, 8))
        q = rng.standard_normal((16, 8))
        scores = np.zeros(4)
        scores[1] = 1.0
        sel = psa.select_fine_indices(scores, cfg, (2, 2))

        def expected(wk, wv):
            ref, _ = oracles.dense_attention_heads(
                q, (x_tokens @ wk.T)[sel.fine_indices],
                (x_tokens @ wv.T)[sel.fine_indices], cfg.heads)
            return ref

        out = psa.fine_attention(q, x_tokens, p, sel, cfg.heads)
        assert np.allclose(out, expected(p.wk, p.wv), atol=1e-10)
        shifted = dataclasses.replace(p, wk=p.wk + 0.05, wv=p.wv - 0.05)
        out2 = psa.fine_attention(q, x_tokens, shifted, sel, cfg.heads)
        assert np.allclose(out2, expected(shifted.wk, shifted.wv), atol=1e-10)
        assert not np.allclose(out, out2, atol=1e-3)


    @pytest.mark.parametrize("sample,bad", [(0, 16), (1, -1)])
    def test_stacked_index_out_of_its_sample_raises(self, sample, bad):
        """Each sample's indices are checked against its own N, not against
        the [B*N, d] rows the stack is gathered from."""
        rng = np.random.default_rng(17)
        cfg = psa.PsaConfig(token_dim=8, k=1)
        p = make_params(cfg, seed=18)
        scores = np.zeros((2, 4))
        scores[:, 1] = 1.0
        sel = psa.select_fine_indices(scores, cfg, (2, 2))
        fine = sel.fine_indices.copy()
        fine[sample, 3] = bad
        bad_sel = dataclasses.replace(sel, fine_indices=fine)
        q = rng.standard_normal((2, 16, 8))
        x_tokens = rng.standard_normal((2, 16, 8))
        assert psa.fine_attention(q, x_tokens, p, sel, cfg.heads).shape == (2, 16, 8)
        with pytest.raises(GatherIndexError, match=rf"index {bad} outside valid range \[0, 16\)"):
            psa.fine_attention(q, x_tokens, p, bad_sel, cfg.heads)


class TestConvPositionalEncoding:
    def test_delta_kernel_upsamples_values(self):
        rng = np.random.default_rng(17)
        v_tokens = rng.standard_normal((16, 3))
        kernel = np.zeros((3, 7, 7))
        kernel[:, 3, 3] = 1.0
        out = psa.conv_positional_encoding(v_tokens, (4, 4), kernel)
        v_map = oracles.tokens_grid(v_tokens, 4, 4)
        expected = oracles.grid_tokens(oracles.upsample_repeat(v_map))
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_kernel(self):
        out = psa.conv_positional_encoding(np.ones((4, 2)), (2, 2), np.zeros((2, 7, 7)))
        assert np.array_equal(out, np.zeros((16, 2)))

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(18)
        v_tokens = rng.standard_normal((16, 5))
        kernel = rng.standard_normal((5, 7, 7))
        out = psa.conv_positional_encoding(v_tokens, (4, 4), kernel)
        v_map = oracles.tokens_grid(v_tokens, 4, 4)
        expected = oracles.grid_tokens(
            oracles.upsample_repeat(oracles.depthwise_4loop(v_map, kernel)))
        assert np.allclose(out, expected, atol=1e-5)


class TestSelfGate:
    def test_zero_parameters_split_evenly(self):
        rng = np.random.default_rng(19)
        cfg = psa.PsaConfig(token_dim=8, fusion_mode="self_gating")
        p = make_params(cfg, seed=20)
        p.gate_weight[...] = 0.0
        p.gate_bias[...] = 0.0
        g = psa.self_gate(rng.standard_normal((6, 8)), rng.standard_normal((6, 8)), p, cfg)
        assert np.array_equal(g, np.full((6, 8), 0.5))

    def test_large_bias_saturates_to_fine_branch(self):
        cfg = psa.PsaConfig(token_dim=4, fusion_mode="self_gating")
        p = make_params(cfg, seed=21)
        p.gate_weight[...] = 0.0
        p.gate_bias[...] = 50.0
        rng = np.random.default_rng(22)
        g = psa.self_gate(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), p, cfg)
        assert np.allclose(g, 1.0, atol=1e-12)

    def test_matches_sigmoid_formula(self):
        rng = np.random.default_rng(23)
        cfg = psa.PsaConfig(token_dim=8, fusion_mode="self_gating")
        p = make_params(cfg, seed=24)
        oc = rng.standard_normal((5, 8))
        of = rng.standard_normal((5, 8))
        g = psa.self_gate(oc, of, p, cfg)
        cat = np.concatenate([oc, of], axis=1)
        expected = oracles.sigmoid_direct(cat @ p.gate_weight.T + p.gate_bias)
        assert np.allclose(g, expected, atol=1e-6)

    def test_sum_mode_rejects_gating(self):
        cfg = psa.PsaConfig(token_dim=4)
        p = make_params(cfg)
        with pytest.raises(ContractError):
            psa.self_gate(np.zeros((2, 4)), np.zeros((2, 4)), p, cfg)

    def test_missing_gate_parameters(self):
        sum_cfg = psa.PsaConfig(token_dim=4)
        gate_cfg = psa.PsaConfig(token_dim=4, fusion_mode="self_gating")
        p = make_params(sum_cfg)
        with pytest.raises(ContractError):
            psa.self_gate(np.zeros((2, 4)), np.zeros((2, 4)), p, gate_cfg)


class TestPsaForward:
    def test_fine_disabled_equals_k_zero(self):
        rng = np.random.default_rng(25)
        x_map, u_map = make_pair(rng)
        cfg_off = psa.PsaConfig(token_dim=8, k=8, fine_enabled=False)
        cfg_k0 = psa.PsaConfig(token_dim=8, k=0, fine_enabled=True)
        p = make_params(cfg_off, seed=26)
        out_off = psa.psa_forward(x_map, u_map, p, cfg_off)
        out_k0 = psa.psa_forward(x_map, u_map, p, cfg_k0)
        assert np.array_equal(out_off, out_k0)

    def test_zero_inputs_land_on_output_shift(self):
        cfg = psa.PsaConfig(token_dim=8, k=4, fine_enabled=True)
        p = make_params(cfg, seed=27)
        x_map = np.zeros((8, 8, 8))
        u_map = np.zeros((8, 4, 4))
        out = psa.psa_forward(x_map, u_map, p, cfg)
        assert np.array_equal(out, np.zeros((8, 8, 8)))
        p.bn_out.beta = np.random.default_rng(28).standard_normal(8)
        out2 = psa.psa_forward(x_map, u_map, p, cfg)
        assert np.array_equal(out2, np.broadcast_to(p.bn_out.beta[:, None, None], (8, 8, 8)))

    def test_training_tape_rejects_fine_and_diagnostics(self):
        rng = np.random.default_rng(29)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, k=4, fine_enabled=True)
        p = make_params(cfg, seed=30)
        tape = ad.Tape()
        xv = tape.leaf(x_map, requires_grad=True)
        uv = tape.leaf(u_map, requires_grad=True)
        with pytest.raises(ContractError, match="inference-only"):
            psa.psa_forward(xv, uv, p, cfg)
        coarse_cfg = psa.PsaConfig(token_dim=8, k=4, fine_enabled=False)
        with pytest.raises(ContractError, match="inference-only"):
            psa.psa_forward(xv, uv, p, coarse_cfg, diagnostics={})

    def test_taped_coarse_pass_matches_untaped(self):
        rng = np.random.default_rng(31)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8)
        p = make_params(cfg, seed=32)
        plain = psa.psa_forward(x_map, u_map, p, cfg)
        tape = ad.Tape()
        taped = psa.psa_forward(tape.leaf(x_map, requires_grad=True),
                                tape.leaf(u_map), p, cfg)
        assert np.array_equal(plain, taped.value)

    def test_parameters_identical_across_fine_toggle(self):
        cfg_on = psa.PsaConfig(token_dim=8, k=8, fine_enabled=True)
        cfg_off = psa.PsaConfig(token_dim=8, k=8, fine_enabled=False)
        p_on = make_params(cfg_on, seed=33)
        p_off = make_params(cfg_off, seed=33)
        names_on = dict(named_arrays(p_on))
        names_off = dict(named_arrays(p_off))
        assert names_on.keys() == names_off.keys()
        for name in names_on:
            assert names_on[name].tobytes() == names_off[name].tobytes()

    def test_gradients_identical_fine_off_vs_k_zero(self):
        rng = np.random.default_rng(34)
        x_map, u_map = make_pair(rng)
        cfg_off = psa.PsaConfig(token_dim=8, k=8, fine_enabled=False)
        cfg_k0 = psa.PsaConfig(token_dim=8, k=0, fine_enabled=True)
        p = make_params(cfg_off, seed=35)

        def grads(cfg):
            tape = ad.Tape()
            lifted, leaves = ad.lift_tree(tape, p)
            out = psa.psa_forward(x_map, u_map, lifted, cfg, bn_mode="train")
            table = tape.backward(ad.sum_all(out))
            return {name: table[var.vid] for name, var in leaves.items()}

        g_off, g_k0 = grads(cfg_off), grads(cfg_k0)
        assert g_off.keys() == g_k0.keys()
        for name in g_off:
            assert np.array_equal(g_off[name], g_k0[name]), name

    def test_diagnostics_contents(self):
        rng = np.random.default_rng(36)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, heads=2, k=3, fine_enabled=True)
        p = make_params(cfg, seed=37)
        diag = {}
        psa.psa_forward(x_map, u_map, p, cfg, diagnostics=diag)
        assert set(diag) == {"attention", "key_scores", "selection"}
        assert diag["attention"].shape == (2, 64, 16)
        assert abs(diag["key_scores"].sum() - 1.0) < 1e-6
        assert diag["selection"].coarse_indices.size <= 3
        assert diag["selection"].fine_indices.size == 4 * diag["selection"].coarse_indices.size

    def test_selection_invariant_to_per_query_logit_shifts(self):
        rng = np.random.default_rng(38)
        q = rng.standard_normal((16, 3))
        shifts = rng.standard_normal((16, 1)) * 100
        # A key column of ones turns the extra query column into a
        # per-query shift of every logit.
        k = np.hstack([rng.standard_normal((4, 3)), np.ones((4, 1))])
        v = rng.standard_normal((4, 4))
        att1 = np.empty((1, 16, 4))
        att2 = np.empty((1, 16, 4))
        _, s1 = psa.attention(np.hstack([q, np.zeros((16, 1))]), k, v, 1, att1)
        _, s2 = psa.attention(np.hstack([q, shifts]), k, v, 1, att2)
        assert np.allclose(att1, att2, atol=1e-12)
        cfg = psa.PsaConfig(token_dim=8, k=2)
        sel1 = psa.select_fine_indices(s1, cfg, (2, 2))
        sel2 = psa.select_fine_indices(s2, cfg, (2, 2))
        assert np.array_equal(sel1.fine_indices, sel2.fine_indices)

    def test_zeroed_gate_averages_branches(self):
        rng = np.random.default_rng(39)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, heads=2, k=2, fine_enabled=True,
                            fusion_mode="self_gating")
        p = make_params(cfg, seed=40)
        p.gate_weight[...] = 0.0
        p.gate_bias[...] = 0.0
        out = psa.psa_forward(x_map, u_map, p, cfg)

        x_tokens = oracles.grid_tokens(x_map)
        u_tokens = oracles.grid_tokens(u_map)
        q, k, v = x_tokens @ p.wq.T, u_tokens @ p.wk.T, u_tokens @ p.wv.T
        oc, att = oracles.dense_attention_heads(q, k, v, cfg.heads)
        scores = oracles.key_scores_loops(att)
        sel = psa.select_fine_indices(scores, cfg, (4, 4))
        of, _ = oracles.dense_attention_heads(
            q, (x_tokens @ p.wk.T)[sel.fine_indices],
            (x_tokens @ p.wv.T)[sel.fine_indices], cfg.heads)
        cpe = oracles.grid_tokens(oracles.upsample_repeat(
            oracles.depthwise_4loop(oracles.tokens_grid(v, 4, 4), p.cpe_kernel)))
        cpe = oracles.batch_norm_infer_direct(
            cpe, p.bn_cpe.gamma, p.bn_cpe.beta,
            p.bn_cpe.running_mean, p.bn_cpe.running_var, channel_axis=1)
        fused = (0.5 * of + 0.5 * oc + cpe) @ p.wo.T
        expected = oracles.batch_norm_infer_direct(
            fused, p.bn_out.gamma, p.bn_out.beta,
            p.bn_out.running_mean, p.bn_out.running_var, channel_axis=1)
        assert np.allclose(out, oracles.tokens_grid(expected, 8, 8), atol=1e-6)


class TestPsaBatch:
    def test_single_element_batch_is_exact(self):
        rng = np.random.default_rng(41)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, k=2, fine_enabled=True)
        p = make_params(cfg, seed=42)
        single = psa.psa_forward(x_map, u_map, p, cfg)
        batched = psa.psa_forward(x_map[None], u_map[None], p, cfg)
        assert batched.shape == (1, *single.shape)
        assert np.array_equal(single, batched[0])

    def test_infer_batch_matches_per_sample(self):
        rng = np.random.default_rng(43)
        pairs = [make_pair(rng) for _ in range(3)]
        cfg = psa.PsaConfig(token_dim=8, heads=2)
        p = make_params(cfg, seed=44)
        batched = psa.psa_forward(np.stack([x for x, _ in pairs]),
                                  np.stack([u for _, u in pairs]), p, cfg)
        for (x_map, u_map), out in zip(pairs, batched):
            assert np.array_equal(psa.psa_forward(x_map, u_map, p, cfg), out)

    def test_train_batch_gathers_joint_statistics(self):
        rng = np.random.default_rng(45)
        pairs = [make_pair(rng) for _ in range(2)]
        cfg = psa.PsaConfig(token_dim=8)
        p = make_params(cfg, seed=46)
        sink = []
        psa.psa_forward(np.stack([x for x, _ in pairs]), np.stack([u for _, u in pairs]),
                        p, cfg, bn_mode="train", stat_sink=sink)
        assert len(sink) == 2
        assert {id(old_mean) for old_mean, _, _, _ in sink} == {
            id(p.bn_cpe.running_mean), id(p.bn_out.running_mean)}

    def test_stacked_arrays_in_stacked_array_out(self):
        rng = np.random.default_rng(52)
        pairs = [make_pair(rng, dtype=np.float32) for _ in range(3)]
        cfg = psa.PsaConfig(token_dim=8, heads=2, k=2, fine_enabled=True)
        p = make_params(cfg, seed=53, dtype=np.float32)
        stacked = psa.psa_forward(np.stack([x for x, _ in pairs]),
                                  np.stack([u for _, u in pairs]), p, cfg)
        assert stacked.shape == (3, 8, 8, 8)
        for (x_map, u_map), out in zip(pairs, stacked):
            assert np.array_equal(psa.psa_forward(x_map, u_map, p, cfg), out)
        with pytest.raises(DimensionError, match="different batches"):
            psa.psa_forward(np.stack([x for x, _ in pairs]),
                            np.stack([u for _, u in pairs[:2]]), p, cfg)

    def test_batch_diagnostics_are_per_sample(self):
        rng = np.random.default_rng(50)
        pairs = [make_pair(rng) for _ in range(2)]
        cfg = psa.PsaConfig(token_dim=8, k=2, fine_enabled=True)
        p = make_params(cfg, seed=51)
        xs, us = np.stack([x for x, _ in pairs]), np.stack([u for _, u in pairs])
        diags = [None, {}]
        psa.psa_forward(xs, us, p, cfg, diagnostics=diags)
        single = {}
        psa.psa_forward(*pairs[1], p, cfg, diagnostics=single)
        assert diags[0] is None
        for key in ("attention", "key_scores"):
            assert np.array_equal(diags[1][key], single[key])
        assert np.array_equal(diags[1]["selection"].fine_indices,
                              single["selection"].fine_indices)
        for x, u, wrong in ((xs, us, [{}]), (xs, us, {}), (*pairs[1], [{}])):
            with pytest.raises(DimensionError, match="diagnostics"):
                psa.psa_forward(x, u, p, cfg, diagnostics=wrong)

    @pytest.mark.parametrize("fusion_mode", ["sum", "self_gating"])
    def test_ragged_stack_matches_bare_calls(self, monkeypatch, fusion_mode):
        """A [2, 2] stack whose samples keep k cells, none, fewer than k and
        k again: one fine-stage call per distinct nonzero count, and every
        sample's bytes, diagnostics and interactions as in its bare call."""
        rng = np.random.default_rng(54)
        pairs = [make_pair(rng, dtype=np.float32) for _ in range(3)]
        # Near-uniform key scores for the second sample, whose maximum
        # becomes the threshold, so that it keeps no cell.
        pairs[1] = (pairs[1][0], pairs[1][1] * np.float32(0.01))
        probe = psa.PsaConfig(token_dim=8, heads=2, fusion_mode=fusion_mode)
        p = make_params(probe, seed=55, dtype=np.float32)
        scores = []
        for x_map, u_map in pairs:
            diag = {}
            psa.psa_forward(x_map, u_map, p, probe, diagnostics=diag)
            scores.append(diag["key_scores"])
        threshold = float(scores[1].max())
        above = [int(np.count_nonzero(s > threshold)) for s in scores]
        if above[0] < above[2]:
            pairs[0], pairs[2], above[0], above[2] = pairs[2], pairs[0], above[2], above[0]
        assert 0 < above[2] < above[0]
        pairs.append(pairs[0])
        cfg = dataclasses.replace(probe, k=above[0], score_threshold=threshold,
                                  fine_enabled=True)

        bare, bare_diags, bare_pairs = [], [], 0
        for x_map, u_map in pairs:
            diag = {}
            with psa.track_interactions() as tally:
                bare.append(psa.psa_forward(x_map, u_map, p, cfg, diagnostics=diag))
            bare_diags.append(diag)
            bare_pairs += tally.total
        assert [d["selection"].coarse_indices.size for d in bare_diags] == [
            cfg.k, 0, above[2], cfg.k]

        fine_stage = psa._fine_attention
        stage_calls = []

        def counted(*args):
            stage_calls.append(args)
            return fine_stage(*args)

        monkeypatch.setattr(psa, "_fine_attention", counted)
        xs = np.stack([x for x, _ in pairs]).reshape(2, 2, 8, 8, 8)
        us = np.stack([u for _, u in pairs]).reshape(2, 2, 8, 4, 4)
        diags = [{} for _ in pairs]
        with psa.track_interactions() as tally:
            stacked = psa.psa_forward(xs, us, p, cfg, diagnostics=diags)
        assert len(stage_calls) == 2
        assert tally.total == bare_pairs
        for out, diag, single, single_diag in zip(stacked.reshape(4, 8, 8, 8), diags,
                                                   bare, bare_diags):
            assert out.tobytes() == single.tobytes()
            for key in ("attention", "key_scores"):
                assert np.array_equal(diag[key], single_diag[key])
            for field in ("coarse_indices", "scores", "fine_indices"):
                assert np.array_equal(getattr(diag["selection"], field),
                                      getattr(single_diag["selection"], field))


    @pytest.mark.parametrize("fusion_mode", ["sum", "self_gating"])
    def test_no_cell_kept_skips_fine_stage(self, monkeypatch, fusion_mode):
        """When no score passes the threshold the fine stage does not run,
        and a bare map and a stack get the bytes of refinement off."""
        rng = np.random.default_rng(56)
        x_map, u_map = make_pair(rng)
        off = psa.PsaConfig(token_dim=8, heads=2, fusion_mode=fusion_mode, fine_enabled=False)
        on = dataclasses.replace(off, fine_enabled=True, score_threshold=1.0)
        p = make_params(off, seed=57)
        expected = psa.psa_forward(x_map, u_map, p, off)
        monkeypatch.setattr(psa, "fine_attention", lambda *args: pytest.fail("fine stage ran"))
        for x, u in ((x_map, u_map), (np.stack([x_map] * 2), np.stack([u_map] * 2))):
            out = psa.psa_forward(x, u, p, on)
            assert out.tobytes() == np.broadcast_to(expected, out.shape).tobytes()

class TestPsaStack:
    def test_depth_one_is_plain_forward(self):
        rng = np.random.default_rng(49)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8)
        p = make_params(cfg, seed=50)
        assert np.array_equal(psa.psa_stack_forward(x_map, u_map, [p], cfg),
                              psa.psa_forward(x_map, u_map, p, cfg))

    def test_depth_two_stacks_channels_and_shares_kv(self):
        rng = np.random.default_rng(51)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, stack_depth=2)
        params = [make_params(cfg, seed=s) for s in (52, 53)]
        sink = {}
        out = psa.psa_stack_forward(x_map, u_map, params, cfg, debug_sink=sink)
        assert out.shape == (16, 8, 8)
        assert len(sink["stage_kv"]) == 2
        assert len(sink["stage_outputs"]) == 2
        k0, v0 = sink["stage_kv"][0]
        k1, v1 = sink["stage_kv"][1]
        assert k0 is k1 and v0 is v1
        u_tokens = oracles.grid_tokens(u_map)
        assert np.allclose(k0, u_tokens @ params[0].wk.T, atol=1e-6)
        # the first stage is the plain block; later stages query its output
        assert np.array_equal(out[:8], psa.psa_forward(x_map, u_map, params[0], cfg))

    @pytest.mark.parametrize("fine_enabled", [False, True])
    def test_shared_tokens_inputs_and_parameters_stay_unchanged(self, fine_enabled):
        rng = np.random.default_rng(55)
        x_map, u_map = make_pair(rng, dtype=np.float32)
        cfg = psa.PsaConfig(token_dim=8, k=3, fine_enabled=fine_enabled, stack_depth=3)
        params = [make_params(cfg, seed=s, dtype=np.float32) for s in (56, 57, 58)]
        before = [x_map.copy(), u_map.copy()] + [
            a.copy() for p in params for a in named_arrays(p).values()]
        sink = {}
        out = psa.psa_stack_forward(x_map, u_map, params, cfg, debug_sink=sink)
        after = [x_map, u_map] + [a for p in params for a in named_arrays(p).values()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
        k, v = sink["stage_kv"][0]
        u_tokens = ops.map_to_tokens(u_map)
        assert k.tobytes() == (u_tokens @ params[0].wk.T).tobytes()
        assert v.tobytes() == (u_tokens @ params[0].wv.T).tobytes()
        for i, tokens in enumerate(sink["stage_outputs"]):
            assert np.array_equal(out[8 * i : 8 * i + 8], ops.tokens_to_map(tokens, 8, 8))
        assert np.array_equal(out[:8], psa.psa_forward(x_map, u_map, params[0], cfg))

    def test_parameter_count_check(self):
        rng = np.random.default_rng(54)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, stack_depth=2)
        with pytest.raises(DimensionError):
            psa.psa_stack_forward(x_map, u_map, [make_params(cfg)], cfg)


class TestInteractionTracking:
    def test_coarse_pass_counts_once_per_pair(self):
        rng = np.random.default_rng(55)
        x_map, u_map = make_pair(rng)
        for heads in (1, 2, 4):
            cfg = psa.PsaConfig(token_dim=8, heads=heads)
            p = make_params(cfg, seed=56)
            with psa.track_interactions() as tally:
                psa.psa_forward(x_map, u_map, p, cfg)
            assert tally.total == 64 * 16

    @pytest.mark.parametrize("fine_enabled", [False, True])
    def test_stack_of_three_counts_three_samples(self, fine_enabled):
        rng = np.random.default_rng(59)
        pairs = [make_pair(rng) for _ in range(3)]
        cfg = psa.PsaConfig(token_dim=8, heads=2, k=2, fine_enabled=fine_enabled,
                            score_threshold=0.0)
        p = make_params(cfg, seed=60)
        with psa.track_interactions() as single:
            psa.psa_forward(*pairs[0], p, cfg)
        with psa.track_interactions() as stacked:
            psa.psa_forward(np.stack([x for x, _ in pairs]),
                            np.stack([u for _, u in pairs]), p, cfg)
        assert single.total == 64 * 16 + (64 * 8 if fine_enabled else 0)
        assert stacked.total == 3 * single.total

    def test_fine_pass_adds_gathered_pairs(self):
        rng = np.random.default_rng(57)
        x_map, u_map = make_pair(rng)
        cfg = psa.PsaConfig(token_dim=8, k=2, fine_enabled=True, score_threshold=0.0)
        p = make_params(cfg, seed=58)
        with psa.track_interactions() as tally:
            psa.psa_forward(x_map, u_map, p, cfg)
        assert tally.total == 64 * 16 + 64 * 8
