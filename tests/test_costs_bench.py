"""Interaction accounting and the timing harness."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from pst import bench, costs, threads
from pst import tensor_ops as ops
from pst.errors import AccountingError, DimensionError
from pst.psa import PsaConfig


class TestInteractionFormula:
    def test_reference_points(self):
        assert costs.interaction_formula(64, 8) == (1024, 2048)
        assert costs.interaction_formula(16, 8) == (64, 256)
        assert costs.interaction_formula(64, 0) == (1024, 0)
        assert costs.interaction_formula(256, 16) == (16384, 16384)

    def test_fine_term_caps_at_n(self):
        n = 64
        assert costs.interaction_formula(n, 1000)[1] == n * n

    def test_divisibility_check(self):
        with pytest.raises(DimensionError):
            costs.interaction_formula(63, 8)


class TestCountInteractions:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_measured_matches_formula(self, n, k):
        cfg = PsaConfig(token_dim=8, k=k)
        report = costs.count_interactions(cfg, n)
        coarse, fine = costs.interaction_formula(n, k)
        assert report.coarse_measured == coarse
        assert report.fine_measured == fine
        assert report.total_measured == report.total_formula
        assert report.dense_baseline == n * n

    def test_head_count_does_not_change_interactions(self):
        for heads in (1, 2, 4):
            cfg = PsaConfig(token_dim=8, heads=heads, k=4)
            report = costs.count_interactions(cfg, 64)
            assert report.total_measured == 1024 + 1024

    def test_non_square_token_count(self):
        cfg = PsaConfig(token_dim=8, k=4)
        with pytest.raises(DimensionError, match="square"):
            costs.count_interactions(cfg, 60)
        with pytest.raises(DimensionError, match="even"):
            costs.count_interactions(cfg, 81)

    def test_drift_raises_accounting_error(self, monkeypatch):
        monkeypatch.setattr(costs, "interaction_formula", lambda n, k: (1, 0))
        cfg = PsaConfig(token_dim=8, k=0)
        with pytest.raises(AccountingError, match="coarse interactions"):
            costs.count_interactions(cfg, 16)

    def test_report_text(self):
        cfg = PsaConfig(token_dim=32, k=8)
        report = costs.count_interactions(cfg, 64)
        text = report.to_text()
        assert "coarse interactions: 1024 (formula 1024)" in text
        assert "fine interactions:   2048 (formula 2048)" in text
        assert "vs dense 4096" in text


class TestMacBreakdown:
    def test_totals_are_consistent(self):
        macs = costs.mac_breakdown(64, 8, 32, fine_enabled=True)
        parts = {k: v for k, v in macs.items() if k != "total"}
        assert macs["total"] == sum(parts.values())
        assert "fine_attention" in macs

    def test_coarse_only_omits_fine_stages(self):
        macs = costs.mac_breakdown(64, 8, 32, fine_enabled=False)
        assert "fine_attention" not in macs
        assert "fine_kv_projection" not in macs

    def test_attention_macs_follow_pair_counts(self):
        n, k, d = 64, 8, 16
        coarse, fine = costs.interaction_formula(n, k)
        macs = costs.mac_breakdown(n, k, d, fine_enabled=True)
        assert macs["coarse_attention"] == 2 * coarse * d
        assert macs["fine_attention"] == 2 * fine * d

    def test_fine_projection_covers_only_gathered_tokens(self):
        d = 16
        assert costs.mac_breakdown(64, 8, d, fine_enabled=True)["fine_kv_projection"] == 2 * 32 * d * d
        assert costs.mac_breakdown(64, 32, d, fine_enabled=True)["fine_kv_projection"] == 2 * 64 * d * d


class TestBenchmark:
    def test_minimum_sample_counts(self):
        with pytest.raises(ValueError, match="repeats"):
            bench.benchmark(lambda: None, repeats=9, warmup=3)
        with pytest.raises(ValueError, match="warmup"):
            bench.benchmark(lambda: None, repeats=10, warmup=2)

    def test_stats_ordering_and_fields(self):
        stats = bench.benchmark(lambda: sum(range(100)), repeats=12, warmup=3)
        assert len(stats.samples_ns) == 12
        assert stats.p10_ns <= stats.median_ns <= stats.p90_ns
        assert stats.median_ms == stats.median_ns / 1e6
        assert "12 runs" in stats.to_text()

    def test_call_counts(self):
        calls = []
        bench.benchmark(lambda: calls.append(1), repeats=10, warmup=3)
        assert len(calls) == 13


class TestPsaVsDense:
    def test_small_comparison_runs(self):
        cmp = bench.bench_psa_vs_dense(n=64, token_dim=8, repeats=10, warmup=3)
        assert cmp.ratio > 0
        text = cmp.to_text()
        assert "environment:" in text and "f32" in text
        assert "median ratio pooled/dense:" in text

    def test_workers_follow_the_pooled_units(self, monkeypatch):
        """A pooled side with one unit runs its core on one thread; with
        several large enough to share, on as many as a scope entered now
        would give."""
        assert bench.bench_psa_vs_dense(n=256, token_dim=8, repeats=10, warmup=3).workers == 1
        monkeypatch.setattr(ops, "ATTENTION_TILE_LOGITS", 1024)  # 16 tiles of 16 rows
        monkeypatch.setattr(ops, "ATTENTION_SHARED_UNIT_LOGITS", 1024)
        cmp = bench.bench_psa_vs_dense(n=256, token_dim=8, repeats=10, warmup=3)
        assert cmp.workers == threads.scope_workers()
        assert f"pooled attention core on {cmp.workers} thread(s)" in cmp.to_text()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            bench.bench_psa_vs_dense(n=60, repeats=10, warmup=3)

    def test_pooled_and_dense_samples_alternate(self, monkeypatch):
        order = []
        monkeypatch.setattr(bench, "psa_forward", lambda *a, **k: order.append("pooled"))
        monkeypatch.setattr(bench, "dense_cross_attention",
                            lambda *a, **k: order.append("dense"))
        bench.bench_psa_vs_dense(n=64, token_dim=8, repeats=10, warmup=3)
        # Warmup and timed calls, then one untimed call each for the traced peak.
        assert order == ["pooled", "dense"] * 14

    def test_dense_side_runs_in_the_thread_scope(self, monkeypatch):
        depth = [0]
        seen = []

        @contextlib.contextmanager
        def scope():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1

        def dense(*args, **kwargs):
            seen.append(depth[0])
            return np.zeros(1)

        monkeypatch.setattr(threads, "single_blas_thread", scope)
        monkeypatch.setattr(bench, "dense_cross_attention", dense)
        bench.bench_psa_vs_dense(n=64, token_dim=8, repeats=10, warmup=3)
        assert seen == [1] * 14

    def test_peak_allocation_per_side(self):
        cmp = bench.bench_psa_vs_dense(n=256, token_dim=8, repeats=10, warmup=3)
        # Dense attention holds its [256, 256] weights tile; the pooled side
        # at most a [256, 64] one.
        assert cmp.dense_peak_mb > 256 * 256 * 4 / 2**20 > cmp.pooled_peak_mb > 0
        assert "peak alloc" in cmp.to_text()

    def test_traced_peak_inside_a_running_session(self):
        tracemalloc.start()
        try:
            held = np.ones(2**20, np.uint8)
            np.ones(2**22, np.uint8)  # an earlier 4 MiB peak
            peak = bench.traced_peak_mb(lambda: np.ones(2**18, np.uint8))
            assert tracemalloc.is_tracing()
            assert tracemalloc.get_traced_memory()[0] >= held.nbytes
            assert 0.25 <= peak < 0.5
        finally:
            tracemalloc.stop()

    def test_outputs_deterministic_across_timing(self):
        """The benchmark times fixed-seed closures; rerunning them is pure."""
        cfg = PsaConfig(token_dim=8, heads=1, k=0)
        from pst.psa import PsaParams, psa_forward
        rng = np.random.default_rng(0)
        p = PsaParams.create(cfg, rng, np.float32)
        x = rng.standard_normal((8, 8, 8)).astype(np.float32)
        u = rng.standard_normal((8, 4, 4)).astype(np.float32)
        assert np.array_equal(psa_forward(x, u, p, cfg), psa_forward(x, u, p, cfg))
