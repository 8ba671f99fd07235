"""Acceptance gate: ten checks, each printing a single verdict line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see verdict
lines of passing checks too).
"""

import time

import numpy as np

import oracles
from pst import autodiff as ad
from pst import bench, costs, networks, psa, pst_block
from pst import io as tio
from pst import tensor_ops as ops
from pst.params import named_arrays
from test_autodiff import OP_CASES, op_stream


def verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {'pass' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def test_criterion_01_parameter_formula():
    start = time.perf_counter()
    reference = pst_block.param_count(
        pst_block.PstConfig(fine_channels=8, coarse_channels=16, token_dim=32))
    ok = reference.total == 13472 and reference.closed_form == 13472
    rng = np.random.default_rng(0)
    audited = 0
    for _ in range(50):
        c = int(rng.integers(1, 65))
        cu = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33)) * int(rng.choice([1, 32]))
        cfg = pst_block.PstConfig(fine_channels=c, coarse_channels=cu, token_dim=d)
        ledger = pst_block.param_count(cfg)
        ok = ok and ledger.total == pst_block.closed_form_param_count(c, cu, d)
        audited += 1
    elapsed = time.perf_counter() - start
    ok = ok and audited == 50 and elapsed < 1.0
    verdict(1, "parameter formula", ok,
            f"reference 13472, {audited} random audits, {elapsed:.2f}s")


def test_criterion_02_complexity_formula():
    start = time.perf_counter()
    ok = True
    for n in (16, 64, 256, 1024):
        for k in (0, 4, 8, 16):
            report = costs.count_interactions(psa.PsaConfig(token_dim=8, k=k), n)
            coarse, fine = costs.interaction_formula(n, k)
            ok = ok and report.coarse_measured == coarse and report.fine_measured == fine
            if n == 64 and k == 8:
                ok = ok and (report.coarse_measured, report.fine_measured,
                             report.total_measured) == (1024, 2048, 3072)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(2, "complexity formula", ok, f"16 grid points, {elapsed:.2f}s")


def test_criterion_03_sparse_dense_oracle():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for trial in range(20):
        dtype, atol = (np.float32, 1e-5) if trial % 2 else (np.float64, 1e-10)
        rng = np.random.default_rng([3, trial])
        cfg = psa.PsaConfig(token_dim=16, heads=2, k=16)
        p = psa.PsaParams.create(cfg, rng, dtype)
        x_tokens = rng.standard_normal((64, 16)).astype(dtype)
        q = rng.standard_normal((64, 16)).astype(dtype)
        sel = psa.select_fine_indices(np.full(16, 1.0 / 16), cfg, (4, 4))
        sparse = psa.fine_attention(q, x_tokens, p, sel, cfg.heads)
        dense = psa.dense_cross_attention(
            q, x_tokens @ p.wk.T, x_tokens @ p.wv.T, cfg.heads)
        gap = float(np.max(np.abs(sparse - dense)))
        worst = max(worst, gap / atol)
        ok = ok and gap < atol
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(3, "sparse-dense oracle", ok,
            f"20 trials, worst gap {worst:.2e} of budget, {elapsed:.2f}s")


def test_criterion_04_toggle_identity(tmp_path):
    rng = np.random.default_rng(4)
    cfg_off = psa.PsaConfig(token_dim=8, k=8, fine_enabled=False)
    cfg_k0 = psa.PsaConfig(token_dim=8, k=0, fine_enabled=True)
    p = psa.PsaParams.create(cfg_off, rng, np.float32)
    x_map = rng.standard_normal((8, 8, 8)).astype(np.float32)
    u_map = rng.standard_normal((8, 4, 4)).astype(np.float32)
    bit_identical = np.array_equal(psa.psa_forward(x_map, u_map, p, cfg_off),
                                   psa.psa_forward(x_map, u_map, p, cfg_k0))

    p_off = psa.PsaParams.create(cfg_off, np.random.default_rng(44), np.float32)
    p_on = psa.PsaParams.create(
        psa.PsaConfig(token_dim=8, k=8, fine_enabled=True),
        np.random.default_rng(44), np.float32)
    tio.save_checkpoint(tmp_path / "off", p_off)
    tio.save_checkpoint(tmp_path / "on", p_on)
    digests_equal = (tio.checkpoint_digest(tmp_path / "off")
                     == tio.checkpoint_digest(tmp_path / "on"))
    verdict(4, "train/infer toggle", bit_identical and digests_equal,
            "bit-identical outputs, checkpoint checksums equal")


def test_criterion_05_gradient_checks():
    start = time.perf_counter()
    ok = True
    failures = []
    for op, factory in sorted(OP_CASES.items()):
        params, build = factory(np.random.default_rng([5, op_stream(op)]))
        report = ad.check_gradients(build, params)
        if not report.passed:
            failures.append(op)
            ok = False

    rng = np.random.default_rng(55)
    cfg = pst_block.PstConfig(fine_channels=3, coarse_channels=5, token_dim=8,
                              psa=psa.PsaConfig(token_dim=8, heads=2))
    p = pst_block.PstParams.create(cfg, rng, np.float64)
    x = rng.standard_normal((3, 8, 8))
    u = rng.standard_normal((5, 4, 4))
    probe = rng.standard_normal((16, 8, 8))

    def build_block(lifted):
        out = pst_block.pst_forward(x, u, lifted, cfg)
        return ad.sum_all(ad.mul(out, probe))

    block_report = ad.check_gradients(build_block, p)
    if not block_report.passed:
        failures.append("pst_block")
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    verdict(5, "gradient checks", ok,
            f"{len(OP_CASES)} op cases + full block, "
            f"failures {failures or 'none'}, {elapsed:.1f}s")


def test_criterion_06_learning_works():
    start = time.perf_counter()
    result = networks.train_toy(seed=1, n=512, num_classes=4, steps=300,
                                lr=0.05, momentum=0.9)
    elapsed = time.perf_counter() - start
    replay = networks.train_toy(seed=1, n=512, num_classes=4, steps=3,
                                lr=0.05, momentum=0.9)
    deterministic = replay.losses == result.losses[:3]
    ok = result.final_accuracy >= 0.90 and elapsed < 300.0 and deterministic
    verdict(6, "learning works", ok,
            f"train accuracy {result.final_accuracy:.4f} after 300 steps, "
            f"{elapsed:.1f}s, seed-deterministic {deterministic}")


def test_criterion_07_topk_semantics():
    scores = np.full(16, 1e-3)
    scores[5] = 0.9
    cfg1 = psa.PsaConfig(token_dim=8, k=1)
    sel = psa.select_fine_indices(scores, cfg1, (4, 4))
    expansion_ok = sel.fine_indices.tolist() == [18, 19, 26, 27]

    threshold_ok = ops.topk_indices(np.array([1e-7, 0.9]), 2, 1e-6).tolist() == [1]
    order_ok = ops.topk_indices(np.array([0.1, 0.4, 0.3]), 3, 0.0).tolist() == [1, 2, 0]
    tie_ok = ops.topk_indices(np.array([0.5, 0.5, 0.1]), 2, 0.0).tolist() == [0, 1]

    rng = np.random.default_rng(7)
    enum_ok = True
    for _ in range(200):
        s = rng.uniform(size=16)
        k = int(rng.integers(0, 9))
        enum_ok = enum_ok and (ops.topk_indices(s, k, 1e-6).tolist()
                               == oracles.topk_reference(s, k, 1e-6))
    ok = expansion_ok and threshold_ok and order_ok and tie_ok and enum_ok
    verdict(7, "top-k semantics", ok,
            "expansion {18,19,26,27}, threshold, order, tie-break, 200 enumerations")


def test_criterion_08_normalization_invariants():
    rng = np.random.default_rng(8)
    softmax_ok = convexity_ok = mass_ok = True
    for _ in range(100):
        logits = rng.uniform(-1e3, 1e3, size=(6, 5))
        rows = ops.softmax_rows(logits).sum(axis=1)
        softmax_ok = softmax_ok and bool(np.all(np.abs(rows - 1.0) < 1e-6))

        q = rng.standard_normal((8, 4))
        kk = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out, scores = psa.attention(q, kk, v, 2)
        eps = 1e-9
        convexity_ok = convexity_ok and bool(
            np.all(out <= v.max(axis=0) + eps) and np.all(out >= v.min(axis=0) - eps))
        mass_ok = mass_ok and abs(scores.sum() - 1.0) < 1e-6
    ok = softmax_ok and convexity_ok and mass_ok
    verdict(8, "normalization and convexity invariants", ok, "100 trials each")


def test_criterion_09_ablation_plumbing():
    rng = np.random.default_rng(9)
    x_map = rng.standard_normal((8, 8, 8))
    u_map = rng.standard_normal((8, 4, 4))

    gate_cfg = psa.PsaConfig(token_dim=8, heads=2, k=2, fine_enabled=True,
                             fusion_mode="self_gating")
    gp = psa.PsaParams.create(gate_cfg, np.random.default_rng(90), np.float64)
    gp.gate_weight[...] = 0.0
    gp.gate_bias[...] = 0.0
    gated = psa.psa_forward(x_map, u_map, gp, gate_cfg)
    x_tokens = oracles.grid_tokens(x_map)
    u_tokens = oracles.grid_tokens(u_map)
    q, k, v = x_tokens @ gp.wq.T, u_tokens @ gp.wk.T, u_tokens @ gp.wv.T
    oc, att = oracles.dense_attention_heads(q, k, v, gate_cfg.heads)
    sel = psa.select_fine_indices(oracles.key_scores_loops(att), gate_cfg, (4, 4))
    of, _ = oracles.dense_attention_heads(
        q, (x_tokens @ gp.wk.T)[sel.fine_indices],
        (x_tokens @ gp.wv.T)[sel.fine_indices], gate_cfg.heads)
    cpe = oracles.grid_tokens(oracles.upsample_repeat(
        oracles.depthwise_4loop(oracles.tokens_grid(v, 4, 4), gp.cpe_kernel)))
    cpe = oracles.batch_norm_infer_direct(
        cpe, gp.bn_cpe.gamma, gp.bn_cpe.beta,
        gp.bn_cpe.running_mean, gp.bn_cpe.running_var, channel_axis=1)
    fused = (0.5 * (oc + of) + cpe) @ gp.wo.T
    expected = oracles.batch_norm_infer_direct(
        fused, gp.bn_out.gamma, gp.bn_out.beta,
        gp.bn_out.running_mean, gp.bn_out.running_var, channel_axis=1)
    gate_ok = bool(np.max(np.abs(gated - oracles.tokens_grid(expected, 8, 8))) < 1e-6)

    cfg = psa.PsaConfig(token_dim=8)
    p = psa.PsaParams.create(cfg, np.random.default_rng(91), np.float64)
    stack_ok = np.array_equal(psa.psa_stack_forward(x_map, u_map, [p], cfg),
                              psa.psa_forward(x_map, u_map, p, cfg))

    deep_cfg = psa.PsaConfig(token_dim=8, stack_depth=3)
    deep_params = [psa.PsaParams.create(deep_cfg, np.random.default_rng(s), np.float64)
                   for s in (92, 93, 94)]
    sink = {}
    psa.psa_stack_forward(x_map, u_map, deep_params, deep_cfg, debug_sink=sink)
    kv = sink["stage_kv"]
    share_ok = all(pair[0] is kv[0][0] and pair[1] is kv[0][1] for pair in kv)
    share_ok = share_ok and np.array_equal(kv[0][0], u_tokens @ deep_params[0].wk.T)

    ok = gate_ok and stack_ok and share_ok
    verdict(9, "ablation plumbing", ok,
            f"zero-gate mean {gate_ok}, depth-1 identity {stack_ok}, shared K/V {share_ok}")


def test_criterion_10_relative_cost():
    cmp = bench.bench_psa_vs_dense(n=4096, token_dim=32, repeats=10, warmup=3)
    ok = cmp.ratio < 1.0
    verdict(10, "relative cost", ok,
            f"pooled/dense median ratio {cmp.ratio:.3f} at n=4096")
