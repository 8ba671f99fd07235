"""The attention core on two threads: the BLAS thread scope, the unit pool,
and byte identity of everything the core returns."""

import contextlib
import ctypes
import hashlib
import multiprocessing
import os
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pst import psa, pst_block, threads
from pst import tensor_ops as ops
from pst.errors import StateCorruptionError

CONTROL = threads.blas_control()
needs_control = pytest.mark.skipif(
    CONTROL is None, reason="no OpenBLAS thread control among the loaded shared objects: "
                            "the scope changes nothing and the core runs on one thread")
JOIN_TIMEOUT_S = 120


@contextlib.contextmanager
def shared_units():
    """The scope, with the units of every multi-unit call, however small,
    shared between the caller and the pool worker, also where the scope
    alone would give one thread (one CPU allowed, or BLAS on one thread)."""
    with threads.single_blas_thread(), \
            mock.patch.object(threads, "core_workers", lambda: 2), \
            mock.patch.object(ops, "ATTENTION_SHARED_UNIT_LOGITS", 1):
        yield


@pytest.fixture
def blas_threads():
    """Run a test at a chosen BLAS thread count, restored afterwards."""
    saved = CONTROL.get()
    yield CONTROL.set
    CONTROL.set(saved)


def _attention_inputs(seed, lead, n, m, heads, d_head, dtype):
    rng = np.random.default_rng(seed)
    d = heads * d_head
    return [(rng.standard_normal((*lead, rows, d)) * 2).astype(dtype)
            for rows in (n, m, m)]


def _core(q, k, v, heads):
    weights = ops.attention_weights_buffer(q, k, heads)
    out, scores = ops.attention(q, k, v, heads, weights)
    return out, scores, weights


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@needs_control
@given(seed=st.integers(0, 2**16), lead=st.sampled_from([(), (1,), (3,)]),
       n=st.integers(1, 40), m=st.integers(1, 40), heads=st.integers(1, 4),
       d_head=st.integers(1, 4), tile=st.sampled_from([1, 7, 64, 500, ops.ATTENTION_TILE_LOGITS]),
       dtype=st.sampled_from([np.float32, np.float64]),
       slots=st.sampled_from([1, 2, ops.ATTENTION_PARTIAL_SLOTS]))
@example(seed=0, lead=(), n=10, m=3, heads=2, d_head=2, tile=18, dtype=np.float32,
         slots=ops.ATTENTION_PARTIAL_SLOTS)  # rows 3
@example(seed=1, lead=(2,), n=9, m=40, heads=4, d_head=1, tile=7, dtype=np.float64,
         slots=1)  # rows 1
def test_units_shared_between_threads_give_the_same_bytes(seed, lead, n, m, heads, d_head,
                                                          tile, dtype, slots):
    """``out``, the key scores and the weights inside the scope, on two
    threads, equal those outside it, on one, byte for byte; with N not a
    multiple of the tile rows, M past one tile (one row per tile), and
    threads that wait for a partial slot (one or two of them)."""
    q, k, v = _attention_inputs(seed, lead, n, m, heads, d_head, dtype)
    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", tile), \
            mock.patch.object(ops, "ATTENTION_PARTIAL_SLOTS", slots):
        want = _core(q, k, v, heads)
        with shared_units():
            got = _core(q, k, v, heads)
    _assert_same_bytes(got, want)


@needs_control
def test_keys_past_one_tile_at_the_real_tile_size():
    """Two heads of 2^19 + 3 keys hold more than one tile's logits per query
    row, so every row is a tile of its own."""
    q, k, v = _attention_inputs(3, (), 5, ops.ATTENTION_TILE_LOGITS // 2 + 3, 2, 1, np.float32)
    assert ops.attention_units(5, k.shape[0], 2) == 10
    want = _core(q, k, v, 2)
    with shared_units():
        got = _core(q, k, v, 2)
    _assert_same_bytes(got, want)


@needs_control
def test_key_scores_add_tiles_in_order():
    """The first unit is held back until the other thread has run every
    later tile, with a partial slot for each. Tile 0 gives key 0 a weight of
    1/2 and each later tile one of about 4e-18, below half a float64 ulp of
    1/2; their partials must still be added after tile 0's, one at a time,
    where added first they sum past that half ulp."""
    q = np.full((40, 1), 40.0, dtype=np.float32)
    q[0] = 0.0
    k = np.array([[0.0], [1.0]], dtype=np.float32)
    real_exp, held = np.exp, []

    def exp(x, out=None):
        if not held:
            held.append(True)
            time.sleep(0.2)
        return real_exp(x, out=out)

    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 2), \
            mock.patch.object(ops, "ATTENTION_PARTIAL_SLOTS", 40):  # one row per tile
        want = _core(q, k, k, 1)
        with shared_units(), mock.patch.object(np, "exp", exp):
            got = _core(q, k, k, 1)
    assert held
    _assert_same_bytes(got, want)


@needs_control
def test_a_thread_four_tiles_ahead_waits_for_a_partial_slot():
    """With the first unit held back, the other thread starts no more tiles
    than there are partial slots until that unit is done; the bytes equal
    the one-thread call's."""
    q, k, v = _attention_inputs(8, (), 40, 2, 1, 2, np.float32)
    caller = threading.current_thread()
    real_exp, started = np.exp, []

    def exp(x, out=None):
        started.append(threading.current_thread())
        if len(started) == 1:
            time.sleep(0.2)
            # Only the slots the held tile left free were taken meanwhile.
            assert len(started) == ops.ATTENTION_PARTIAL_SLOTS
        return real_exp(x, out=out)

    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 2):  # one row per tile
        want = _core(q, k, v, 1)
        with shared_units(), mock.patch.object(np, "exp", exp):
            got = _core(q, k, v, 1)
    assert len(started) == 40 and caller in started
    _assert_same_bytes(got, want)


@needs_control
def test_the_calling_thread_allocates_every_buffer_of_a_shared_call():
    """The tiles, row vectors, partial slots and flush sums of a shared call
    are allocated by the calling thread before it hands out a unit, so the
    heap does not depend on how the units fell to the two threads: both
    threads run units, and every ``np.empty`` runs on the caller."""
    q, k, v = _attention_inputs(7, (), 64, 16, 2, 2, np.float32)
    caller = threading.current_thread()
    empties, units = [], []
    real_empty, real_exp = np.empty, np.exp

    def empty(*args, **kwargs):
        empties.append(threading.current_thread())
        return real_empty(*args, **kwargs)

    def exp(x, out=None):
        units.append(threading.current_thread())
        time.sleep(0.002)  # long enough a unit that the worker takes some
        return real_exp(x, out=out)

    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 64):  # 32 tiles of 2 rows
        want = _core(q, k, v, 2)
        with shared_units(), mock.patch.object(np, "empty", empty), \
                mock.patch.object(np, "exp", exp):
            got = _core(q, k, v, 2)
    assert caller in units and any(t is not caller for t in units)
    assert empties and all(t is caller for t in empties)
    _assert_same_bytes(got, want)


@needs_control
def test_every_array_of_a_shared_call_is_freed_on_the_calling_thread():
    """Both threads run units, and the caller frees both tiles and the
    units with every array they hold: the worker drops no last reference,
    so the caller's heap does not depend on when the worker returns."""
    q, k, v = _attention_inputs(9, (), 64, 16, 2, 2, np.float32)
    caller = threading.current_thread()
    ran, freed = set(), []
    real_exp, real_init = np.exp, ops._AttentionUnits.__init__

    def exp(x, out=None):
        ran.add(threading.current_thread())
        time.sleep(0.002)
        return real_exp(x, out=out)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        for obj in (self, *(tile for tile, _ in self.scratch)):
            weakref.finalize(obj, lambda: freed.append(threading.current_thread()))

    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 64), shared_units(), \
            mock.patch.object(np, "exp", exp), \
            mock.patch.object(ops._AttentionUnits, "__init__", init):
        _core(q, k, v, 2)
    assert len(ran) == 2
    assert freed == [caller] * 3


@needs_control
def test_shared_units_run_with_small_ufunc_buffers_restored_after():
    """Both threads of a shared call run their units with
    ``ATTENTION_UFUNC_BUFFER``-element ufunc buffers and restore their own
    size afterwards, also on an error; an inline call keeps numpy's."""
    q, k, v = _attention_inputs(11, (), 64, 16, 2, 2, np.float32)
    default = np.getbufsize()
    sizes = {}
    real_exp = np.exp

    def exp(x, out=None):
        sizes.setdefault(threading.current_thread(), set()).add(np.getbufsize())
        time.sleep(0.002)
        return real_exp(x, out=out)

    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 64), mock.patch.object(np, "exp", exp):
        _core(q, k, v, 2)
        assert list(sizes.values()) == [{default}]
        sizes.clear()
        with shared_units():
            _core(q, k, v, 2)
            assert len(sizes) == 2
            assert all(s == {ops.ATTENTION_UFUNC_BUFFER} for s in sizes.values())
            with mock.patch.object(ops, "_attention_unit", side_effect=RuntimeError("unit")):
                with pytest.raises(RuntimeError):
                    _core(q, k, v, 2)
            assert threads.pool().submit(np.getbufsize).result(JOIN_TIMEOUT_S) == default
    assert np.getbufsize() == default


def _advice() -> bool:
    """numpy's huge-page advice now, read through its switch."""
    switch = threads.page_advice()
    was = switch(True)
    switch(was)
    return was


needs_advice = pytest.mark.skipif(threads.page_advice() is None,
                                  reason="this numpy has no huge-page switch")


@needs_advice
@pytest.mark.parametrize("initial", [True, False])
def test_small_pages_nest_and_restore_at_the_outermost_exit(initial):
    switch = threads.page_advice()
    saved = switch(initial)
    try:
        with threads.small_pages():
            assert not _advice()
            with pytest.raises(RuntimeError):
                with threads.small_pages():
                    raise RuntimeError("inner")
            assert not _advice()
        assert _advice() == initial
    finally:
        switch(saved)


def test_attention_units():
    assert ops.attention_units(1024, 256, 1) == 1
    assert ops.attention_units(1024, 256, 2) == 2  # the block-scale grid of 1,024 tokens
    assert ops.attention_units(4096, 1024, 1) == 4  # `pst bench --n 4096`
    assert ops.attention_units(16384, 4096, 2) == 256
    assert ops.attention_units(5, 2**22, 1) == 5


def test_which_calls_share_their_units():
    assert not ops.attention_shares_units(1024, 256, 1)  # one unit
    assert ops.attention_shares_units(1024, 256, 2)  # two of 2^18 logits
    assert ops.attention_shares_units(4096, 1024, 1)
    assert not ops.attention_shares_units(1024, 32, 2)  # the fine stage at 1,024 tokens
    assert ops.attention_shares_units(1024, 32, 2, samples=2)  # its units on two samples
    assert not ops.attention_shares_units(64, 16, 2, samples=8)


# --- the block-scale configuration against digests of the previous core ---------

def _block_case(n):
    cfg = pst_block.PstConfig(fine_channels=32, coarse_channels=64, token_dim=64,
                              psa=psa.PsaConfig(token_dim=64, k=8, fine_enabled=True))
    rng = np.random.default_rng([9, n])
    params = pst_block.PstParams.create(cfg, rng, np.float32)
    side = int(round(n ** 0.5))
    x = rng.standard_normal((32, side, side)).astype(np.float32)
    u = rng.standard_normal((64, side // 2, side // 2)).astype(np.float32)
    return x, u, params, cfg


def _platform() -> str:
    """numpy's version and SIMD features and the BLAS build and core: what
    the bytes of a matmul or an exp depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as features
    name = CONTROL.symbol.replace("get_num_threads", "get_config")
    config = getattr(CONTROL.library, name, None)
    if config is not None:
        config.argtypes, config.restype = [], ctypes.c_char_p
        config = config().decode()
    enabled = ",".join(sorted(f for f, on in features.items() if on))
    return hashlib.sha256(f"{np.__version__}|{config}|{enabled}".encode()).hexdigest()[:16]


# SHA-256 prefixes of the output, the key scores and the fine indices, taken
# from the single-threaded core this one replaced, with numpy 2.4.6 and the
# scipy-openblas 0.3.31 wheel on a SkylakeX core with AVX-512.
DIGEST_PLATFORM = "44b8c7a23f246364"
BLOCK_DIGESTS = {
    1024: ("652454106d0cb7aece211616ae58efa6", "44d43cf4ca4d772ca7be0c046aec7d7c",
           "112473d2abedabefa646211f3789b2be"),
    4096: ("135685593fed49c90b9e3895f6631fef", "8238a60467e06c6061be0e04d49407df",
           "2e31887f94c7ed4b324b8b2ac82e99ee"),
}


@needs_control
@pytest.mark.parametrize("n", sorted(BLOCK_DIGESTS))
def test_block_bytes_equal_the_single_threaded_core(n):
    if _platform() != DIGEST_PLATFORM:
        pytest.skip("digests were recorded with another numpy, BLAS build or CPU, "
                    "whose matmul and exp bytes may differ")
    x, u, params, cfg = _block_case(n)
    assert ops.attention_units(n, n // 4, cfg.psa.heads) >= 2
    diag = {}
    out = pst_block.pst_forward(x, u, params, cfg)
    assert np.array_equal(pst_block.pst_forward(x, u, params, cfg, diagnostics=diag), out)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:32]
                for a in (out, diag["key_scores"], diag["selection"].fine_indices))
    assert got == BLOCK_DIGESTS[n]


# SHA-256 prefix of a three-stage psa_stack_forward output, on the platform
# above, taken while every stage still held its intermediates to the end and
# summed its branches out of place.
STACK_DIGEST = "dcc49c2e2422851ffa95461266c58c70"


@needs_control
def test_stack_bytes_equal_the_recorded_stack():
    if _platform() != DIGEST_PLATFORM:
        pytest.skip("digest was recorded with another numpy, BLAS build or CPU")
    cfg = psa.PsaConfig(token_dim=64, k=8, fine_enabled=True, stack_depth=3)
    rng = np.random.default_rng(21)
    params = [psa.PsaParams.create(cfg, rng, np.float32) for _ in range(3)]
    x = rng.standard_normal((64, 32, 32)).astype(np.float32)
    u = rng.standard_normal((64, 16, 16)).astype(np.float32)
    out = psa.psa_stack_forward(x, u, params, cfg)
    assert hashlib.sha256(out.tobytes()).hexdigest()[:32] == STACK_DIGEST


# --- scope and pool robustness ------------------------------------------------------

def _small_block(heads=2):
    """A cheap block over 64 fine queries and 16 coarse keys. With two heads
    its coarse attention has 16 units under a tile budget of 256 logits
    (tiles of 8 rows), and 2 at the real one; with one head, 1."""
    cfg = pst_block.PstConfig(fine_channels=3, coarse_channels=5, token_dim=8,
                              psa=psa.PsaConfig(token_dim=8, heads=heads, k=2, fine_enabled=True))
    rng = np.random.default_rng(4)
    params = pst_block.PstParams.create(cfg, rng, np.float32)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    u = rng.standard_normal((5, 4, 4)).astype(np.float32)
    return x, u, params, cfg


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(ops, "ATTENTION_TILE_LOGITS", 256)
    monkeypatch.setattr(ops, "ATTENTION_SHARED_UNIT_LOGITS", 1)
    assert ops.attention_units(64, 16, 2) == 16


@needs_control
@pytest.mark.parametrize("count", [1, 2])
def test_count_restored_after_a_block_call(blas_threads, small_tiles, monkeypatch, count):
    blas_threads(count)
    seen = []
    core = ops.attention

    def recording(*args, **kwargs):
        seen.append(CONTROL.get())
        return core(*args, **kwargs)

    monkeypatch.setattr(ops, "attention", recording)
    pst_block.pst_forward(*_small_block())
    assert seen and set(seen) == {1}  # the coarse and the fine stage ran on one BLAS thread
    assert CONTROL.get() == count


@needs_advice
def test_shared_block_runs_without_huge_page_advice(small_tiles, monkeypatch):
    seen = []
    core = ops.attention

    def recording(*args, **kwargs):
        seen.append(_advice())
        return core(*args, **kwargs)

    monkeypatch.setattr(ops, "attention", recording)
    before = _advice()
    pst_block.pst_forward(*_small_block())
    assert seen and not any(seen)
    assert _advice() == before


@needs_control
@pytest.mark.parametrize("heads", [1, 2])
def test_calls_with_nothing_to_share_enter_no_scope(blas_threads, heads):
    """One unit, or two of 1,024 logits: no scope, and no pool."""
    blas_threads(2)
    x, u, params, cfg = _small_block(heads)
    assert ops.attention_units(64, 16, heads) == heads
    with mock.patch.object(threads, "single_blas_thread", side_effect=AssertionError), \
            mock.patch.object(threads, "pool", side_effect=AssertionError):
        pst_block.pst_forward(x, u, params, cfg)
        pst_block.pst_forward(x[None], u[None], params, cfg)
    assert CONTROL.get() == 2


@needs_control
def test_count_restored_after_an_error_inside_the_scope(blas_threads, small_tiles):
    blas_threads(2)
    x, u, params, cfg = _small_block()
    params.bn_x.running_var[0] = -1.0  # checked inside the block's scope
    with pytest.raises(StateCorruptionError):
        pst_block.pst_forward(x, u, params, cfg)
    assert CONTROL.get() == 2


@needs_control
def test_nested_scopes_restore_at_the_outermost_exit(blas_threads):
    blas_threads(2)
    with threads.single_blas_thread():
        with pytest.raises(RuntimeError):
            with threads.single_blas_thread():
                assert CONTROL.get() == 1
                raise RuntimeError("inner")
        assert CONTROL.get() == 1
    assert CONTROL.get() == 2
    assert threads.core_workers() == 1


@needs_control
def test_scope_gives_two_workers_where_two_cpus_and_blas_threads_are():
    expected = 2 if len(os.sched_getaffinity(0)) >= 2 and CONTROL.get() >= 2 else 1
    assert threads.scope_workers() == expected
    with threads.single_blas_thread() as workers:
        assert workers == threads.core_workers() == expected
    assert threads.core_workers() == 1


@needs_control
def test_python_threads_running_blocks_at_once(blas_threads, small_tiles):
    """More Python threads than CPUs run multi-unit blocks through one
    shared scope and one pool worker, with a short switch interval; every
    output equals the one-thread result byte for byte, so no key-score
    partial was lost or added out of order, and the count is restored."""
    blas_threads(2)
    x, u, params, cfg = _small_block()
    diag = {}
    with mock.patch.object(threads, "core_workers", lambda: 1):
        want = pst_block.pst_forward(x, u, params, cfg, diagnostics=diag)
    want_scores = diag["key_scores"]
    failures, runs = [], []

    def worker():
        try:
            for _ in range(20):
                d = {}
                out = pst_block.pst_forward(x, u, params, cfg, diagnostics=d)
                runs.append(out.tobytes() == want.tobytes()
                            and d["key_scores"].tobytes() == want_scores.tobytes())
        except BaseException as exc:  # reported by the main thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(threads, "_workers", lambda blas: 2):
            pool = [threading.Thread(target=worker) for _ in range(3)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert not failures
    assert len(runs) == 60 and all(runs)
    assert CONTROL.get() == 2


def _child_block(queue):
    x, u, params, cfg = _small_block()
    queue.put(pst_block.pst_forward(x, u, params, cfg).tobytes())


@needs_control
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_child_forked_after_the_worker_started(small_tiles):
    x, u, params, cfg = _small_block()
    with shared_units():
        want = pst_block.pst_forward(x, u, params, cfg)
    assert any(t.name.startswith("pst-attention") for t in threading.enumerate())
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with shared_units():  # the child inherits an open scope and two workers
        child = ctx.Process(target=_child_block, args=(queue,))
        child.start()
    got = queue.get(timeout=JOIN_TIMEOUT_S)
    child.join(JOIN_TIMEOUT_S)
    assert not child.is_alive() and child.exitcode == 0
    assert got == want.tobytes()


@needs_control
def test_caller_never_waits_on_a_busy_worker():
    """With the pool worker blocked elsewhere, a call cancels its unstarted
    task and runs every unit itself."""
    q, k, v = _attention_inputs(5, (), 33, 7, 2, 3, np.float32)
    with mock.patch.object(ops, "ATTENTION_TILE_LOGITS", 20):
        want = _core(q, k, v, 2)
        release = threading.Event()
        blocker = threads.pool().submit(release.wait, JOIN_TIMEOUT_S)
        got = []
        try:
            with shared_units():
                caller = threading.Thread(target=lambda: got.append(_core(q, k, v, 2)))
                caller.start()
                caller.join(JOIN_TIMEOUT_S)
                assert not caller.is_alive()
        finally:
            release.set()
        assert blocker.result(JOIN_TIMEOUT_S)
    _assert_same_bytes(got[0], want)
