"""BLAS thread control, numpy's huge-page advice, and the attention core's
second thread.

numpy's OpenBLAS runs its matmuls on a pool of its own, and after every
threaded call its worker spins on a CPU for about a tenth of a second. On a
small machine that worker holds the only other CPU while the attention
core's single-threaded softmax passes run. :func:`single_blas_thread` is the
scope that swaps the two: inside it BLAS runs on the calling thread alone,
and :func:`pst.tensor_ops.attention` shares its work units with one worker
thread of :func:`pool` instead.

The thread controls are found with ctypes among the shared objects the
process has loaded (``/proc/self/maps``), under the names the scipy-openblas
wheels and plain OpenBLAS builds export. Where none is found, the scope
changes nothing and the core runs on one thread.

On Linux numpy advises huge pages for every array of 4 MiB or more. The
flag stays on that stretch of malloc's heap, so later arrays placed there
get 2 MiB pages too, and the kernel's background collapse of pages fills
others in at times of its own: a process running large blocks back to back
ended with a peak resident set 4 MB higher in some runs than in others.
:func:`small_pages` is the scope that turns the advice off.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import os
import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# (get, set) pairs, in the order they are looked for.
CONTROL_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_UNSET = object()
_control = _UNSET
_lock = threading.Lock()
_depth = 0
_saved = 0  # BLAS thread count the outermost open scope restores
_workers_now = 1  # what core_workers() reads while a scope is open
_pool: Optional["ThreadPoolExecutor"] = None
_advice = _UNSET
_page_depth = 0
_page_saved = True  # huge-page advice the outermost small_pages() restores


class BlasControl:
    """The ``get``/``set`` thread-count functions of one loaded BLAS."""

    def __init__(self, library: ctypes.CDLL, get_name: str, set_name: str):
        self.library, self.symbol = library, get_name
        self._get = getattr(library, get_name)
        self._get.argtypes, self._get.restype = [], ctypes.c_int
        self._set = getattr(library, set_name)
        self._set.argtypes, self._set.restype = [ctypes.c_int], None

    def get(self) -> int:
        return self._get()

    def set(self, count: int) -> None:
        self._set(count)


def _loaded_objects() -> list[str]:
    """Paths of the shared objects mapped into this process, in map order."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return []
    return list(dict.fromkeys(p for p in paths if p.startswith("/") and ".so" in p))


def _find_control() -> Optional[BlasControl]:
    libraries = []
    for path in _loaded_objects():
        try:  # RTLD_NOLOAD: a handle to what is loaded already, never a new load
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    for get_name, set_name in CONTROL_SYMBOLS:
        for library in libraries:
            if hasattr(library, get_name) and hasattr(library, set_name):
                return BlasControl(library, get_name, set_name)
    return None


def blas_control() -> Optional[BlasControl]:
    """The thread control of the BLAS numpy loaded, or None where none is
    found. Looked up once, on first use."""
    global _control
    with _lock:
        if _control is _UNSET:
            _control = _find_control()
        return _control


def _workers(blas_threads: int) -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if blas_threads >= 2 and (cpus or 1) >= 2 else 1


def core_workers() -> int:
    """Threads the attention core runs its units on now: two inside a scope
    that replaced two or more BLAS threads on a process allowed two CPUs,
    one otherwise."""
    return _workers_now if _depth else 1


def scope_workers() -> int:
    """What :func:`core_workers` would read inside a scope entered now."""
    control = blas_control()
    if control is None:
        return 1
    with _lock:
        return _workers_now if _depth else _workers(control.get())


@contextlib.contextmanager
def single_blas_thread():
    """Run BLAS on the calling thread alone until the outermost scope exits.

    Re-entrant and shared by every Python thread: the first scope in saves
    the BLAS thread count and sets it to one, and the last scope out, on an
    exception too, restores the saved count. Yields :func:`core_workers`.
    Without a BLAS control it changes nothing and yields 1.
    """
    global _depth, _saved, _workers_now
    control = blas_control()
    if control is None:
        yield 1
        return
    with _lock:
        if not _depth:
            _saved = control.get()
            _workers_now = _workers(_saved)
            control.set(1)
        _depth += 1
    try:
        yield core_workers()
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                control.set(_saved)


def page_advice():
    """numpy's switch of its huge-page advice, which takes the new setting
    and returns the old one; None where this numpy has none. Looked up once,
    on first use."""
    global _advice
    with _lock:
        if _advice is _UNSET:
            _advice = None
            for name in ("numpy._core.multiarray", "numpy.core.multiarray"):
                try:
                    module = importlib.import_module(name)
                except ImportError:
                    continue
                _advice = getattr(module, "_set_madvise_hugepage", None)
                break
        return _advice


@contextlib.contextmanager
def small_pages():
    """Keep numpy from advising huge pages for the arrays it allocates until
    the outermost scope exits.

    Re-entrant and shared by every Python thread, as
    :func:`single_blas_thread` is: the first scope in saves the setting and
    turns the advice off, and the last scope out, on an exception too,
    restores it. Without numpy's switch it changes nothing.
    """
    global _page_depth, _page_saved
    advice = page_advice()
    if advice is None:
        yield
        return
    with _lock:
        if not _page_depth:
            _page_saved = advice(False)
        _page_depth += 1
    try:
        yield
    finally:
        with _lock:
            _page_depth -= 1
            if not _page_depth:
                advice(_page_saved)


def pool() -> "ThreadPoolExecutor":
    """The one-thread executor that runs the attention core's second worker,
    created on first use."""
    # Imported here: concurrent.futures adds 0.6 MB to every process that
    # imports the package, and most never run a multi-unit block.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pst-attention")
        return _pool


def _after_fork_in_child() -> None:
    # The child has no worker thread and no other Python thread: start from
    # a fresh lock and a fresh pool. A scope open in the parent stays open.
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_after_fork_in_child)
