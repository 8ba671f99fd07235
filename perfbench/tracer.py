"""Span tracer for the traced run.

Only during a traced run, the tracer replaces the module attributes each
layer calls through (``pst.autodiff.softmax_rows``, ``pst.psa.key_scores``,
``pst.pst_block.psa_forward``, ``pst.autodiff.Tape.backward``, ...) with
timing wrappers. A workload names the hooks its metrics read; only those
open spans. Each span records name, start, end, parent and an optional count
taken from the operands (MACs of a matmul, elements of a softmax, tape nodes
of a backward pass). Every other ``pst.autodiff`` op only adds one to a
per-region call counter, so its time stays in the self time of the layer
that calls it. Spans stay in memory in flat arrays and are written out when
the run ends. Self times, counts and per-region averages are derived from
the spans afterwards.

A spanned hook whose target no longer exists, because the library renamed or
fused it, is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

from harness import now_ns

# Every recorded op of the tape engine; ``autodiff.calls`` counts calls into
# these. An op that no longer exists is simply not counted.
AUTODIFF_OPS = (
    "add", "mul", "scalar_affine", "matmul", "transpose", "softmax_rows",
    "conv1x1", "depthwise_conv7x7", "batch_norm", "upsample_nearest2x",
    "downsample_avg2x", "concat_channels", "map_to_tokens", "tokens_to_map",
    "gather_rows", "col_slice", "concat_cols", "row_slice", "concat_rows",
    "add_bias", "linear", "silu", "sigmoid", "mean_spatial", "sum_all",
    "mean_all", "cross_entropy",
)

COUNTED = frozenset(f"autodiff.{op}" for op in AUTODIFF_OPS)

# Hook name -> the (module, attribute) pairs the wrapper replaces. Module-level
# functions are replaced wherever a ``pst`` module holds a reference to them,
# so ``pst.pst_block.psa_forward`` and ``pst.networks.pst_forward`` (bound by
# ``from ... import``) are caught as well as the defining module's own name.
# A layer with a single-sample and a batch entry point is one hook over both,
# so that inference and training report the same layer.
HOOKS = {
    **{f"autodiff.{op}": [("pst.autodiff", op)] for op in AUTODIFF_OPS},
    "autodiff.backward": [("pst.autodiff", "Tape.backward")],
    "tensor_ops.topk_indices": [("pst.tensor_ops", "topk_indices")],
    "psa.project_qkv": [("pst.psa", "project_qkv")],
    "psa.key_scores": [("pst.psa", "key_scores")],
    "psa.select_fine_indices": [("pst.psa", "select_fine_indices")],
    "psa.fine_stage": [("pst.psa", "_fine_attention")],
    "psa.conv_positional_encoding": [("pst.psa", "conv_positional_encoding")],
    "psa.psa_forward": [("pst.psa", "psa_forward"), ("pst.psa", "psa_forward_batch")],
    "pst_block.pst_forward": [("pst.pst_block", "pst_forward"),
                              ("pst.pst_block", "pst_forward_batch")],
    "networks.backbone_forward": [("pst.networks", "backbone_forward")],
    "networks.forward": [("pst.networks", "cls_forward_batch")],
    "networks.train_step": [("pst.networks", "train_step")],
    "io.save_checkpoint": [("pst.io", "save_checkpoint")],
    "io.load_checkpoint": [("pst.io", "load_checkpoint")],
}

# Hooks whose self time per round every workload reports as
# ``<hook>.self_ms``: the layers that inference, training and the neck all
# run through. A workload spans these and may span more for its extra lines.
SELF_TIMES = (
    "autodiff.softmax_rows", "autodiff.matmul", "autodiff.scalar_affine", "autodiff.silu",
    "autodiff.batch_norm", "psa.project_qkv", "psa.conv_positional_encoding",
    "psa.psa_forward", "pst_block.pst_forward",
)

# Hooks whose span carries the peak traced allocation (MiB) inside the call,
# recorded only while tracemalloc is on.
PEAK_HOOKS = frozenset({"psa.psa_forward"})


def _matmul_macs(args, result):
    a, b = args[0], args[1]
    return a.shape[0] * a.shape[1] * b.shape[1]


def _elements(args, result):
    return int(np.prod(args[0].shape))


def _tape_nodes(args, result):
    return args[0].nodes_visited


# Counts taken per span. A count the library stops exposing marks the count
# absent (``<hook>:count``) but keeps the span.
COUNTS = {
    "autodiff.matmul": _matmul_macs,
    "autodiff.softmax_rows": _elements,
    "autodiff.backward": _tape_nodes,
}


class NullTracer:
    """Stand-in for untraced runs: regions cost one context-manager call."""

    def region(self, label: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans for the hooks in ``spans``; call counts for the other autodiff ops."""

    def __init__(self, spans):
        self.spans = frozenset(spans)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._count = array("d")
        self._stack = [-1]
        self._calls: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._start.append(0)
        self._end.append(0)
        self._count.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def region(self, label: str):
        """A root span recorded by the benchmark around one operation."""
        idx = self._open(self._id(label))
        self._start[idx] = now_ns()
        try:
            yield
        finally:
            self._end[idx] = now_ns()
            self._stack.pop()

    def _wrap(self, hook: str, fn):
        name_id = self._id(hook)
        count_fn = COUNTS.get(hook)
        peak = hook in PEAK_HOOKS
        opened = self._open
        start, end, counts, stack = self._start, self._end, self._count, self._stack
        absent = self.absent
        clock = now_ns

        def wrapper(*args, **kwargs):
            idx = opened(name_id)
            if peak and tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            else:
                base = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if base is not None:
                counts[idx] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            elif count_fn is not None:
                try:
                    counts[idx] = count_fn(args, result)
                except AttributeError:
                    absent.add(f"{hook}:count")
            return result

        return wrapper

    def _counter(self, hook: str, fn):
        """A wrapper that only counts the call against the open region."""
        stack, name, calls = self._stack, self._name, self._calls

        def wrapper(*args, **kwargs):
            if len(stack) > 1:
                calls[name[stack[1]]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every spanned hook and count every other autodiff op; record
        the spanned hooks that are missing as absent."""
        modules = [m for name, m in sys.modules.items()
                   if name == "pst" or name.startswith("pst.")]
        for hook, targets in HOOKS.items():
            if hook in self.spans:
                make = self._wrap
            elif hook in COUNTED:
                make = self._counter
            else:
                continue
            found = False
            for module_name, attr in targets:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                found = True
                wrapper = make(hook, original)
                if path:
                    self._patch(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            if not found and hook in self.spans:
                self.absent.add(hook)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span: name table, name id, parent, start, end, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self._name, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            start_ns=np.array(self._start, dtype=np.int64),
            end_ns=np.array(self._end, dtype=np.int64),
            count=np.array(self._count, dtype=np.float64))

    def aggregate(self) -> "Aggregate":
        return Aggregate(self)


class Aggregate:
    """Per-root sums over the spans: a root is a region the benchmark opened,
    and every span below it is charged to that region's label."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        name = np.array(tracer._name, dtype=np.int64)
        parent = np.array(tracer._parent, dtype=np.int64)
        dur = (np.array(tracer._end, dtype=np.int64)
               - np.array(tracer._start, dtype=np.int64)).astype(np.float64)
        count = np.array(tracer._count, dtype=np.float64)
        n = name.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        key = name[root] * len(names) + name
        uniq, inv = np.unique(key, return_inverse=True)
        self._stats = {}
        sums = [np.bincount(inv, weights=w, minlength=uniq.size)
                for w in (np.ones(n), self_ns, dur, count)]
        largest = np.zeros(uniq.size)
        np.maximum.at(largest, inv, count)
        for i, k in enumerate(uniq):
            label, hook = names[k // len(names)], names[k % len(names)]
            self._stats[(label, hook)] = (*(float(s[i]) for s in sums), float(largest[i]))
        self.absent = set(tracer.absent)
        self._calls = {names[k]: v for k, v in tracer._calls.items()}

    def _get(self, label: str, hook: str, field: int) -> float:
        return self._stats.get((label, hook), (0.0,) * 5)[field]

    def roots(self, label: str) -> int:
        return int(self._get(label, label, 0))

    def self_ms(self, label: str, hook: str) -> float:
        return self._get(label, hook, 1) / 1e6

    def total_ms(self, label: str, hook: str) -> float:
        return self._get(label, hook, 2) / 1e6

    def count(self, label: str, hook: str) -> float:
        return self._get(label, hook, 3)

    def largest(self, label: str, hook: str) -> float:
        """The largest count of one span, such as a peak allocation."""
        return self._get(label, hook, 4)

    def autodiff_calls(self, label: str) -> float:
        """Calls into autodiff ops under ``label``: spanned and counted ones."""
        spanned = sum(s[0] for (lab, hook), s in self._stats.items()
                      if lab == label and hook in COUNTED)
        return spanned + self._calls.get(label, 0)


def report_common_layers(agg: Aggregate, labels, rounds: int, report, *,
                         peak_mb: float, interactions, formula) -> None:
    """The per-layer metrics every workload reports, per round of its
    operations: the self time of each hook in ``SELF_TIMES``, the matmul and
    softmax work, the autodiff calls, the peak traced allocation of one
    attention block call (``peak_mb``), and the query-key interactions of a
    round as tallied by the library (``interactions``) and as its closed form
    gives them (``formula``); either may be None when the library no longer
    provides it. ``labels`` are the regions a round is made of."""
    def per_round(stat) -> float:
        return sum(stat(label) for label in labels) / rounds

    for hook in SELF_TIMES:
        report.layer(f"{hook}.self_ms", "ms", agg.absent & {hook},
                     lambda: per_round(lambda label: agg.self_ms(label, hook)))
    for stem, hook in (("autodiff.matmul.macs", "autodiff.matmul"),
                       ("autodiff.softmax_rows.elements", "autodiff.softmax_rows")):
        report.layer(stem, "count", agg.absent & {hook, f"{hook}:count"},
                     lambda: per_round(lambda label: agg.count(label, hook)))
    report.layer("autodiff.calls", "count", False, lambda: per_round(agg.autodiff_calls))
    report.layer("psa.psa_forward.peak_alloc_mb", "MB", agg.absent & {"psa.psa_forward"},
                 lambda: peak_mb)
    report.layer("costs.interactions", "count", interactions is None, lambda: interactions)
    report.layer("costs.interaction_formula", "count", formula is None, lambda: formula)
    if interactions is not None and formula is not None:
        report.check("interactions of a round equal the closed form",
                     interactions == formula, f"{interactions} vs {formula}")
