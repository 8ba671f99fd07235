"""Shared pieces of the workloads: statistics, the run report, memory.

The timer is ``time.perf_counter_ns`` throughout; nothing here calls into
``pst.bench``, so a change to the library's own micro-benchmark cannot move
the figures this benchmark reports.

Timed metrics are taken at the fastest of their per-operation samples, as
``timeit`` advises, not at the median: on the 2-vCPU virtual machine the
benchmark was sized on, the speed of a vCPU changes by up to 1.7x with the
host's load, for seconds to minutes at a time, and a run's median or low
percentile follows whichever state held most of the run. The README gives
the measurements. The median and the 90th percentile are printed for every
timing as well.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

now_ns = time.perf_counter_ns


def median(values) -> float:
    return float(statistics.median(values))


def fastest(values) -> float:
    """The reported statistic of a timing: its fastest sample."""
    return float(min(values))


def latency_ms(samples_by_kind: dict) -> float:
    """The ``latency_ms`` metric: the geometric mean, over a workload's kinds
    of timed operation, of the fastest sample of each kind, in ms. Each kind
    weighs the same whatever its size, so a relative change in any of them
    moves the figure by the same share."""
    logs = [np.log(fastest(samples) / 1e6) for samples in samples_by_kind.values()]
    return float(np.exp(np.mean(logs)))


def describe(name: str, values, scale: float, unit: str) -> str:
    """One line with a timing's sample count, fastest sample, median and
    90th percentile, each divided by ``scale``."""
    lo, p50, p90 = (float(np.percentile(values, q)) / scale for q in (0, 50, 90))
    return (f"{name}: {len(values)} samples, fastest {lo:.4g} {unit}, "
            f"median {p50:.4g} {unit}, p90 {p90:.4g} {unit}")


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles``
    gives them (exclusive method); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one run of a workload found: metrics, operation counts, checks."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def layer(self, name: str, unit: str, missing, value) -> None:
        """A per-layer metric, or its name on the absent list when a hook it
        needs no longer exists (``missing`` is truthy); ``value`` is only
        called for a present metric."""
        if missing:
            self.absent.append(name)
        else:
            self.metric(name, value(), unit)

    def extra(self, name: str, unit: str, missing, value) -> None:
        """A per-layer figure only this workload has: printed, but not part
        of the result line, whose metrics every workload reports."""
        if missing:
            self.absent.append(name)
        else:
            self.extras[name] = {"value": float(value()), "unit": unit}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
