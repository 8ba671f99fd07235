"""Benchmark of the pst library, driven through its public Python API.

    python3 perfbench/run.py --workload block-scale --seed 1 --seconds 20 --trace 0

Runs one workload closed loop in this process (one caller; each call waits
for the previous one), checks the outputs, and prints every metric by name
with its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``setup_s`` is the time from the benchmark's first statement to a prepared
workload (imports, parameters, inputs, dataset and warm-up calls), each
time in a process that has done nothing else yet: this process, and two
fresh ones started one after another before it prepares its own state. The
median of the three is reported.

A traced run first runs the same workload untraced in a fresh process, then
runs it again here with timing wrappers installed, and prints its own
end-to-end figures next to the untraced ones as the tracing overhead.

The library is imported from ``src/`` beside this directory; without it the
benchmark exits with code 1 and prints no result.
"""

import time

START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {"block-scale": "block_scale", "train-toy": "train_toy",
             "neck-stream": "neck_stream"}
COLD_SETUPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library() -> None:
    """Import ``pst`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "pst"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: the pst sources are missing ({package} not found)")
    sys.path.insert(0, str(package.parent))
    import pst
    if Path(pst.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: pst was imported from {pst.__file__}, not {package}")


def fresh_run(args, *extra: str):
    """This benchmark with the same workload, seed and length in a fresh
    process; its last line of output, parsed as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: the run with {' '.join(extra)} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args, start_ns: int):
    load_library()
    import harness
    import tracer as tracing
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_ns = harness.now_ns() - start_ns

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            workload.prepare(args.seed, workdir)
            return (harness.now_ns() - start_ns) / 1e9
        cold = [fresh_run(args, "--setup-only") for _ in range(COLD_SETUPS)]
        t0 = harness.now_ns()
        state = workload.prepare(args.seed, workdir)
        setup_s = harness.median([import_ns / 1e9 + (harness.now_ns() - t0) / 1e9, *cold])

        report = harness.Report()
        tracer = tracing.Tracer(workload.SPANS) if args.trace else tracing.NullTracer()
        if args.trace:
            tracer.install()
        try:
            workload.measure(state, args.seconds, tracer, report)
            end_to_end = {"setup_s": {"value": setup_s, "unit": "s"}, **report.metrics}
            report.metrics = {}
            if args.trace:
                workload.layer_metrics(state, tracer, report)
        finally:
            if args.trace:
                tracer.uninstall()
        workload.check(state, report)
        if args.trace:
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report, end_to_end


def print_report(workload: str, report, end_to_end: dict, untraced) -> None:
    for name, ok, detail in report.checks:
        print(f"check {'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    for note in report.notes:
        print(f"note  {note}")
    title = "traced end-to-end" if untraced else "end-to-end"
    for name, m in end_to_end.items():
        line = f"{title}  {name} = {m['value']:.6g} {m['unit']}"
        if untraced and name in untraced["metrics"]:
            base = untraced["metrics"][name]["value"]
            line += f"  (untraced {base:.6g}, traced/untraced {m['value'] / base:.3f})"
        print(line)
    for name, m in report.metrics.items():
        print(f"per-layer  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in report.extras.items():
        print(f"per-layer ({workload} only)  {name} = {m['value']:.6g} {m['unit']}")
    if report.absent:
        print(json.dumps({"absent": sorted(report.absent)}))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics if untraced else end_to_end,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    start_ns = START_NS
    if args.setup_only:
        print(json.dumps(run(args, start_ns)))
        return 0
    untraced = None
    if args.trace:
        untraced = fresh_run(args, "--trace", "0")
        start_ns = time.perf_counter_ns()
    report, end_to_end = run(args, start_ns)
    print_report(args.workload, report, end_to_end, untraced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
