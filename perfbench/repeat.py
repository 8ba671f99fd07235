"""Repeat mode: run one workload several times, each in a fresh process.

    python3 perfbench/repeat.py --workload block-scale --runs 10 --seconds 20

Seeds run from ``--first-seed`` upwards, one per run. Prints, for every
metric, the median and the first and third quartiles of its values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread between
the quartiles as a share of the median. The bounds in ``BENCHMARK.json``
are set from these figures. Also prints the share of failed operations of
each run, which must be the same in every run, and a JSON summary last.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exited with code {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']} ({share:.6f})  " + "  ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        results.append(result)

    summary = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        summary[name] = {"unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if q2 else float("nan"),
                         "min": min(values), "max": max(values)}
        print(f"{name:<32} median {q2:12.6g} {m['unit']:<9} q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {summary[name]['spread']:7.2%}")
    f0, a0 = results[0]["failed"], results[0]["attempted"]
    same_share = all(r["failed"] * a0 == f0 * r["attempted"] for r in results)
    print(f"failed share identical in every run: {same_share}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
                      "all_correct": all(r["correct"] for r in results),
                      "failed_share_identical": same_share, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
