"""Record the benchmark's figures at the current revision.

Run from the repository root (about 15 minutes with the defaults)::

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

For every workload of ``BENCHMARK.json`` it runs ``run.py --trace 0`` on
seeds 1..N and keeps, per end-to-end metric, the median and the spread
(interquartile range over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them); then one
``run.py --trace 1`` on seed 0 for the per-layer values. It stops at the
first run whose outputs are not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    record = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, args.seeds + 1):
            for name, metric in _run(workload, seed, spec["run_seconds"],
                                     0).items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": median,
                                "spread": (q3 - q1) / median,
                                "values": vals}
            print(f"{workload:16s} {name:12s} median {median:12.6g} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        layers = {name: metric["value"]
                  for name, metric in _run(workload, 0, 0, 1).items()}
        record[workload] = {"end_to_end": end_to_end, "per_layer": layers}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
