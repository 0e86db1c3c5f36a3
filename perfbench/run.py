"""Scenario benchmark of the simulated burst buffer.

Run from the repository root::

    python3 perfbench/run.py --workload contended_write --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` repeats the seeded scenario for ``--seconds`` of host time
(at least three times) with no instrumentation and reports the end-to-end
metrics. ``--trace 1`` reports the per-layer metrics instead, from four
runs of the same seed: a plain run (program counters, timing baseline), a
traced run (spans around the public entry points; its spans are written
as Chrome trace-event JSON to ``perfbench/out/``), a call-counting run
(``sys.setprofile``), and a plain run of the next seed. The traced and
counting runs must reproduce the plain run's digest; the next seed must
not.

Every metric is printed with its unit; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when the run completed (``correct`` says whether the outputs
passed the gates) and non-zero when it could not run at all, e.g. when
the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fewest timed repetitions per run, however short --seconds is
MIN_REPS = 3
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 5
#: per-run subprocess limit, seconds
PROBE_TIMEOUT = 120

END_TO_END = ("req_per_s", "setup_s", "peak_rss_mb", "sim_gbps",
              "lat_p50_ms", "lat_p99_ms", "jain", "tput_cv")


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    fixed = {"req_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "sim_gbps": "GB/s", "jain": "index", "tput_cv": "ratio",
             "bb.repair_s": "s", "trace.overhead_frac": "ratio",
             "fs.lock_wake_useful_frac": "ratio"}
    if name in fixed:
        return fixed[name]
    if "bytes" in name:
        return "B"
    if name.endswith("_us") or "_us_" in name:
        return "us"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    return "count"


def _gate(run, errors):
    errors.extend(f"{run.scenario.name} seed {run.scenario.seed}: {e}"
                  for e in run.errors)


def measure_e2e(workload: str, seed: int, seconds: float):
    import measure
    import scenarios
    make = scenarios.BUILDERS[workload]
    errors = []
    rates, digests = [], set()
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while len(rates) < MIN_REPS or time.perf_counter() - start < seconds:
        run = scenarios.execute(scenarios.build(make(seed)))
        _gate(run, errors)
        rates.append(run.served / run.host_run_s)
        digests.add(run.digest())
        attempted += len(run.records)
        failed += run.failed
        first = first or run
    if len(digests) != 1:
        errors.append(f"repetitions of one seed disagree: {sorted(digests)}")
    metrics = measure.end_to_end(first)
    jain_min = first.scenario.jain_min
    if jain_min is not None and metrics["jain"] < jain_min:
        errors.append(f"jain {metrics['jain']:.4f} below {jain_min}")
    if metrics["lat_samples"] < 1000:
        errors.append(f"only {metrics['lat_samples']} latency samples: "
                      f"p99 needs at least 1000 for ten beyond it")
    metrics["req_per_s"] = statistics.median(rates)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(
        _setup_probe(workload, seed) for _ in range(SETUP_PROBES))
    print(f"# {workload} seed {seed}: {len(rates)} runs, digest "
          f"{first.digest()}, latency p99 of {metrics['lat_samples']} samples")
    return metrics, errors, attempted, failed


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its first simulated
    event (CLOCK_MONOTONIC is shared by both processes)."""
    launched = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        check=True)
    return float(out.stdout.split()[-1]) - launched


def probe_setup(workload: str, seed: int) -> None:
    import scenarios
    run = scenarios.build(scenarios.BUILDERS[workload](seed))
    run.cluster.engine.step()
    print(repr(time.monotonic()))


def measure_layers(workload: str, seed: int):
    import measure
    import scenarios
    from counting import CallCounter
    from tracing import Tracer
    make = scenarios.BUILDERS[workload]
    errors = []
    # The first run of a process pays one-off warm-up; time the second.
    for _ in range(2):
        plain = scenarios.execute(scenarios.build(make(seed)))
    tracer = Tracer()
    tracer.install()
    try:
        traced = scenarios.execute(scenarios.build(make(seed)))
    finally:
        tracer.uninstall()
    counter = CallCounter(SRC)
    counted = scenarios.execute(scenarios.build(make(seed)), around=counter)
    other = scenarios.execute(scenarios.build(make(seed + 1)))
    for run in (plain, traced, counted, other):
        _gate(run, errors)
    digest = plain.digest()
    if traced.digest() != digest or counted.digest() != digest:
        errors.append(f"instrumentation changed the run: plain {digest}, "
                      f"traced {traced.digest()}, counted {counted.digest()}")
    if other.digest() == digest:
        errors.append(f"seeds {seed} and {seed + 1} give one digest {digest}")
    metrics = measure.counters(plain)
    metrics.update(measure.traced(tracer, traced.served,
                                  metrics["bb.sync_rounds"]))
    metrics.update(measure.calls(counter.counts, counted.served))
    metrics["trace.overhead_frac"] = traced.host_run_s / plain.host_run_s - 1
    path = os.path.join(OUT, f"{workload}-seed{seed}.trace.json")
    tracer.export_chrome(path)
    print(f"# {workload} seed {seed}: digest {digest}, "
          f"{len(tracer.spans)} spans in {os.path.relpath(path, ROOT)}")
    return metrics, errors, len(plain.records), plain.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scenarios
    if args.workload not in scenarios.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(scenarios.BUILDERS)}")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.trace:
        metrics, errors, attempted, failed = measure_layers(
            args.workload, args.seed)
        names = sorted(metrics)
    else:
        metrics, errors, attempted, failed = measure_e2e(
            args.workload, args.seed, args.seconds)
        names = END_TO_END
    for error in errors:
        print(f"# FAILED {error}")
    for name in names:
        print(f"{name:28s} {metrics[name]:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
