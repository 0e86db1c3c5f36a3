#!/usr/bin/env python
"""Compare a fresh ``BENCH_*.json`` against a committed baseline.

Prints a per-kernel GitHub-flavoured markdown table and exits non-zero
when any kernel's ``ops_per_s`` regressed by more than ``--threshold``
(default 15%) relative to the baseline, or when a baseline kernel is
missing from the current run. Improvements are reported. Kernels that
exist only in the current run have no baseline to gate against, so by
default they fail the comparison too — an unannounced name usually
means an accidental rename, which would otherwise silently drop the
kernel's regression gate. Pass ``--allow-new`` when the kernel set
legitimately grew (a PR adding kernels compared against an older
committed baseline); new kernels are then listed as ``new`` in the
table and do not gate.

When both revisions also have a ``SWEEP_<rev>.json`` scale-sweep
artifact next to their BENCH file (or in the repo root), a second,
informational per-ladder table compares the fast-path speedups and
delta savings across the population ladder. Sweep rows never gate:
speedup ratios are far noisier than single-kernel rates.
``--sweep-workspace DIR`` sources the *current* sweep rows straight
from a content-addressed experiment workspace (see
``repro.harness.sweep``) instead of a SWEEP file — useful right after
``python -m repro bench --scale-sweep`` populated the store.

Usage::

    python scripts/bench_compare.py CURRENT.json [BASELINE.json] \
        [--threshold 0.15] [--allow-new] [--md PATH] \
        [--sweep-workspace DIR]

With no explicit baseline, the newest committed ``BENCH_*.json`` (by
its ``generated_at`` stamp) in the repository root is used. ``--md``
additionally writes the tables to *PATH* (e.g. for a CI job summary).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def find_sweep(bench_doc: dict, bench_path: str) -> Optional[str]:
    """Path of the ``SWEEP_<rev>.json`` matching *bench_doc*, if any.

    Looks next to the bench file first, then in the repo root.
    """
    rev = bench_doc.get("rev")
    if not rev:
        return None
    for base in (os.path.dirname(os.path.abspath(bench_path)), REPO_ROOT):
        candidate = os.path.join(base, f"SWEEP_{rev}.json")
        if os.path.exists(candidate):
            return candidate
    return None


def sweep_from_workspace(workspace_dir: str) -> dict:
    """A SWEEP-shaped doc assembled from a content-addressed workspace."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.harness.sweep import sweep_doc_from_workspace
    from repro.harness.workspace import Workspace
    return sweep_doc_from_workspace(Workspace(workspace_dir))


def _sweep_cell(row: Optional[dict]) -> str:
    if row is None:
        return "—"
    if "ops_per_s" in row:
        return f"{row['ops_per_s']:,.0f} ops/s"
    if "speedup" in row:
        return f"{row['speedup']:.2f}x"
    if "root_in_bytes_per_epoch" in row:
        # λ-sync cost ladder: the coordinator/root inbound gather bytes
        # per epoch (the fan-in hotspot) plus the observed peak fan-in.
        return (f"{row['root_in_bytes_per_epoch']:,} B/ep root-in, "
                f"fan-in {row['max_fanin']}")
    if "delta_saved_frac" in row:
        return f"{row['delta_saved_frac']:.1%} saved"
    return "?"


def _sweep_key(row: dict) -> Tuple:
    """Row key within a ladder: population plus any layout variant.

    Sync-ladder rows carry a ``mode`` (flat/tree, optionally with the
    quiescence skip active), so the same cluster size appears once per
    layout rather than the layouts overwriting each other.
    """
    tag = row.get("mode", "")
    if tag and row.get("quiescent_skips"):
        tag += "+skip"
    return (row.get("population"), tag)


def sweep_compare(current: dict, baseline: dict) -> List[str]:
    """Markdown rows comparing two SWEEP docs per ladder point.

    Informational only — fast-path speedups are host-noise-sensitive,
    so sweep drift never fails the comparison.
    """
    rows = ["| ladder | n | baseline | current |",
            "|---|---:|---:|---:|"]
    cur_sweep = current.get("sweep", {})
    base_sweep = baseline.get("sweep", {})
    for name in sorted(set(cur_sweep) | set(base_sweep)):
        cur = {_sweep_key(r): r for r in cur_sweep.get(name, [])}
        base = {_sweep_key(r): r for r in base_sweep.get(name, [])}
        for key in sorted(set(cur) | set(base),
                          key=lambda k: (k[0] or 0, k[1])):
            n, tag = key
            label = f"{n} {tag}".rstrip()
            rows.append(f"| {name} | {label} | {_sweep_cell(base.get(key))} | "
                        f"{_sweep_cell(cur.get(key))} |")
    return rows


def newest_committed_baseline(exclude: str) -> str:
    candidates = [p for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
                  if os.path.abspath(p) != os.path.abspath(exclude)]
    if not candidates:
        raise SystemExit("no committed BENCH_*.json baseline found")
    return max(candidates, key=lambda p: load(p).get("generated_at", ""))


def compare(current: dict, baseline: dict, threshold: float,
            allow_new: bool = False) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Build the markdown table rows and the list of failures."""
    rows = ["| kernel | baseline ops/s | current ops/s | ratio | status |",
            "|---|---:|---:|---:|---|"]
    failures: List[Tuple[str, str]] = []
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})

    for name, base in sorted(base_results.items()):
        cur = cur_results.get(name)
        if cur is None:
            rows.append(f"| {name} | — | — | — | **MISSING** |")
            failures.append((name, "kernel missing from current run"))
            continue
        base_rate = base.get("ops_per_s", 0)
        cur_rate = cur.get("ops_per_s", 0)
        if base_rate <= 0:
            continue
        ratio = cur_rate / base_rate
        if ratio < 1.0 - threshold:
            status = "**REGRESSION**"
            failures.append(
                (name, f"{base_rate:,.0f} -> {cur_rate:,.0f} ops/s "
                       f"({ratio:.2f}x)"))
        elif ratio >= 1.0 + threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(f"| {name} | {base_rate:,.0f} | {cur_rate:,.0f} | "
                    f"{ratio:.2f}x | {status} |")

    for name in sorted(set(cur_results) - set(base_results)):
        cur_rate = cur_results[name].get("ops_per_s", 0)
        if allow_new:
            rows.append(f"| {name} | — | {cur_rate:,.0f} | — | new |")
        else:
            rows.append(f"| {name} | — | {cur_rate:,.0f} | — | **NEW** |")
            failures.append(
                (name, "kernel absent from baseline (accidental rename? "
                       "pass --allow-new if intentionally added)"))
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH json")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="baseline BENCH json (default: newest committed)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated fractional regression (0.15 = 15%%)")
    parser.add_argument("--allow-new", action="store_true",
                        help="kernels absent from the baseline are listed "
                             "as informational 'new' rows instead of "
                             "failing the comparison")
    parser.add_argument("--md", default=None,
                        help="also write the markdown table to this path")
    parser.add_argument("--sweep-workspace", default=None,
                        help="read the current scale-sweep rows from this "
                             "content-addressed workspace dir instead of a "
                             "SWEEP_<rev>.json file")
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline_path = args.baseline or newest_committed_baseline(args.current)
    baseline = load(baseline_path)

    rows, failures = compare(current, baseline, args.threshold,
                             allow_new=args.allow_new)
    table = "\n".join(rows)

    print(f"current  rev={current.get('rev')} ({args.current})")
    print(f"baseline rev={baseline.get('rev')} ({baseline_path})")
    print(f"threshold: {args.threshold:.0%} regression\n")
    print(table)

    # Informational per-ladder scale-sweep comparison (never gates).
    if args.sweep_workspace:
        cur_sweep = sweep_from_workspace(args.sweep_workspace)
        cur_sweep_src = f"workspace {args.sweep_workspace}"
    else:
        cur_sweep_path = find_sweep(current, args.current)
        cur_sweep = load(cur_sweep_path) if cur_sweep_path else None
        cur_sweep_src = cur_sweep_path or ""
    base_sweep_path = find_sweep(baseline, baseline_path)
    base_sweep = load(base_sweep_path) if base_sweep_path else None
    sweep_table = None
    if cur_sweep is not None and cur_sweep.get("sweep") and \
            base_sweep is not None:
        sweep_table = "\n".join(sweep_compare(cur_sweep, base_sweep))
        print(f"\nscale sweep: {cur_sweep_src} vs {base_sweep_path}\n")
        print(sweep_table)

    if args.md:
        with open(args.md, "w") as fh:
            fh.write(f"**bench:** `{current.get('rev')}` vs "
                     f"`{baseline.get('rev')}` "
                     f"(threshold {args.threshold:.0%})\n\n")
            fh.write(table + "\n")
            if sweep_table is not None:
                fh.write("\n**scale sweep** (informational)\n\n")
                fh.write(sweep_table + "\n")

    if failures:
        print(f"\nFAIL: {len(failures)} kernel(s) regressed beyond "
              f"{args.threshold:.0%} or changed the kernel set:")
        for name, detail in failures:
            print(f"  - {name}: {detail}")
        return 1
    print("\nOK: no kernel regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
