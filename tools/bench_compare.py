#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on throughput regression.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Exit codes:
    0  no benchmark regressed by more than the threshold
    1  at least one benchmark regressed (or an input is unreadable/malformed,
       which includes a JSON object that repeats a key)
    2  refused: the two files were not measured on the same machine, or one
       of them came from a non-release build

The baseline is a committed BENCH_*.json (e.g. BENCH_screen.json); the
candidate is the JSON a fresh run of the same bench binary just wrote. Rows
are matched by benchmark name. When a file carries aggregate rows (from
--benchmark_repetitions), the median aggregate is compared and the raw
iteration rows are ignored -- medians are what the committed baselines store
for noisy single-core boxes. Throughput (items_per_second, higher is better)
is preferred; benchmarks without it fall back to real_time (lower is better,
normalized through time_unit).

The refusal rule: benchmark numbers only mean something relative to the
machine that produced them. Every bench binary stamps machine.* fields into
the JSON context (bench/metrics_main.h) -- the CPU budget (hardware threads,
cgroup-capped usable concurrency) and the kernel dispatch level the host
selected. If either file lacks those fields, or any of them disagree, the
diff is refused with exit 2 (CI treats that as a skip, not a failure): a
"regression" measured against a baseline from a different CPU budget or a
different SIMD level is noise, not signal.

The same logic refuses debug numbers outright: the bench binaries stamp the
application's build type into the context as sentinel.build_type
(google-benchmark's own library_build_type describes how the benchmark
LIBRARY was compiled -- irrelevant and misleadingly "debug" with distro
packages). A baseline or candidate whose sentinel.build_type is not "release"
is refused with exit 2: -O0 throughput is not comparable to anything.

A JSON object that names a key twice is malformed (exit 1): Python's json
module would silently keep the last value, so which one a reader sees would
depend on the reader.
"""

import argparse
import json
import sys

# Multipliers to nanoseconds for google-benchmark time_unit values.
_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key '{key}' appears twice in one object")
        doc[key] = value
    return doc


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(1)
    if "benchmarks" not in doc or "context" not in doc:
        print(f"bench_compare: {path} is not google-benchmark JSON "
              "(missing 'benchmarks' or 'context')", file=sys.stderr)
        sys.exit(1)
    return doc


def machine_fields(doc):
    return {k: v for k, v in doc["context"].items() if k.startswith("machine.")}


def check_same_machine(base_doc, cand_doc, base_path, cand_path):
    base = machine_fields(base_doc)
    cand = machine_fields(cand_doc)
    if not base or not cand:
        missing = base_path if not base else cand_path
        print(f"bench_compare: REFUSED -- {missing} has no machine.* context "
              "fields; cannot prove both files came from the same machine",
              file=sys.stderr)
        sys.exit(2)
    if base != cand:
        print("bench_compare: REFUSED -- machine context differs:", file=sys.stderr)
        for key in sorted(set(base) | set(cand)):
            bval = base.get(key, "<absent>")
            cval = cand.get(key, "<absent>")
            marker = "" if bval == cval else "   <-- differs"
            print(f"  {key}: baseline={bval} candidate={cval}{marker}",
                  file=sys.stderr)
        sys.exit(2)


def check_release_build(doc, path):
    build = doc["context"].get("sentinel.build_type")
    if build != "release":
        print(f"bench_compare: REFUSED -- {path} was produced by a "
              f"'{build}' build (sentinel.build_type); only release-build "
              "numbers are comparable. Re-run the bench from a release tree "
              "(-DCMAKE_BUILD_TYPE=Release).", file=sys.stderr)
        sys.exit(2)


def comparable_rows(doc, path):
    """Name -> row. Median aggregates when present, else iteration rows."""
    rows = {}
    have_aggregates = any(b.get("run_type") == "aggregate"
                          for b in doc["benchmarks"])
    for b in doc["benchmarks"]:
        if have_aggregates:
            if b.get("aggregate_name") != "median":
                continue
            # Aggregate names carry a "name_median" suffix; strip it so the
            # row matches a file that has no aggregates.
            name = b["name"]
            if name.endswith("_median"):
                name = name[: -len("_median")]
        else:
            if b.get("run_type") not in (None, "iteration"):
                continue
            name = b["name"]
        if name in rows:
            print(f"bench_compare: {path}: duplicate benchmark '{name}'",
                  file=sys.stderr)
            sys.exit(1)
        rows[name] = b
    return rows


def real_time_ns(row):
    return row["real_time"] * _TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_*.json to compare against")
    ap.add_argument("candidate", help="freshly generated benchmark JSON")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="fail when throughput drops by more than this many "
                         "percent (default: %(default)s)")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    check_same_machine(base_doc, cand_doc, args.baseline, args.candidate)
    check_release_build(base_doc, args.baseline)
    check_release_build(cand_doc, args.candidate)

    base_rows = comparable_rows(base_doc, args.baseline)
    cand_rows = comparable_rows(cand_doc, args.candidate)
    common = [n for n in base_rows if n in cand_rows]
    if not common:
        print("bench_compare: no benchmark names in common", file=sys.stderr)
        sys.exit(1)
    for name in sorted(set(base_rows) - set(cand_rows)):
        print(f"  (baseline only, skipped) {name}")
    for name in sorted(set(cand_rows) - set(base_rows)):
        print(f"  (candidate only, skipped) {name}")

    regressions = []
    width = max(len(n) for n in common)
    for name in common:
        b, c = base_rows[name], cand_rows[name]
        if "items_per_second" in b and "items_per_second" in c:
            # Throughput: higher is better.
            delta_pct = (c["items_per_second"] / b["items_per_second"] - 1.0) * 100.0
            metric = "items/s"
        else:
            # Wall time: lower is better; express as throughput delta.
            delta_pct = (real_time_ns(b) / real_time_ns(c) - 1.0) * 100.0
            metric = "1/real_time"
        flag = ""
        if delta_pct < -args.threshold:
            regressions.append((name, delta_pct))
            flag = "   REGRESSION"
        print(f"  {name:<{width}}  {delta_pct:+7.1f}% ({metric}){flag}")

    if regressions:
        print(f"\nbench_compare: FAIL -- {len(regressions)} benchmark(s) "
              f"regressed more than {args.threshold:.0f}%:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_compare: OK ({len(common)} benchmark(s) within "
          f"{args.threshold:.0f}%)")


if __name__ == "__main__":
    main()
