#!/usr/bin/env python3
"""Self-test for bench_compare.py's gate semantics.

Runs bench_compare as a subprocess over synthetic google-benchmark JSON and
asserts the documented exit-code contract:

    0  same machine, release builds, no regression beyond the threshold
    1  a regression beyond the threshold, or an input whose JSON repeats a
       key (the committed baselines once carried library_build_type twice)
    2  refused: machine mismatch, missing machine.* fields, or -- the case
       that once let debug numbers into the committed baselines -- either
       file stamped with a sentinel.build_type other than "release"

Usage: bench_compare_selftest.py /path/to/bench_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile

MACHINE = {
    "machine.hardware_threads": 8,
    "machine.usable_concurrency": 8,
    "machine.kernel_level": "avx2",
}


def make_doc(items_per_second, build_type="release", machine=None):
    # google-benchmark's own stamp says how the library was built, and is
    # "debug" with distro packages; only sentinel.build_type counts.
    context = {"library_build_type": "debug", "sentinel.build_type": build_type}
    context.update(MACHINE if machine is None else machine)
    return {
        "context": context,
        "benchmarks": [
            {
                "name": "BM_Fused",
                "run_type": "iteration",
                "real_time": 100.0,
                "time_unit": "ns",
                "items_per_second": items_per_second,
            }
        ],
    }


def run_case(script, workdir, label, base_doc, cand_doc, expect_rc):
    """Each doc is a dict, or the JSON text itself (for what json.dump
    cannot write, such as a repeated key)."""
    base = os.path.join(workdir, f"{label}_base.json")
    cand = os.path.join(workdir, f"{label}_cand.json")
    for path, doc in ((base, base_doc), (cand, cand_doc)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, script, base, cand],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != expect_rc:
        print(f"FAIL [{label}]: expected exit {expect_rc}, got {proc.returncode}")
        print(proc.stdout)
        print(proc.stderr)
        return False
    print(f"ok [{label}]: exit {proc.returncode}")
    return True


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} /path/to/bench_compare.py")
    script = sys.argv[1]
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        # Clean pass: same machine, both release, candidate slightly faster.
        ok &= run_case(script, workdir, "pass",
                       make_doc(1e6), make_doc(1.05e6), 0)
        # Regression beyond the default 15% threshold.
        ok &= run_case(script, workdir, "regression",
                       make_doc(1e6), make_doc(0.5e6), 1)
        # Debug refusal: a baseline measured from a debug tree must be
        # refused outright, never compared (exit 2 = CI skip).
        ok &= run_case(script, workdir, "debug_baseline",
                       make_doc(1e6, build_type="debug"), make_doc(1e6), 2)
        # Debug refusal, candidate side.
        ok &= run_case(script, workdir, "debug_candidate",
                       make_doc(1e6), make_doc(1e6, build_type="debug"), 2)
        # Missing build-type stamp is not release either.
        ok &= run_case(script, workdir, "unstamped_baseline",
                       make_doc(1e6, build_type=None), make_doc(1e6), 2)
        # google-benchmark's library_build_type alone is not the stamp: a
        # file that says "release" only there is unstamped.
        legacy = make_doc(1e6)
        del legacy["context"]["sentinel.build_type"]
        legacy["context"]["library_build_type"] = "release"
        ok &= run_case(script, workdir, "library_stamp_only",
                       legacy, make_doc(1e6), 2)
        # A repeated key is malformed, whichever side carries it and whatever
        # the two values are: json.load would keep the last one silently.
        text = json.dumps(make_doc(1e6))
        repeated = text.replace('"sentinel.build_type": "release"',
                                '"sentinel.build_type": "debug", '
                                '"sentinel.build_type": "release"')
        assert repeated != text
        ok &= run_case(script, workdir, "repeated_key_candidate",
                       make_doc(1e6), repeated, 1)
        ok &= run_case(script, workdir, "repeated_key_baseline",
                       repeated, make_doc(1e6), 1)
        # Cross-machine refusal: any machine.* field disagreeing.
        other = dict(MACHINE, **{"machine.kernel_level": "scalar"})
        ok &= run_case(script, workdir, "machine_mismatch",
                       make_doc(1e6), make_doc(1e6, machine=other), 2)
        # No machine.* fields at all: cannot prove same machine.
        ok &= run_case(script, workdir, "machine_absent",
                       make_doc(1e6, machine={}), make_doc(1e6), 2)
    if not ok:
        sys.exit(1)
    print("bench_compare_selftest: all cases passed")


if __name__ == "__main__":
    main()
