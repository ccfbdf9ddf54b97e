#!/usr/bin/env python3
"""Runs the full verification matrix: configure, build, a required-test
registration check (`ctest -N` must list every gate in REQUIRED_TESTS)
and ctest for each CMake preset (default, sanitize, tsan), in sequence,
with a summary table.

Usage, from the repository root:

    python3 tools/check_matrix.py                 # all three presets
    python3 tools/check_matrix.py --presets tsan  # just ThreadSanitizer
    python3 tools/check_matrix.py --label tsan -R 'mpr_stress|pace_stress'

Each preset builds into its own directory (build/, build-sanitize/,
build-tsan/), so the matrix never invalidates an existing tree. Exits
non-zero if any stage of any preset fails, after running the rest.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("default", "sanitize", "tsan")

# Gates that must exist in every configured tree. They are registered
# behind find_package(Python3), so a runner without a Python interpreter
# would silently drop them from ctest; the matrix refuses to call such a
# tree verified.
REQUIRED_TESTS = (
    "lint",
    "analyze",
    "analyze_selftest",
    "analyze_proto",
    "analyze_clock",
    "analyze_detflow",
    "analyze_bounds",
    "trace_validate",
    "headers_standalone",
    "profile_smoke",
    "bench_smoke",
    # PairSource backend matrix: one golden sentinel, one contract-test
    # sentinel and the bench gate per backend. If gtest discovery or the
    # per-backend registration breaks, the whole backend's slice vanishes
    # from ctest silently — these names make that a matrix failure.
    "gst/GoldenClusters.Small",
    "kmer/GoldenClusters.Small",
    "fm/GoldenClusters.Small",
    "gst/PairSource.MatchesBruteForcePromisingPairs",
    "kmer/PairSource.MatchesBruteForcePromisingPairs",
    "fm/PairSource.MatchesBruteForcePromisingPairs",
    "bench_smoke_gst",
    "bench_smoke_kmer",
    "bench_smoke_fm",
    # Per-rank index partitioning and the 32-base seed-cap differential:
    # without them a backend could index the whole text on every rank,
    # or mis-pack full-word seeds, and still pass the goldens.
    "Parallel.PairSourceIndexIsPartitionedAcrossRanks",
    "SeedCap/PairSourceSeedCapFuzz.BackendsAgreeAtSeedCap/psi32_850",
    # SIMD kernel gates: the wall-clock speedup floor and the forced-scalar
    # golden leg must both stay registered, or a dispatch regression could
    # hide behind whatever kernel the build host happens to pick.
    "bench_wallclock",
    "golden_clusters_scalar_kernel",
)


def run_stage(label: str, cmd: list[str]) -> bool:
    print(f"--- {label}: {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd, cwd=ROOT).returncode == 0


def check_registered(preset: str) -> bool:
    """`ctest -N` the configured tree and require every REQUIRED_TESTS
    name to be registered."""
    cmd = ["ctest", "--preset", preset, "-N"]
    print(f"--- {preset}/registered: {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        return False
    names = set(re.findall(r"Test\s+#\d+:\s+(\S+)", proc.stdout))
    missing = [t for t in REQUIRED_TESTS if t not in names]
    for t in missing:
        print(f"  required test '{t}' is not registered in this tree")
    return not missing


def run_preset(preset: str, jobs: int, test_filter: str | None) -> dict:
    t0 = time.monotonic()
    stages = {
        "configure": ["cmake", "--preset", preset],
        "build": ["cmake", "--build", "--preset", preset, "-j", str(jobs)],
        "registered": None,  # handled below: ctest -N presence check
        "test": ["ctest", "--preset", preset, "-j", str(jobs)],
    }
    if test_filter:
        stages["test"] += ["-R", test_filter]
    failed = ""
    for name, cmd in stages.items():
        ok = check_registered(preset) if name == "registered" \
            else run_stage(f"{preset}/{name}", cmd)
        if not ok:
            failed = name
            break
    return {
        "preset": preset,
        "failed_stage": failed,
        "seconds": time.monotonic() - t0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="+", default=list(PRESETS),
                    choices=PRESETS, metavar="PRESET",
                    help="subset of presets to run (default: all)")
    ap.add_argument("-j", "--jobs", type=int, default=0,
                    help="parallel jobs (default: all cores)")
    ap.add_argument("-R", "--tests-regex", default=None,
                    help="forwarded to ctest -R (run matching tests only)")
    args = ap.parse_args()
    jobs = args.jobs or os.cpu_count() or 2

    results = [run_preset(p, jobs, args.tests_regex) for p in args.presets]

    print("\n=== check matrix ===")
    ok = True
    for r in results:
        status = "OK" if not r["failed_stage"] else f"FAIL ({r['failed_stage']})"
        ok &= not r["failed_stage"]
        print(f"  {r['preset']:<10} {status:<18} {r['seconds']:7.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
