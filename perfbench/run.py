"""End-to-end benchmark of `estclust cluster`.

    python3 perfbench/run.py --workload broad --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the CLI and the benchmark's layer
probe from source into .bench_build/ (Release), generates the workload's
library from --seed (perfbench/gen.py), and then

  --trace 0: loads the library repeatedly (setup_s), and for --seconds
             runs the six timed invocations `estclust cluster
             --pair-source {gst,kmer,fm} --ranks {1,4}`, one process at a
             time, in rounds that run every leg once, recording wall time
             and peak RSS of each. Reports the end-to-end metrics: per leg
             the interquartile mean wall time and the mean peak RSS over
             its samples.
  --trace 1: runs each invocation once, then the traced layer replay
             (perfbench_probe replay, one process per backend) and the
             4-rank probe, and reports the per-layer metrics.

Every run gates correctness: all invocations (and the replay) must produce
the same canonical partition and pair counts, and CC against the truth
must reach the workload's floor. A crash, signal, timeout or mismatch is a
failed operation and is never dropped. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Human-readable
tables, the host/build fingerprint and a per-run record under
.bench_work/results/ come first.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")

# Hard ceiling for one run of this script, far below the 180 s a run may
# take, so a hung invocation is killed and counted rather than overrunning.
RUN_BUDGET_S = 150.0
INVOCATION_TIMEOUT_S = 90.0
SETUP_REPS = 10  # library loads per round of the timed loop

# Flags that silently reroute `--ranks 1` through the 2-rank virtual-time
# runtime (tools/estclust.cpp); a timed invocation must never carry them.
FORBIDDEN_FLAGS = ("--metrics", "--trace", "--breakdown", "--profile",
                   "--check", "--faults")

_live = []  # child processes still running; killed on abnormal exit


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """One attempted operation that failed; counted, never dropped."""


def run_child(argv, timeout, stdout_path):
    """Runs argv to completion through the launcher `perfbench_probe exec`,
    with stdout to `stdout_path` (stderr beside it); returns (wall_s,
    peak_rss_mib, exit_code, stdout_text). The launcher times the child
    from fork to reaped exit, takes its peak RSS from wait4's ru_maxrss,
    and kills it with SIGKILL on timeout (exit code -9). Forking from the
    launcher rather than from this driver keeps the high-water mark the
    child inherits at exec at the launcher's ~1 MiB."""
    launcher = [binary("perfbench_probe"), "exec", "--stdout", stdout_path,
                "--timeout-s", "%.3f" % max(timeout, 0.001), "--"]
    with open(stdout_path + ".err", "w") as err:
        proc = subprocess.Popen(launcher + argv, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, text=True)
        _live.append(proc)
        try:
            report, _ = proc.communicate(timeout=timeout + 10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise Failure("launcher did not return")
        finally:
            _live.remove(proc)
    if proc.returncode != 0:
        raise Failure("launcher exited with %d" % proc.returncode)
    res = json.loads(report)
    with open(stdout_path) as f:
        return (res["wall_s"], res["maxrss_kib"] / 1024.0, res["exit_code"],
                f.read())


def interquartile_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    quarter (rounded down); the plain mean below four values."""
    v = sorted(values)
    q = len(v) // 4
    return statistics.fmean(v[q:len(v) - q])


def kill_children():
    for proc in list(_live):
        try:
            proc.kill()
            proc.wait()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Build


def sources_present():
    return (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "estclust.cpp")))


def build():
    os.makedirs(WORK, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "estclust", "perfbench_probe"])
    build_log = os.path.join(WORK, "build.log")
    with open(build_log, "w") as f:
        for argv in steps:
            if subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as g:
                    log(g.read()[-4000:])
                return False
    return True


def binary(name):
    return os.path.join(BUILD, name)


# --------------------------------------------------------------------------
# Outputs and their checks


def canonical_partition(clusters_path, index):
    """The canonical text cluster::canonical_partition prints, rebuilt from
    an `estclust cluster` output file: one line per cluster, members
    ascending, clusters ordered by smallest member."""
    clusters, members = [], None
    with open(clusters_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                members = []
                clusters.append(members)
            else:
                members.append(index[line])
    seen = sorted(i for c in clusters for i in c)
    if seen != list(range(len(index))):
        raise Failure("%s does not cover every EST once" % clusters_path)
    rows = sorted(sorted(c) for c in clusters)
    return "".join(" ".join(map(str, c)) + "\n" for c in rows)


PAIRS_RE = re.compile(r"(\d+) of (\d+) promising pairs aligned")


def pair_counts(stdout):
    m = PAIRS_RE.search(stdout)
    if not m:
        raise Failure("no pair counts in estclust output")
    return int(m.group(1)), int(m.group(2))  # (processed, generated)


CC_RE = re.compile(r"CC \(correlation\)\s+([0-9.]+)")


class Session:
    """One workload library and the reference results every check uses."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.min_overlap = gen.WORKLOADS[workload]["min_overlap"]
        self.dir = os.path.join(WORK, "%s-s%d" % (workload, seed))
        records, _ = gen.write(workload, seed, self.dir)
        self.lib = os.path.join(self.dir, "lib.fa")
        self.truth = os.path.join(self.dir, "truth.txt")
        self.index = {name: i for i, (name, _) in enumerate(records)}
        self.partition = None   # canonical text every run must reproduce
        self.generated = None   # pairs_generated every run must reproduce
        self.p1 = {}            # backend -> (processed, generated) at p1
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.start = time.perf_counter()

    def remaining(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def attempt(self, what, fn):
        """Runs one operation; a Failure or a crash of the benchmark's own
        parsing counts against `failed` and returns None."""
        self.attempted += 1
        try:
            if self.remaining() <= 0:
                raise Failure("run budget exhausted before start")
            return fn()
        except (Failure, OSError, ValueError, KeyError, IndexError) as e:
            self.failed += 1
            self.failures.append("%s: %s" % (what, e))
            log("FAILED %s: %s" % (what, e))
            return None

    def check_partition(self, text, what):
        if self.partition is None:
            self.partition = text
        elif text != self.partition:
            raise Failure("%s partition differs from the first run's" % what)

    def check_generated(self, generated, what):
        if self.generated is None:
            self.generated = generated
        elif generated != self.generated:
            raise Failure("%s generated %d pairs, expected %d" %
                          (what, generated, self.generated))

    def cluster(self, backend, ranks):
        """One timed `estclust cluster` invocation -> (wall_s, rss_mib)."""
        out = os.path.join(self.dir, "clusters.%s.p%d.txt" % (backend, ranks))
        argv = [binary("estclust"), "cluster", "--in", self.lib, "--out", out,
                "--pair-source", backend, "--ranks", str(ranks),
                "--min-overlap", str(self.min_overlap)]
        assert not set(argv) & set(FORBIDDEN_FLAGS)
        if os.path.exists(out):
            os.remove(out)
        wall, rss, code, stdout = run_child(
            argv, min(INVOCATION_TIMEOUT_S, self.remaining()),
            os.path.join(self.dir, "stdout.txt"))
        what = "%s p%d" % (backend, ranks)
        if code != 0:
            raise Failure("%s exited with %s" % (
                what, ("signal %d" % -code) if code < 0 else code))
        processed, generated = pair_counts(stdout)
        self.check_generated(generated, what)
        self.check_partition(canonical_partition(out, self.index), what)
        if ranks == 1:
            # The sequential driver is deterministic: every p1 sample of a
            # backend aligns the same pairs.
            if self.p1.setdefault(backend, (processed, generated)) != (
                    processed, generated):
                raise Failure("%s aligned %d pairs, earlier %d" % (
                    what, processed, self.p1[backend][0]))
        return wall, rss

    def cc_pct(self):
        out = os.path.join(self.dir, "clusters.gst.p1.txt")
        _, _, code, stdout = run_child(
            [binary("estclust"), "eval", "--clusters", out, "--truth",
             self.truth, "--in", self.lib],
            min(INVOCATION_TIMEOUT_S, self.remaining()),
            os.path.join(self.dir, "eval.txt"))
        m = CC_RE.search(stdout)
        if code != 0 or not m:
            raise Failure("estclust eval failed (exit %d)" % code)
        return float(m.group(1))

    def probe(self, argv):
        """Runs perfbench_probe; returns (wall_s, parsed JSON)."""
        wall, _, code, stdout = run_child(
            [binary("perfbench_probe")] + argv,
            min(INVOCATION_TIMEOUT_S, self.remaining()),
            os.path.join(self.dir, "probe.txt"))
        if code != 0:
            raise Failure("perfbench_probe %s exited with %d" % (argv[0], code))
        return wall, json.loads(stdout.strip().splitlines()[-1])

    def setup_times(self):
        _, res = self.probe(["load", "--in", self.lib, "--reps",
                             str(SETUP_REPS)])
        return res["load_s"], res["kernel_variant"]


# --------------------------------------------------------------------------
# Modes


def measure(s, seconds):
    """Timed mode: the end-to-end metrics."""
    metrics = {}
    loads, kernel = [], "unknown"

    # Closed loop, one client: one process at a time. The window is spent
    # in rounds; a round loads the library a few times (setup_s) and then
    # runs every leg once, starting one leg further on each round. A round
    # starts only if one as long as the slowest so far still fits, so every
    # leg gets the same number of samples, spread over the whole window.
    legs = spec.invocations()
    samples = {leg: [] for leg in legs}
    t0 = time.perf_counter()
    longest = 0.0
    for rnd in itertools.count():
        if rnd and (time.perf_counter() - t0 + longest > seconds or
                    s.remaining() < longest + 10):
            break
        t = time.perf_counter()
        setup = s.attempt("setup", s.setup_times)
        if setup:
            loads += setup[0]
            kernel = setup[1]
        k = rnd % len(legs)
        for leg in legs[k:] + legs[:k]:
            res = s.attempt("%s p%d" % leg, lambda: s.cluster(*leg))
            if res:
                samples[leg].append(res)
        longest = max(longest, time.perf_counter() - t)

    if loads:
        metrics["setup_s"] = statistics.median(loads)
    for b, p in legs:
        got = samples[(b, p)]
        if got:
            # Interquartile mean of the leg's samples: on a shared host
            # interference comes and goes within a window, and this mean
            # averages it while the slowest and fastest quarters, the
            # spikes and rare dips, do not move it (README).
            metrics[spec.wall_name(b, p)] = interquartile_mean(
                [w for w, _ in got])
            # Mean: at p4 an occasional sample peaks a few MiB higher, with
            # thread timing; a per-run maximum or median flips on whether
            # such samples occur, the mean moves by a fraction of the gap.
            metrics[spec.rss_name(b, p)] = statistics.fmean(
                r for _, r in got)
    cc = s.attempt("eval", s.cc_pct)
    if cc is not None:
        metrics["cc_pct"] = cc
    metrics["ok_frac"] = (s.attempted - s.failed) / s.attempted
    return metrics, cc, kernel, {
        "%s p%d" % leg: {"wall_s": [w for w, _ in samples[leg]],
                         "peak_rss_mb": [r for _, r in samples[leg]]}
        for leg in legs}


def traced(s):
    """Traced mode: the per-layer metrics from the replay and rank probe."""
    metrics = {}
    cli_wall = {}
    for leg in spec.invocations():
        res = s.attempt("%s p%d" % leg, lambda: s.cluster(*leg))
        if res:
            cli_wall[leg] = res[0]
    cc = s.attempt("eval", s.cc_pct)

    trace_dir = os.path.join(s.dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    replay = {}

    def run_replay(b):
        part = os.path.join(trace_dir, "partition.%s.txt" % b)
        wall, res = s.probe(["replay", "--in", s.lib, "--pair-source", b,
                             "--min-overlap", str(s.min_overlap),
                             "--partition", part, "--spans",
                             os.path.join(trace_dir, "spans.%s.json" % b)])
        # The replay must be the program: same partition, same counts.
        with open(part) as f:
            s.check_partition(f.read(), "replay " + b)
        want = s.p1.get(b)
        got = (res["align.calls"], res["pairgen.pairs_emitted"])
        if want is None:
            raise Failure("replay %s has no CLI p1 run to compare with" % b)
        if got != want:
            raise Failure("replay %s aligned/generated %s, CLI p1 %s" %
                          (b, got, want))
        return wall, res

    for b in spec.BACKENDS:
        r = s.attempt("replay " + b, lambda: run_replay(b))
        if r:
            replay[b] = r

    def run_ranks():
        part = os.path.join(trace_dir, "partition.p4.txt")
        _, res = s.probe(["ranks", "--in", s.lib,
                          "--min-overlap", str(s.min_overlap),
                          "--partition", part])
        with open(part) as f:
            s.check_partition(f.read(), "rank probe")
        s.check_generated(res["pace.pairs_generated"], "rank probe")
        return res

    ranks = s.attempt("rank probe", run_ranks)

    kernel = "unknown"
    if "gst" in replay:
        _, r = replay["gst"]
        for k in ("bio.load_s", "bio.input_mbp", "gst.build_s",
                  "gst.chars_scanned", "gst.nodes", "gst.forest_mb",
                  "pairgen.pairs_emitted", "pairgen.lset_work",
                  "pairgen.nodes_processed", "align.evaluate_s",
                  "align.calls", "align.dp_cells", "cluster.uf_s",
                  "cluster.uf_ops"):
            metrics[k] = r[k]
        metrics["align.mcells_per_s"] = (
            r["align.dp_cells"] / max(r["align.evaluate_s"], 1e-12) / 1e6)
        metrics["align.accept_ratio"] = (
            r["align.accepted"] / max(r["align.calls"], 1))
        metrics["align.memo_hit_ratio"] = (
            r["align.memo_hits"] / max(r["align.memo_lookups"], 1))
        metrics["cluster.skip_ratio"] = (
            r["cluster.skipped"] / max(r["pairgen.pairs_emitted"], 1))
        kernel = r["kernel_variant"]
        if ("gst", 1) in cli_wall:
            metrics["obs.trace_overhead_s"] = (
                replay["gst"][0] - cli_wall[("gst", 1)])
    for b, (_, r) in replay.items():
        for k in ("construct_s", "construction_units", "index_mb",
                  "stream_s"):
            metrics["pairgen.%s.%s" % (b, k)] = r["pairgen." + k]
        for stage in ("load", "gst", "construct", "stream"):
            key = "peak_after_%s_mb" % stage
            metrics["mem.%s.%s" % (b, key)] = r["mem." + key]
    if ranks:
        for k in ("gst.par_build_s.max", "gst.par_build_s.min",
                  "pace.rank_wall_s.master", "pace.rank_wall_s.slave_max",
                  "pace.rank_wall_s.slave_min", "pace.master_interactions",
                  "pace.model_t_total_vs", "mpr.messages_sent",
                  "mpr.bytes_sent", "mpr.idle_vs.max"):
            metrics[k] = ranks[k]
        if "gst" in s.p1:
            metrics["pace.redundancy_p4"] = (
                ranks["pace.pairs_processed"] / max(s.p1["gst"][0], 1))
        kernel = ranks["kernel_variant"]
    return metrics, cc, kernel, {}


# --------------------------------------------------------------------------
# Fingerprint


def fingerprint(kernel):
    cpu_model, flags = "", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not cpu_model:
                    cpu_model = value.strip()
                if key.strip() == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    cpu_model = cpu_model or platform.machine() or "unknown"
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                             line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpu_simd": sorted(
            f for f in flags
            if re.fullmatch(r"sse\d.*|ssse3|avx.*|fma|popcnt", f)),
        "kernel_variant": kernel,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# --------------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(description="estclust end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not sources_present():
        log("run.py: no estclust sources (src/, tools/estclust.cpp) under %s"
            % ROOT)
        return 2
    if not build():
        log("run.py: build failed; see .bench_work/build.log")
        return 1

    s = Session(args.workload, args.seed)
    if args.trace:
        metrics, cc, kernel, samples = traced(s)
        wanted = spec.PER_LAYER
    else:
        metrics, cc, kernel, samples = measure(s, args.seconds)
        wanted = spec.END_TO_END
    floor = spec.CC_FLOOR[args.workload]
    problems = list(s.failures)
    if cc is not None and cc < floor:
        problems.append("cc_pct %.2f below floor %.2f" % (cc, floor))
    missing = [k for k in wanted if k not in metrics]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    correct = not problems

    result = {
        "correct": correct,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]}
                    for k in wanted if k in metrics},
    }
    fp = fingerprint(kernel)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, samples=samples,
                  problems=problems, fingerprint=fp)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-s%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("workload %s, seed %d, %s" % (
        args.workload, args.seed, "traced layer replay" if args.trace else
        "%g s timed window" % args.seconds))
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if samples:
        print("samples per invocation: " + json.dumps(
            {leg: len(got["wall_s"]) for leg, got in samples.items()}))
    for k in wanted:
        if k in metrics:
            print("  %-36s %16.6g %s" % (k, metrics[k], wanted[k]))
    for p in problems:
        print("PROBLEM: " + p)
    print("correct: %s  attempted: %d  failed: %d" %
          (correct, s.attempted, s.failed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: (kill_children(), sys.exit(1)))
    try:
        sys.exit(main(sys.argv[1:]))
    finally:
        kill_children()
