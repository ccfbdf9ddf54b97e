"""What the benchmark needs beyond BENCHMARK.json: the workload list, the
CC floors, and for every per-layer metric the end-to-end metrics it should
move and the workloads it should move them on.

Metric names, units, directions and bounds live only in BENCHMARK.json at
the repository root; END_TO_END and PER_LAYER below are read from it.
"""

import json
import os

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
with open(BENCHMARK_JSON) as _f:
    BENCHMARK = json.load(_f)

# name -> unit, in BENCHMARK.json's order
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

BACKENDS = ("gst", "kmer", "fm")
RANKS = (1, 4)
WORKLOADS = ("broad", "deep", "noisy")

# Minimum CC (correlation, %) of the gst p1 clustering against the
# generator's truth, below the lowest value seen over seeds 1-20 (97.0,
# 100, 84.5). A drop below it means the program clusters differently.
CC_FLOOR = {"broad": 95.0, "deep": 98.0, "noisy": 80.0}


def invocations():
    """(backend, ranks) of every timed `estclust cluster` invocation."""
    return [(b, p) for b in BACKENDS for p in RANKS]


def wall_name(b, p):
    return "wall_s.%s.p%d" % (b, p)


def rss_name(b, p):
    return "peak_rss_mb.%s.p%d" % (b, p)


def end_to_end_measured():
    """Names of the end-to-end metrics a timed run computes."""
    return (["setup_s"] + [wall_name(b, p) for b, p in invocations()] +
            [rss_name(b, p) for b, p in invocations()] +
            ["cc_pct", "ok_frac"])


_P1_WALL = [wall_name(b, 1) for b in BACKENDS]
_P1_RSS = [rss_name(b, 1) for b in BACKENDS]
_P4_WALL = [wall_name(b, 4) for b in BACKENDS]

# per-layer name -> (moves [end-to-end metrics], on [workloads])
LAYER_MAP = {
    "bio.load_s": (["setup_s"], list(WORKLOADS)),
    "bio.input_mbp": (["setup_s"], list(WORKLOADS)),
    "gst.build_s": (_P1_WALL, ["broad", "noisy"]),
    "gst.chars_scanned": (_P1_WALL, ["broad", "noisy"]),
    "gst.nodes": (_P1_RSS, ["broad", "noisy"]),
    "gst.forest_mb": (_P1_RSS, ["broad", "noisy"]),
    "gst.par_build_s.max": ([wall_name("gst", 4)], ["broad"]),
    "gst.par_build_s.min": ([wall_name("gst", 4)], ["broad"]),
}
for _b in BACKENDS:
    _on = ["broad"] if _b == "gst" else ["deep"]
    LAYER_MAP["pairgen.%s.construct_s" % _b] = ([wall_name(_b, 1)], _on)
    LAYER_MAP["pairgen.%s.construction_units" % _b] = (
        [wall_name(_b, 1)], _on)
    LAYER_MAP["pairgen.%s.index_mb" % _b] = ([rss_name(_b, 1)], _on)
    LAYER_MAP["pairgen.%s.stream_s" % _b] = ([wall_name(_b, 1)], ["deep"])
LAYER_MAP.update({
    "pairgen.pairs_emitted": ([wall_name("gst", 1)], ["deep"]),
    "pairgen.lset_work": ([wall_name("gst", 1)], ["deep"]),
    "pairgen.nodes_processed": ([wall_name("gst", 1)], ["deep"]),
    "align.evaluate_s": (_P1_WALL, ["noisy"]),
    "align.calls": (_P1_WALL, ["noisy"]),
    "align.dp_cells": (_P1_WALL, ["noisy"]),
    "align.mcells_per_s": (_P1_WALL, ["noisy"]),
    "align.accept_ratio": (_P1_WALL, ["noisy"]),
    "align.memo_hit_ratio": (_P1_WALL, ["noisy"]),
    "cluster.uf_s": (_P1_WALL, ["deep"]),
    "cluster.uf_ops": (_P1_WALL, ["deep"]),
    "cluster.skip_ratio": (_P1_WALL, ["deep"]),
    "pace.rank_wall_s.master": (_P4_WALL, ["deep", "broad"]),
    "pace.rank_wall_s.slave_max": (_P4_WALL, ["deep", "broad"]),
    "pace.rank_wall_s.slave_min": (_P4_WALL, ["deep", "broad"]),
    "pace.redundancy_p4": (_P4_WALL, ["deep", "broad"]),
    "pace.master_interactions": (_P4_WALL, ["deep", "broad"]),
    "pace.model_t_total_vs": (_P4_WALL, ["deep", "broad"]),
    "mpr.messages_sent": (_P4_WALL, ["deep"]),
    "mpr.bytes_sent": (_P4_WALL, ["deep"]),
    "mpr.idle_vs.max": (_P4_WALL, ["deep"]),
})
for _b in BACKENDS:
    for _stage in ("load", "gst", "construct", "stream"):
        LAYER_MAP["mem.%s.peak_after_%s_mb" % (_b, _stage)] = (
            [rss_name(_b, 1)], ["broad"])
LAYER_MAP["obs.trace_overhead_s"] = ([], list(WORKLOADS))
