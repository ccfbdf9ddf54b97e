"""Self-tests of the benchmark's own pieces (no build needed):

    python3 perfbench/test_bench.py
"""

import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Reported for context only; it moves no end-to-end metric by design.
REPORTED_ONLY = {"obs.trace_overhead_s"}


def library_bytes(workload, seed):
    records, truth = gen.generate(workload, seed)
    return gen.fasta_text(records).encode(), "".join(
        "%d\n" % g for g in truth).encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for w in spec.WORKLOADS:
            self.assertEqual(library_bytes(w, 7), library_bytes(w, 7), w)

    def test_different_seed_gives_different_bytes(self):
        for w in spec.WORKLOADS:
            self.assertNotEqual(library_bytes(w, 7)[0],
                                library_bytes(w, 8)[0], w)

    def test_written_files_match_generate(self):
        with tempfile.TemporaryDirectory() as d:
            gen.write("broad", 3, d)
            with open(os.path.join(d, "lib.fa"), "rb") as f:
                fasta = f.read()
            with open(os.path.join(d, "truth.txt"), "rb") as f:
                truth = f.read()
        self.assertEqual((fasta, truth), library_bytes("broad", 3))

    def test_shape_is_kept(self):
        for w in spec.WORKLOADS:
            shape = gen.WORKLOADS[w]
            records, truth = gen.generate(w, 1)
            self.assertEqual(len(records), shape["ests"])
            self.assertEqual(len(truth), shape["ests"])
            self.assertEqual(len(set(truth)), gen.num_genes(shape))
            self.assertTrue(all(set(s) <= set("ACGT") for _, s in records))
            self.assertTrue(all(s for _, s in records))

    def test_expression_counts_are_fixed_by_shape(self):
        counts = gen.expression_counts(600, 3, 1.0)
        self.assertEqual(sum(counts), 600)
        self.assertEqual(counts, sorted(counts, reverse=True))


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        for table in ("end_to_end", "per_layer"):
            for m in spec.BENCHMARK[table]:
                self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])
                self.assertLessEqual(len(m["name"]), 64, m["name"])
                self.assertTrue(UNIT_RE.fullmatch(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("lower", "higher"))

    def test_metric_counts(self):
        names = [m["name"] for t in ("end_to_end", "per_layer")
                 for m in spec.BENCHMARK[t]]
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(spec.END_TO_END), 16)
        self.assertLessEqual(len(spec.PER_LAYER), 128)

    def test_timed_run_measures_every_end_to_end_metric(self):
        self.assertEqual(sorted(spec.end_to_end_measured()),
                         sorted(spec.END_TO_END))

    def test_every_layer_metric_is_mapped(self):
        self.assertEqual(sorted(spec.LAYER_MAP), sorted(spec.PER_LAYER))
        for name, (moves, on) in spec.LAYER_MAP.items():
            if name not in REPORTED_ONLY:
                self.assertTrue(moves, name + " names no end-to-end metric")
            for m in moves:
                self.assertIn(m, spec.END_TO_END, name)
            self.assertTrue(on, name + " names no workload")
            for w in on:
                self.assertIn(w, spec.WORKLOADS, name)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in spec.BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = [m for m in spec.BENCHMARK["end_to_end"]
                 if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup],
                         [("s", "lower")])
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_and_command(self):
        b = spec.BENCHMARK
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(spec.WORKLOADS))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)


class ChecksTest(unittest.TestCase):
    def test_canonical_partition_matches_the_library_format(self):
        # cluster::canonical_partition: members ascending, one line per
        # cluster, clusters ordered by smallest member.
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.txt")
            with open(path, "w") as f:
                f.write(">cluster_0 size=2\ne3\ne1\n>cluster_1 size=2\n"
                        "e0\ne2\n")
            index = {"e%d" % i: i for i in range(4)}
            self.assertEqual(run.canonical_partition(path, index),
                             "0 2\n1 3\n")
            with open(path, "w") as f:
                f.write(">cluster_0 size=1\ne3\n")
            with self.assertRaises(run.Failure):
                run.canonical_partition(path, index)

    def test_pair_counts_parse_both_drivers(self):
        self.assertEqual(run.pair_counts(
            "12 of 345 promising pairs aligned in 0.5 s\n"), (12, 345))
        self.assertEqual(run.pair_counts(
            "parallel run (4 ranks): 7 of 345 promising pairs aligned; "
            "modeled run-time 1 virt s\n"), (7, 345))
        with self.assertRaises(run.Failure):
            run.pair_counts("nothing here")

    def test_interquartile_mean_drops_the_outer_quarters(self):
        self.assertEqual(run.interquartile_mean([9.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(run.interquartile_mean(
            [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 50.0]), 2.0)
        self.assertEqual(run.interquartile_mean([4.0, 1.0]), 2.5)


if __name__ == "__main__":
    unittest.main()
