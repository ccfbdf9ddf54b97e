// Table 1 reproduction: serial clustering tools versus input size under a
// memory budget.
//
// The paper ran TIGR Assembler, Phrap and CAP3 on one IBM SP processor
// with 512 MB: TIGR could not fit 50k ESTs, nothing fit 81,414, and the
// runnable entries took 23 min - 5 hrs. Those programs are closed source;
// the baseline here shares their architecture (materialize all candidate
// pairs from a seed index, align in arbitrary order) so it reproduces the
// same failure mode: candidate storage grows superlinearly and trips the
// memory budget at the larger sizes ('X'), while our pipeline's linear-
// space structures keep fitting and finish faster.

// The per-backend section extends the same memory-vs-time story to the
// pluggable pair sources: for each PairSource backend it reports the
// index footprint (GST forest vs k-mer inverted index vs sorted seeds),
// the pair and DP volume, the modeled parallel run-time, and whether the
// final partition matches the GST run byte-for-byte.

#include <memory>
#include <optional>

#include "baseline/greedy.hpp"
#include "bench/common.hpp"
#include "cluster/partition.hpp"
#include "pace/sequential.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  using namespace estclust::bench;
  CliArgs args(argc, argv);
  const double scale = parse_scale(args);

  // --pair-source=gst|kmer|fm narrows the backend section to one backend
  // (plus gst, which always runs as the reference partition); "all" is
  // the default sweep.
  const std::string source_arg = args.get_string("pair-source", "all");
  std::vector<pairgen::Backend> backends;
  if (source_arg == "all") {
    backends.assign(std::begin(pairgen::kAllBackends),
                    std::end(pairgen::kAllBackends));
  } else {
    const auto b = pairgen::parse_backend(source_arg);
    ESTCLUST_CHECK_MSG(b.has_value(), "--pair-source must be gst, kmer, fm "
                                          << "or all (got '" << source_arg
                                          << "')");
    backends.push_back(pairgen::Backend::kGst);
    if (*b != pairgen::Backend::kGst) backends.push_back(*b);
  }

  // --ests N restricts the sweep to one size (bench_smoke uses 250).
  std::vector<std::size_t> sizes = {250, 500, 1000, 2000};
  if (const std::size_t only =
          static_cast<std::size_t>(args.get_int("ests", 0));
      only > 0) {
    sizes.assign(1, only);
  }

  Reporter table("table1",
                 {"ESTs", "baseline time (s)", "baseline peak (bytes)",
                  "ours time (s)", "ours space (bytes)",
                  "ours/baseline speedup"},
                 args);
  Reporter per_backend("table1_backends",
                       {"backend", "ESTs", "index (bytes)", "pairs",
                        "DP cells", "time (s)", "match gst"},
                       args);
  // The budget plays the role of the SP node's 512 MB, scaled to the bench
  // sizes: big enough for the small inputs, too small for the largest.
  const std::size_t budget = scaled(
      static_cast<std::size_t>(args.get_int("budget-bytes", 30000000)),
      scale);
  if (!table.json_mode()) {
    print_header("Table 1: serial tools vs input size under a memory budget",
                 "Table 1 (TIGR/Phrap/CAP3 run-times and 'X' = out of memory "
                 "on 512 MB)");
    std::cout << "candidate-storage budget for the baseline: " << budget
              << " bytes\n\n";
  }

  for (std::size_t base : sizes) {
    const std::size_t n = scaled(base, scale);
    // Real EST libraries are heavily expression-skewed: a few genes own
    // thousands of ESTs. Those dense clusters are what blow up all-pairs
    // candidate storage and alignment volume in the serial tools.
    auto wcfg = bench_workload_config(n);
    wcfg.expression_skew = 0.95;
    auto wl = sim::generate(wcfg);

    baseline::BaselineConfig bcfg;
    bcfg.overlap = bench_pace_config().overlap;  // identical acceptance
    bcfg.memory_cap_bytes = budget;
    auto base_res = baseline::cluster_baseline(wl.ests, bcfg);

    auto pcfg = bench_pace_config();
    WallTimer t;
    auto ours = pace::cluster_sequential(wl.ests, pcfg);
    double ours_time = t.seconds();

    // Our space: the GST forest bytes (nodes + occurrences) dominate; it
    // is linear in input characters by construction.
    gst::BuildCounters counters;
    auto forest = gst::build_forest_sequential(wl.ests, pcfg.gst.window,
                                               &counters);
    std::size_t ours_bytes = 0;
    for (const auto& tr : forest) ours_bytes += tr.storage_bytes();

    std::string base_time =
        base_res.stats.out_of_memory
            ? "X"
            : TablePrinter::fmt(base_res.stats.t_total, 2);
    std::string speedup =
        base_res.stats.out_of_memory
            ? "X"
            : TablePrinter::fmt(base_res.stats.t_total / ours_time, 1) + "x";
    table.add_row({TablePrinter::fmt(static_cast<std::uint64_t>(n)),
                   base_time,
                   TablePrinter::fmt(
                       static_cast<std::uint64_t>(base_res.stats.peak_bytes)),
                   TablePrinter::fmt(ours_time, 2),
                   TablePrinter::fmt(static_cast<std::uint64_t>(ours_bytes)),
                   speedup});

    // Backend comparison at this size: index footprint from a sequential
    // whole-input source (all buckets owned), work and modeled time from
    // a 4-rank parallel run. The gst partition is the reference every
    // other backend must reproduce.
    std::optional<std::string> gst_partition;
    for (pairgen::Backend b : backends) {
      auto src = pairgen::make_pair_source(b, wl.ests, forest,
                                           pcfg.gst.window, pcfg.psi);
      auto bcfg2 = pcfg;
      bcfg2.pair_source = b;
      auto res = run_parallel(wl.ests, bcfg2, 4);
      const std::string partition = cluster::canonical_partition(res.labels);
      std::string match = "yes";
      if (!gst_partition.has_value()) {
        gst_partition = partition;
        if (b != pairgen::Backend::kGst) match = "n/a";
      } else if (partition != *gst_partition) {
        match = "NO";
      }
      per_backend.add_row(
          {std::string(pairgen::backend_name(b)),
           TablePrinter::fmt(static_cast<std::uint64_t>(n)),
           TablePrinter::fmt(static_cast<std::uint64_t>(src->index_bytes())),
           TablePrinter::fmt(res.stats.pairs_generated),
           TablePrinter::fmt(res.stats.dp_cells),
           TablePrinter::fmt(res.stats.t_total, 4), match});
    }
  }
  table.print(std::cout);
  if (!per_backend.json_mode()) {
    std::cout << "\n";
    print_header("Table 1b: pair-source backends at equal acceptance",
                 "Table 1's space/time axis, across GST / k-mer filter / "
                 "sorted-seed (fm) pair sources");
  }
  per_backend.print(std::cout);
  if (!table.json_mode()) {
    std::cout << "\n'X' = baseline exceeded the candidate-storage budget "
              << "(the paper's out-of-memory entries).\n";
  }
  return 0;
}
