#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <tuple>

#include "align/dispatch.hpp"
#include "mpr/runtime.hpp"
#include "pace/memo.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pace/slave.hpp"
#include "quality/metrics.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace estclust::pace {
namespace {

sim::Workload test_workload(std::size_t ests = 120, std::uint64_t seed = 7) {
  sim::SimConfig cfg;
  cfg.num_genes = 8;
  cfg.num_ests = ests;
  cfg.est_len_mean = 220;
  cfg.est_len_stddev = 40;
  cfg.est_len_min = 80;
  cfg.sub_rate = 0.01;
  cfg.ins_rate = 0.002;
  cfg.del_rate = 0.002;
  cfg.seed = seed;
  return sim::generate(cfg);
}

PaceConfig test_config() {
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 24;
  cfg.batchsize = 20;
  cfg.overlap.band = 8;
  cfg.overlap.min_quality = 0.75;
  cfg.overlap.min_overlap = 40;
  return cfg;
}

TEST(Messages, ReportRoundTrip) {
  ReportMsg m;
  WireResult r;
  r.a = 3;
  r.b = 9;
  r.b_rc = 1;
  r.accepted = 1;
  r.kind = 2;
  r.quality = 0.93f;
  r.a_begin = 5;
  r.a_end = 105;
  r.b_begin = 0;
  r.b_end = 98;
  m.results.push_back(r);
  m.pairs.push_back({1, 2, true, 33, 7, 8});
  m.pairs.push_back({4, 6, false, 21, 0, 3});
  m.out_of_pairs = true;
  m.memo_lookups = 57;
  m.memo_hits = 13;

  ReportMsg back = decode_report(encode_report(m));
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].a, 3u);
  EXPECT_EQ(back.results[0].b_rc, 1);
  EXPECT_EQ(back.results[0].a_end, 105u);
  EXPECT_FLOAT_EQ(back.results[0].quality, 0.93f);
  ASSERT_EQ(back.pairs.size(), 2u);
  EXPECT_EQ(back.pairs[0].match_len, 33u);
  EXPECT_EQ(back.pairs[1].b, 6u);
  EXPECT_TRUE(back.out_of_pairs);
  EXPECT_EQ(back.memo_lookups, 57u);
  EXPECT_EQ(back.memo_hits, 13u);
}

TEST(Messages, AssignRoundTrip) {
  AssignMsg m;
  m.work.push_back({10, 20, true, 44, 1, 2});
  m.request = 123;
  AssignMsg back = decode_assign(encode_assign(m));
  ASSERT_EQ(back.work.size(), 1u);
  EXPECT_EQ(back.work[0].a, 10u);
  EXPECT_TRUE(back.work[0].b_rc);
  EXPECT_EQ(back.request, 123u);
  EXPECT_EQ(back.stop, 0);
}

TEST(Messages, AssignStopRoundTrip) {
  // The coalesced protocol folds STOP into the final assignment.
  AssignMsg m;
  m.stop = 1;
  AssignMsg back = decode_assign(encode_assign(m));
  EXPECT_TRUE(back.work.empty());
  EXPECT_EQ(back.request, 0u);
  EXPECT_EQ(back.stop, 1);
}

TEST(Messages, EmptyReportRoundTrip) {
  ReportMsg back = decode_report(encode_report(ReportMsg{}));
  EXPECT_TRUE(back.results.empty());
  EXPECT_TRUE(back.pairs.empty());
  EXPECT_FALSE(back.out_of_pairs);
  EXPECT_EQ(back.memo_lookups, 0u);
  EXPECT_EQ(back.memo_hits, 0u);
}

TEST(StartupSplit, ThreeWaySplitPinned) {
  // The §3.3 startup batch is split into align-now / NEXTWORK / ship-to-
  // master portions. Pin the exact semantics: portions sum to
  // max(batchsize, 3), every portion is >= 1 (a batchsize < 3 would
  // otherwise starve NEXTWORK and stall the overlap pipeline), and the
  // remainder is spread front-first.
  EXPECT_EQ(startup_split(60), (std::array<std::size_t, 3>{20, 20, 20}));
  EXPECT_EQ(startup_split(7), (std::array<std::size_t, 3>{3, 2, 2}));
  EXPECT_EQ(startup_split(8), (std::array<std::size_t, 3>{3, 3, 2}));
  EXPECT_EQ(startup_split(9), (std::array<std::size_t, 3>{3, 3, 3}));
  // Degenerate batchsizes are rounded up so each portion stays nonempty.
  EXPECT_EQ(startup_split(1), (std::array<std::size_t, 3>{1, 1, 1}));
  EXPECT_EQ(startup_split(2), (std::array<std::size_t, 3>{1, 1, 1}));
  EXPECT_EQ(startup_split(3), (std::array<std::size_t, 3>{1, 1, 1}));
  for (std::size_t b = 1; b <= 64; ++b) {
    const auto s = startup_split(b);
    EXPECT_EQ(s[0] + s[1] + s[2], std::max<std::size_t>(b, 3)) << b;
    EXPECT_GE(s[2], 1u) << b;
    EXPECT_GE(s[0], s[1]) << b;
    EXPECT_GE(s[1], s[2]) << b;
    EXPECT_LE(s[0] - s[2], 1u) << b;
  }
}

align::OverlapResult memo_result(bool accepted) {
  align::OverlapResult r;
  r.kind = accepted ? align::OverlapKind::kABDovetail
                    : align::OverlapKind::kNone;
  r.quality = accepted ? 0.9 : 0.0;
  return r;
}

pairgen::PromisingPair memo_pair(std::uint32_t a, std::uint32_t b,
                                 bool b_rc = false, std::uint32_t a_pos = 10,
                                 std::uint32_t b_pos = 4,
                                 std::uint32_t match_len = 30) {
  return {a, b, b_rc, match_len, a_pos, b_pos};
}

TEST(AlignMemo, DisabledNeverHits) {
  AlignMemo memo(0);
  memo.insert(memo_pair(1, 2), 0, memo_result(true), true);
  EXPECT_EQ(memo.lookup(memo_pair(1, 2), 0), nullptr);
  EXPECT_EQ(memo.stats().insertions, 0u);
  EXPECT_EQ(memo.stats().lookups, 0u);
}

TEST(AlignMemo, AcceptedHitsAcrossAnchors) {
  // An accepted verdict is reusable for ANY anchor of the same pair: the
  // only downstream effect of "accepted" is unite(a, b), which is
  // idempotent.
  AlignMemo memo(16);
  memo.insert(memo_pair(1, 2, false, 10, 4), 0, memo_result(true), true);
  const AlignMemo::Entry* e =
      memo.lookup(memo_pair(1, 2, false, 99, 7, 12), 5);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->accepted);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(AlignMemo, RejectedHitsOnlyExactAnchorWindow) {
  // A rejection is anchor-specific: a different seed could still find an
  // acceptable overlap, so only the exact (b_rc, window, anchor) repeat
  // may reuse it.
  AlignMemo memo(16);
  memo.insert(memo_pair(1, 2, false, 10, 4, 30), 3, memo_result(false),
              false);
  EXPECT_NE(memo.lookup(memo_pair(1, 2, false, 10, 4, 30), 3), nullptr);
  EXPECT_EQ(memo.lookup(memo_pair(1, 2, false, 11, 4, 30), 3), nullptr);
  EXPECT_EQ(memo.lookup(memo_pair(1, 2, true, 10, 4, 30), 3), nullptr);
  EXPECT_EQ(memo.lookup(memo_pair(1, 2, false, 10, 4, 30), 4), nullptr);
  EXPECT_EQ(memo.lookup(memo_pair(1, 2, false, 10, 4, 31), 3), nullptr);
  EXPECT_EQ(memo.stats().lookups, 5u);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(AlignMemo, AcceptedNeverDisplacedByRejection) {
  AlignMemo memo(16);
  memo.insert(memo_pair(1, 2), 0, memo_result(true), true);
  memo.insert(memo_pair(1, 2), 7, memo_result(false), false);
  const AlignMemo::Entry* e = memo.lookup(memo_pair(1, 2), 9);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->accepted);
}

TEST(AlignMemo, EvictsOnlyRejectedWhenFull) {
  AlignMemo memo(2);
  memo.insert(memo_pair(1, 2), 0, memo_result(true), true);
  memo.insert(memo_pair(3, 4), 0, memo_result(false), false);
  memo.insert(memo_pair(5, 6), 0, memo_result(false), false);
  // The rejected FIFO is at capacity: the next rejection evicts the
  // oldest rejected entry; the accepted entry is pinned throughout.
  memo.insert(memo_pair(7, 8), 0, memo_result(false), false);
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_NE(memo.lookup(memo_pair(1, 2), 3), nullptr);
  EXPECT_EQ(memo.lookup(memo_pair(3, 4), 0), nullptr);
  EXPECT_NE(memo.lookup(memo_pair(5, 6), 0), nullptr);
  EXPECT_NE(memo.lookup(memo_pair(7, 8), 0), nullptr);
}

TEST(ConfigValidate, PsiBelowWindowRejected) {
  PaceConfig cfg = test_config();
  cfg.psi = 3;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ConfigValidate, ZeroBatchRejected) {
  PaceConfig cfg = test_config();
  cfg.batchsize = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(Sequential, RecoversGeneClustersOnCleanData) {
  auto wl = test_workload();
  auto res = cluster_sequential(wl.ests, test_config());
  auto labels = res.clusters.labels();
  auto pc = quality::count_pairs(labels, wl.truth);
  // Thresholds sit where the paper's own Table 2 lands (OQ 84.7-94.8,
  // CC 91.7-97.4, with under-prediction dominating over-prediction).
  EXPECT_GT(pc.overlap_quality(), 78.0);
  EXPECT_GT(pc.correlation(), 85.0);
  EXPECT_LT(pc.over_prediction(), 5.0);
  EXPECT_GE(pc.under_prediction(), pc.over_prediction());
}

TEST(Sequential, StatsAreCoherent) {
  auto wl = test_workload();
  auto res = cluster_sequential(wl.ests, test_config());
  const PaceStats& st = res.stats;
  // Every generated pair is either aligned or skipped.
  EXPECT_EQ(st.pairs_processed + st.pairs_skipped, st.pairs_generated);
  EXPECT_LE(st.pairs_accepted, st.pairs_processed);
  EXPECT_LE(st.merges, st.pairs_accepted);
  EXPECT_EQ(st.num_clusters, res.clusters.num_clusters());
  EXPECT_GT(st.dp_cells, 0u);
  EXPECT_GE(st.t_total, 0.0);
}

TEST(Sequential, DeterministicAcrossRuns) {
  auto wl = test_workload();
  auto a = cluster_sequential(wl.ests, test_config());
  auto b = cluster_sequential(wl.ests, test_config());
  EXPECT_EQ(a.clusters.labels(), b.clusters.labels());
  EXPECT_EQ(a.stats.pairs_processed, b.stats.pairs_processed);
}

TEST(Sequential, HotPathFlagsDoNotChangePartition) {
  // The hot-path engine is verdict-exact: memo hits and bounded early-exit
  // may skip DP work but never flip an accept/reject decision, so every
  // flag combination yields the identical partition.
  auto wl = test_workload();
  auto baseline_cfg = test_config();
  baseline_cfg.memo = false;
  baseline_cfg.bounded_align = false;
  auto base = cluster_sequential(wl.ests, baseline_cfg);
  for (bool memo : {false, true}) {
    for (bool bounded : {false, true}) {
      auto cfg = test_config();
      cfg.memo = memo;
      cfg.bounded_align = bounded;
      auto res = cluster_sequential(wl.ests, cfg);
      EXPECT_EQ(res.clusters.labels(), base.clusters.labels())
          << "memo=" << memo << " bounded=" << bounded;
      EXPECT_EQ(res.stats.pairs_accepted, base.stats.pairs_accepted)
          << "memo=" << memo << " bounded=" << bounded;
      // Skipping work can only reduce the cell count, never raise it.
      EXPECT_LE(res.stats.dp_cells, base.stats.dp_cells)
          << "memo=" << memo << " bounded=" << bounded;
    }
  }
}

TEST(Sequential, OrderedProcessingAlignsFewerPairsThanArbitrary) {
  // The §3.2 claim behind Fig 7: decreasing-match-length order lets the
  // cluster structure suppress redundant alignments.
  auto wl = test_workload(160);
  auto ordered = cluster_sequential(wl.ests, test_config(), {.arbitrary_order = false});
  auto arbitrary = cluster_sequential(wl.ests, test_config(), {.arbitrary_order = true});
  EXPECT_LT(ordered.stats.pairs_processed, arbitrary.stats.pairs_processed);
  // Same final partition either way: components of the acceptance graph.
  EXPECT_EQ(ordered.clusters.labels(), arbitrary.clusters.labels());
}

TEST(Sequential, SingleEstIsItsOwnCluster) {
  bio::EstSet one(std::vector<bio::Sequence>{
      {"only", "ACGTACGTGGCCAATTACGTACGTGGCCAATTACGT"}});
  auto res = cluster_sequential(one, test_config());
  EXPECT_EQ(res.stats.num_clusters, 1u);
  EXPECT_EQ(res.stats.pairs_generated, 0u);
}

TEST(Sequential, DisjointGenesStaySeparate) {
  // Two genes with no shared sequence; every EST error-free.
  sim::SimConfig cfg;
  cfg.num_genes = 2;
  cfg.num_ests = 30;
  cfg.sub_rate = cfg.ins_rate = cfg.del_rate = 0.0;
  cfg.est_len_mean = 200;
  cfg.est_len_min = 100;
  cfg.seed = 11;
  auto wl = sim::generate(cfg);
  auto res = cluster_sequential(wl.ests, test_config());
  auto pc = quality::count_pairs(res.clusters.labels(), wl.truth);
  EXPECT_EQ(pc.fp, 0u);  // no cross-gene merges on clean disjoint data
}

class ParallelPaceTest : public testing::TestWithParam<int> {};

TEST_P(ParallelPaceTest, MatchesSequentialPartitionExactly) {
  // The accepted-pair graph is a pure function of the generated pairs, so
  // the final partition must be identical for every rank count.
  const int p = GetParam();
  auto wl = test_workload();
  auto cfg = test_config();
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();

  std::mutex mu;
  std::vector<std::vector<std::uint32_t>> per_rank(p);
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[comm.rank()] = std::move(res.labels);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(per_rank[r], seq_labels) << "rank " << r << " at p=" << p;
  }
}

TEST_P(ParallelPaceTest, StatsAggregateCoherently) {
  const int p = GetParam();
  auto wl = test_workload();
  auto cfg = test_config();

  PaceStats stats;
  std::mutex mu;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      stats = res.stats;
    }
  });
  EXPECT_EQ(stats.pairs_processed + stats.pairs_skipped,
            stats.pairs_generated);
  EXPECT_LE(stats.merges, stats.pairs_accepted);
  EXPECT_GT(stats.num_clusters, 0u);
  EXPECT_GT(stats.t_total, 0.0);
  EXPECT_GE(stats.t_gst, 0.0);
  EXPECT_GE(stats.t_align, 0.0);
  if (p > 1) {
    EXPECT_GE(stats.master_busy_fraction, 0.0);
    EXPECT_LE(stats.master_busy_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelPaceTest,
                         testing::Values(1, 2, 3, 5, 9));

TEST(Parallel, DeterministicAcrossRuns) {
  const int p = 4;
  auto wl = test_workload();
  auto cfg = test_config();
  std::vector<std::uint32_t> first, second;
  double t_first = 0, t_second = 0;
  for (int run = 0; run < 2; ++run) {
    mpr::Runtime rt(p, mpr::CostModel{});
    std::vector<std::uint32_t> labels;
    double t = 0;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        labels = res.labels;
        t = res.stats.t_total;
      }
    });
    if (run == 0) {
      first = labels;
      t_first = t;
    } else {
      second = labels;
      t_second = t;
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(t_first, t_second);  // virtual time is deterministic too
}

TEST(Parallel, TinyDatasetTerminates) {
  // Fewer ESTs than slaves; most slaves are passive from the start. The
  // shared sequence must exceed min_overlap (40) for the merge to pass.
  const std::string shared =
      "ACGTACGTGGCCAATTACGTACGTGGCCAATTACGTTGCAGGTTAACCGGATCCAA";
  bio::EstSet two({{"a", shared}, {"b", shared}});
  auto cfg = test_config();
  cfg.psi = 24;
  mpr::Runtime rt(6, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, two, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      labels = res.labels;
    }
  });
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], labels[1]);  // identical ESTs merge
}

TEST(Parallel, SingleSlaveWorks) {
  auto wl = test_workload(60);
  auto cfg = test_config();
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();
  mpr::Runtime rt(2, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) labels = res.labels;
  });
  EXPECT_EQ(labels, seq_labels);
}

TEST(Parallel, SmallBatchsizeStillCorrect) {
  auto wl = test_workload(80);
  auto cfg = test_config();
  cfg.batchsize = 3;
  cfg.pairbuf_capacity = 8;
  cfg.workbuf_capacity = 64;
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();
  mpr::Runtime rt(5, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) labels = res.labels;
  });
  EXPECT_EQ(labels, seq_labels);
}

TEST(Parallel, HotPathFlagsDoNotChangePartition) {
  // Same verdict-exactness claim under the master/slave protocol: memo,
  // bounded kernel and adaptive batching in any combination produce the
  // partition of the all-off legacy configuration.
  const int p = 4;
  auto wl = test_workload();
  auto legacy = test_config();
  legacy.memo = false;
  legacy.bounded_align = false;
  legacy.adaptive_batch = false;
  auto want = cluster_sequential(wl.ests, legacy).clusters.labels();

  struct Variant {
    bool memo, bounded, adaptive;
  };
  for (const Variant v : {Variant{false, false, false},
                          Variant{true, false, false},
                          Variant{false, true, false},
                          Variant{false, false, true},
                          Variant{true, true, true}}) {
    auto cfg = test_config();
    cfg.memo = v.memo;
    cfg.bounded_align = v.bounded;
    cfg.adaptive_batch = v.adaptive;
    mpr::Runtime rt(p, mpr::CostModel{});
    std::vector<std::uint32_t> labels;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      std::lock_guard<std::mutex> lock(mu);
      if (comm.rank() == 0) labels = res.labels;
    });
    EXPECT_EQ(labels, want) << "memo=" << v.memo << " bounded=" << v.bounded
                            << " adaptive=" << v.adaptive;
  }
}

/// Only the GST walk builds the forest: seed-backend runs publish no GST
/// build work at any rank count (their §3.1 share is the ownership scan,
/// charged to the partitioning phase), while gst runs do.
TEST(Parallel, OnlyTheGstBackendBuildsTheForest) {
  auto wl = test_workload(60);
  for (pairgen::Backend b : pairgen::kAllBackends) {
    auto cfg = test_config();
    cfg.pair_source = b;
    for (int p : {1, 2, 4}) {
      PaceStats stats;
      std::mutex mu;
      mpr::Runtime rt(p, mpr::CostModel{});
      rt.run([&](mpr::Communicator& comm) {
        auto res = cluster_parallel(comm, wl.ests, cfg);
        if (comm.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          stats = res.stats;
        }
      });
      const auto merged = rt.merged_metrics();
      const std::string what =
          std::string(pairgen::backend_name(b)) + " p=" + std::to_string(p);
      if (b == pairgen::Backend::kGst) {
        EXPECT_GT(merged.counter_value("gst.chars_scanned"), 0u) << what;
        EXPECT_GT(merged.counter_value("gst.buckets_owned"), 0u) << what;
        EXPECT_GT(stats.t_gst, 0.0) << what;
      } else {
        // counter_value reads 0 for an absent counter.
        EXPECT_EQ(merged.counter_value("gst.chars_scanned"), 0u) << what;
        EXPECT_EQ(merged.counter_value("gst.buckets_owned"), 0u) << what;
        EXPECT_EQ(stats.t_gst, 0.0) << what;
      }
      EXPECT_GT(stats.t_partition, 0.0) << what;
    }
  }
}

/// The sequential and single-rank drivers run the same §3.3 step over the
/// same pair stream, so beyond the partition they must agree on every
/// accepted overlap, in order, and on every step counter.
TEST(LocalDrivers, SequentialAndSingleRankAgreeRecordForRecord) {
  auto wl = test_workload();
  const auto fields = [](const AcceptedOverlap& o) {
    return std::tie(o.a, o.b, o.b_rc, o.kind, o.a_begin, o.a_end, o.b_begin,
                    o.b_end, o.quality);
  };
  for (pairgen::Backend b : pairgen::kAllBackends) {
    for (bool memo : {false, true}) {
      auto cfg = test_config();
      cfg.pair_source = b;
      cfg.memo = memo;
      const std::string what = std::string(pairgen::backend_name(b)) +
                               (memo ? " memo=on" : " memo=off");
      const SequentialResult seq = cluster_sequential(wl.ests, cfg);
      ParallelResult single;
      mpr::Runtime rt(1, mpr::CostModel{});
      rt.run([&](mpr::Communicator& comm) {
        single = cluster_parallel(comm, wl.ests, cfg);
      });

      ASSERT_EQ(seq.overlaps.size(), single.overlaps.size()) << what;
      EXPECT_FALSE(seq.overlaps.empty()) << what;
      for (std::size_t i = 0; i < seq.overlaps.size(); ++i) {
        EXPECT_TRUE(fields(seq.overlaps[i]) == fields(single.overlaps[i]))
            << what << ": overlap " << i << " differs";
      }
      const PaceStats& x = seq.stats;
      const PaceStats& y = single.stats;
      EXPECT_EQ(x.pairs_generated, y.pairs_generated) << what;
      EXPECT_EQ(x.pairs_processed, y.pairs_processed) << what;
      EXPECT_EQ(x.pairs_skipped, y.pairs_skipped) << what;
      EXPECT_EQ(x.pairs_accepted, y.pairs_accepted) << what;
      EXPECT_EQ(x.merges, y.merges) << what;
      EXPECT_EQ(x.dp_cells, y.dp_cells) << what;
    }
  }
}

/// The merged registry carries the same counts the driver returns, on the
/// single-rank path and on the master/slave path alike, and the aligner
/// publisher attributes every aligned pair to the active kernel variant.
TEST(Parallel, PublishedMetricsMatchReturnedStats) {
  auto wl = test_workload();
  const auto cfg = test_config();
  const std::string active =
      align::to_string(align::active_kernel());
  for (int p : {1, 4}) {
    PaceStats st;
    std::mutex mu;
    mpr::Runtime rt(p, mpr::CostModel{});
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        st = res.stats;
      }
    });
    const auto m = rt.merged_metrics();
    const std::string what = "p=" + std::to_string(p);
    EXPECT_EQ(m.counter_value("pace.pairs_generated"), st.pairs_generated)
        << what;
    EXPECT_EQ(m.counter_value("pace.pairs_aligned"), st.pairs_processed)
        << what;
    EXPECT_EQ(m.counter_value("pace.pairs_skipped"), st.pairs_skipped)
        << what;
    EXPECT_EQ(m.counter_value("pace.pairs_accepted"), st.pairs_accepted)
        << what;
    EXPECT_EQ(m.counter_value("pace.merges"), st.merges) << what;
    EXPECT_EQ(m.counter_value("pace.dp_cells"), st.dp_cells) << what;
    EXPECT_GT(st.pairs_processed, 0u) << what;

    for (const char* v : {"scalar", "sse2", "avx2"}) {
      const std::uint64_t want =
          v == active ? st.pairs_processed : std::uint64_t{0};
      EXPECT_EQ(m.counter_value(std::string("kernel.variant.") + v), want)
          << what << " variant " << v;
    }
    EXPECT_LE(m.counter_value("pace.memo_hits"),
              m.counter_value("pace.memo_lookups"))
        << what;
    EXPECT_GT(m.gauge_value("align.arena_bytes"), 0.0) << what;
  }
}

/// Each rank indexes only its §3.1 share: the largest per-rank pair-source
/// index at p=4 (three slaves) is well below the one-rank index, for every
/// backend. A backend that builds a whole-text structure on every rank
/// stays near 1× and fails.
TEST(Parallel, PairSourceIndexIsPartitionedAcrossRanks) {
  auto wl = test_workload();
  for (pairgen::Backend backend : pairgen::kAllBackends) {
    auto cfg = test_config();
    cfg.pair_source = backend;
    auto index_bytes_at = [&](int p) {
      mpr::Runtime rt(p, mpr::CostModel{});
      rt.run([&](mpr::Communicator& comm) {
        cluster_parallel(comm, wl.ests, cfg);
      });
      return rt.merged_metrics().gauge_value("pairgen.index_bytes");
    };
    const double p1 = index_bytes_at(1);
    const double p4 = index_bytes_at(4);
    const std::string what(pairgen::backend_name(backend));
    EXPECT_GT(p1, 0.0) << what;
    EXPECT_LE(p4, 0.6 * p1) << what << ": p=1 " << p1 << " B, p=4 " << p4
                            << " B";
  }
}

/// The drained stream publishes its lset working memory: positive for
/// the GST walk at every rank count, 0 for the seed backends, which hold
/// no lsets.
TEST(Parallel, WalkMemoryGaugesPublished) {
  auto wl = test_workload();
  for (pairgen::Backend backend : pairgen::kAllBackends) {
    auto cfg = test_config();
    cfg.pair_source = backend;
    for (int p : {1, 4}) {
      mpr::Runtime rt(p, mpr::CostModel{});
      rt.run([&](mpr::Communicator& comm) {
        cluster_parallel(comm, wl.ests, cfg);
      });
      const auto m = rt.merged_metrics();
      const std::string what = std::string(pairgen::backend_name(backend)) +
                               " p=" + std::to_string(p);
      for (const char* name :
           {"pairgen.lset_peak_slots", "pairgen.lset_peak_bytes"}) {
        if (backend == pairgen::Backend::kGst) {
          EXPECT_GT(m.gauge_value(name), 0.0) << what << " " << name;
        } else {
          EXPECT_EQ(m.gauge_value(name), 0.0) << what << " " << name;
        }
      }
      if (backend == pairgen::Backend::kGst) {
        EXPECT_GE(m.gauge_value("pairgen.lset_peak_bytes"),
                  m.gauge_value("pairgen.lset_peak_slots"))
            << what;
      }
    }
  }
}

TEST(Parallel, VirtualTimeDecreasesWithMoreRanks) {
  // The headline claim: run-times scale with the number of processors.
  auto wl = test_workload(200, 31);
  auto cfg = test_config();
  auto run_at = [&](int p) {
    mpr::Runtime rt(p, mpr::CostModel{});
    double t = 0;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        t = res.stats.t_total;
      }
    });
    return t;
  };
  double t2 = run_at(2);   // one slave
  double t5 = run_at(5);   // four slaves
  EXPECT_LT(t5, t2);
  EXPECT_GT(t5, t2 / 8.0);  // sublinear, not magic
}

}  // namespace
}  // namespace estclust::pace
