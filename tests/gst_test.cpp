#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "gst/tree.hpp"
#include "mpr/runtime.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace estclust::gst {
namespace {

using bio::EstSet;
using bio::Sequence;

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

EstSet random_ests(Prng& rng, std::size_t n, std::size_t min_len,
                   std::size_t max_len) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back({"e" + std::to_string(i),
                    random_dna(rng, min_len + rng.uniform(max_len - min_len + 1))});
  }
  return EstSet(std::move(seqs));
}

bool nodes_equal(const Node& a, const Node& b) {
  return a.rightmost == b.rightmost && a.depth == b.depth &&
         a.occ_begin == b.occ_begin && a.occ_end == b.occ_end;
}

bool trees_equal(const Tree& a, const Tree& b) {
  if (a.bucket_id != b.bucket_id || a.prefix_depth != b.prefix_depth)
    return false;
  if (a.nodes.size() != b.nodes.size() || a.occs.size() != b.occs.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (!nodes_equal(a.nodes[i], b.nodes[i])) return false;
  }
  for (std::size_t i = 0; i < a.occs.size(); ++i) {
    if (!(a.occs[i] == b.occs[i])) return false;
  }
  return true;
}

TEST(BucketOf, LexicographicBase4) {
  EXPECT_EQ(bucket_of("AAAA", 0, 2), 0u);
  EXPECT_EQ(bucket_of("ACAA", 0, 2), 1u);
  EXPECT_EQ(bucket_of("TTAA", 0, 2), 15u);
  EXPECT_EQ(bucket_of("GATT", 1, 2), 0u * 4 + 3u);  // "AT"
}

TEST(NumBuckets, PowersOfFour) {
  EXPECT_EQ(num_buckets(1), 4u);
  EXPECT_EQ(num_buckets(8), 65536u);
  EXPECT_THROW(num_buckets(0), CheckError);
  EXPECT_THROW(num_buckets(12), CheckError);
}

TEST(CollectSuffixes, EnumeratesAllLongEnoughSuffixes) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, 2, 2, out);
  // "ACGT": suffixes >= 2 at pos 0,1,2; "ACGT" rc = "ACGT": same count.
  EXPECT_EQ(out.size(), 6u);
  for (const auto& bs : out) {
    auto s = ests.str(bs.occ.sid);
    EXPECT_EQ(bs.bucket, bucket_of(s, bs.occ.pos, 2));
    EXPECT_GE(s.size() - bs.occ.pos, 2u);
  }
}

TEST(CollectSuffixes, DropsShortStringsEntirely) {
  EstSet ests(std::vector<Sequence>{{"a", "AC"}});
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, 2, 3, out);
  EXPECT_TRUE(out.empty());
}

TEST(CollectSuffixes, RollingBucketMatchesDirect) {
  Prng rng(1);
  EstSet ests = random_ests(rng, 5, 20, 60);
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), 4,
                   out);
  for (const auto& bs : out) {
    EXPECT_EQ(bs.bucket, bucket_of(ests.str(bs.occ.sid), bs.occ.pos, 4));
  }
}

TEST(BuildBucketTree, HandComputedExample) {
  // Suffixes of "ACAC" in bucket 'A' (w=1): "ACAC" and "AC". They share
  // prefix "AC"; one ends there ($-leaf), the other continues.
  EstSet ests(std::vector<Sequence>{{"a", "ACAC"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket = {{0, 0}, {0, 2}};
  Tree t = build_bucket_tree(ests, bucket, 1, 0, c);
  ASSERT_EQ(t.nodes.size(), 3u);
  EXPECT_FALSE(t.is_leaf(0));
  EXPECT_EQ(t.depth(0), 2u);            // branch node "AC"
  EXPECT_TRUE(t.is_leaf(1));
  EXPECT_EQ(t.depth(1), 2u);            // $-leaf for suffix "AC"
  EXPECT_TRUE(t.is_leaf(2));
  EXPECT_EQ(t.depth(2), 4u);            // leaf for suffix "ACAC"
  EXPECT_EQ(t.nodes[0].rightmost, 2u);
  t.validate(ests);
}

TEST(BuildBucketTree, SingletonBucketIsOneLeaf) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGTACGT"}});
  BuildCounters c;
  Tree t = build_bucket_tree(ests, {{0, 2}}, 2, bucket_of("GT", 0, 2), c);
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.depth(0), 6u);  // whole remaining suffix "GTACGT"
  t.validate(ests);
}

TEST(BuildBucketTree, IdenticalSuffixesCoalesceIntoOneLeaf) {
  // Two distinct ESTs with the same content: every suffix pair coalesces.
  EstSet ests({{"a", "ACGT"}, {"b", "ACGT"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket = {{0, 0}, {2, 0}};  // both "ACGT"
  Tree t = build_bucket_tree(ests, bucket, 2, bucket_of("AC", 0, 2), c);
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.occurrences(0).size(), 2u);
  EXPECT_EQ(t.depth(0), 4u);
  t.validate(ests);
}

TEST(BuildBucketTree, PolyARepeatBuildsDeepChain) {
  EstSet ests(std::vector<Sequence>{{"a", std::string(12, 'A') + "C"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket;
  // All suffixes starting with 'A'.
  for (std::uint32_t pos = 0; pos < 12; ++pos) bucket.push_back({0, pos});
  Tree t = build_bucket_tree(ests, bucket, 1, 0, c);
  t.validate(ests);
  // Every suffix is distinct (different distances to the final C): 12
  // leaves, each its own occurrence.
  std::uint32_t leaves = t.num_leaves(0);
  EXPECT_EQ(leaves, 12u);
  EXPECT_EQ(t.num_occurrences(0), 12u);
}

TEST(BuildBucketTree, CanonicalRegardlessOfInputOrder) {
  Prng rng(2);
  EstSet ests = random_ests(rng, 4, 30, 50);
  std::vector<BucketedSuffix> all;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), 2,
                   all);
  // Pick the largest bucket.
  std::map<std::uint64_t, std::vector<SuffixOcc>> groups;
  for (const auto& bs : all) groups[bs.bucket].push_back(bs.occ);
  auto it = groups.begin();
  for (auto g = groups.begin(); g != groups.end(); ++g) {
    if (g->second.size() > it->second.size()) it = g;
  }
  auto forward = it->second;
  auto reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  BuildCounters c1, c2;
  Tree t1 = build_bucket_tree(ests, forward, 2, it->first, c1);
  Tree t2 = build_bucket_tree(ests, reversed, 2, it->first, c2);
  EXPECT_TRUE(trees_equal(t1, t2));
}

TEST(SequentialForest, EverySuffixAppearsExactlyOnce) {
  Prng rng(3);
  EstSet ests = random_ests(rng, 8, 25, 60);
  const std::uint32_t w = 3;
  auto forest = build_forest_sequential(ests, w);
  std::set<std::pair<bio::StringId, std::uint32_t>> seen;
  std::size_t total = 0;
  for (const auto& t : forest) {
    t.validate(ests);
    for (const auto& occ : t.occs) {
      EXPECT_TRUE(seen.insert({occ.sid, occ.pos}).second)
          << "duplicate suffix sid=" << occ.sid << " pos=" << occ.pos;
      ++total;
    }
  }
  // Expected count: all suffixes of length >= w over all 2n strings.
  std::size_t expected = 0;
  for (bio::StringId sid = 0; sid < ests.num_strings(); ++sid) {
    auto len = ests.str(sid).size();
    if (len >= w) expected += len - w + 1;
  }
  EXPECT_EQ(total, expected);
}

TEST(SequentialForest, TreesSortedByBucketAndPrefixConsistent) {
  Prng rng(4);
  EstSet ests = random_ests(rng, 5, 20, 40);
  const std::uint32_t w = 2;
  auto forest = build_forest_sequential(ests, w);
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& t : forest) {
    if (!first) {
      EXPECT_GT(t.bucket_id, prev);
    }
    prev = t.bucket_id;
    first = false;
    // All occurrences in the tree start with the bucket's w-prefix.
    for (const auto& occ : t.occs) {
      EXPECT_EQ(bucket_of(ests.str(occ.sid), occ.pos, w), t.bucket_id);
    }
  }
}

TEST(SequentialForest, NodeCountLinearInSuffixCount) {
  Prng rng(5);
  EstSet ests = random_ests(rng, 20, 40, 80);
  BuildCounters c;
  auto forest = build_forest_sequential(ests, 3, &c);
  std::size_t nodes = 0;
  for (const auto& t : forest) nodes += t.nodes.size();
  EXPECT_LE(nodes, 2 * c.suffixes);  // at most 2k-1 nodes for k suffixes
  EXPECT_EQ(nodes, c.nodes);
}

TEST(SequentialForest, StorageBytesLinearInInput) {
  Prng rng(6);
  EstSet ests = random_ests(rng, 30, 60, 100);
  auto forest = build_forest_sequential(ests, 4);
  std::size_t bytes = 0;
  for (const auto& t : forest) bytes += t.storage_bytes();
  // <= (16 bytes/node) * 2 * suffixes + 8 bytes/occ ~ 40 bytes per input
  // char. The point is linearity with a modest constant, not the constant
  // itself.
  EXPECT_LE(bytes, 48 * ests.total_string_chars());
}

TEST(Navigation, ChildIterationCoversSubtreeExactly) {
  Prng rng(7);
  EstSet ests = random_ests(rng, 6, 30, 60);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      if (t.is_leaf(v)) continue;
      // Children tile [v+1, rightmost]: each child's range abuts the next.
      std::uint32_t expected = v + 1;
      t.for_each_child(v, [&](std::uint32_t u) {
        EXPECT_EQ(u, expected);
        expected = t.nodes[u].rightmost + 1;
      });
      EXPECT_EQ(expected, t.nodes[v].rightmost + 1);
    }
  }
}

TEST(Navigation, PathLabelHasNodeDepth) {
  Prng rng(8);
  EstSet ests = random_ests(rng, 4, 25, 40);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      EXPECT_EQ(t.path_label(ests, v).size(), t.depth(v));
    }
  }
}

TEST(Navigation, NumChildrenAndLeafCounts) {
  Prng rng(21);
  EstSet ests = random_ests(rng, 5, 25, 50);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      if (t.is_leaf(v)) {
        EXPECT_EQ(t.num_children(v), 0u);
        EXPECT_EQ(t.num_leaves(v), 1u);
      } else {
        EXPECT_GE(t.num_children(v), 2u);
        // Leaves of children partition the node's leaves.
        std::uint32_t child_leaves = 0;
        t.for_each_child(v, [&](std::uint32_t u) {
          child_leaves += t.num_leaves(u);
        });
        EXPECT_EQ(child_leaves, t.num_leaves(v));
      }
    }
  }
}

TEST(Navigation, PathLabelOfLeafIsTheSuffix) {
  EstSet ests(std::vector<Sequence>{{"a", "GATTACA"}});
  BuildCounters c;
  Tree t = build_bucket_tree(ests, {{0, 3}}, 2, bucket_of("TA", 0, 2), c);
  ASSERT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.path_label(ests, 0), "TACA");
}

TEST(LeftExtension, LambdaAtStringStart) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  EXPECT_EQ(left_extension_code(ests, {0, 0}), bio::kLambdaCode);
  EXPECT_EQ(left_extension_code(ests, {0, 1}), bio::encode_base('A'));
  EXPECT_EQ(left_extension_code(ests, {0, 3}), bio::encode_base('G'));
}

TEST(CodeText, SentinelsAroundEveryStringThenPad) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}, {"b", "GGA"}});
  const CodeText text(ests);
  const std::uint8_t s = CodeText::kSentinel;
  // $ ACGT $ ACGT(rc) $ GGA $ TCC(rc) $, then the zero pad.
  const std::vector<std::uint8_t> want = {s, 0, 1, 2, 3, s, 0, 1, 2, 3, s,
                                          2, 2, 0, s, 3, 1, 1, s};
  ASSERT_EQ(std::vector<std::uint8_t>(text.data(), text.data() + want.size()),
            want);
  for (std::size_t i = 0; i < CodeText::kTailPad; ++i) {
    EXPECT_EQ(text.data()[want.size() + i], 0u);
  }
  EXPECT_EQ(text.start(0), 1u);
  EXPECT_EQ(text.end(0), 5u);
  EXPECT_EQ(text.start(3), 15u);
  EXPECT_EQ(text.end(3), 18u);
  // The byte before a suffix is its left-extension code, λ at pos 0.
  for (bio::StringId sid = 0; sid < 4; ++sid) {
    for (std::uint32_t pos = 0; pos < ests.str(sid).size(); ++pos) {
      EXPECT_EQ(text.data()[text.start(sid) + pos - 1],
                left_extension_code(ests, {sid, pos}));
    }
  }
}

TEST(BuildBucketTree, LeafOccurrencesCarryLeftExtensionCodes) {
  // Suffixes sharing a prefix longer than a word, so the refiner's
  // eight-codes-per-compare scan runs into string ends and the tail pad.
  Prng rng(12);
  const std::string core = random_dna(rng, 40);
  EstSet ests({{"a", core},
               {"b", "C" + core},
               {"c", "GT" + core + "A"},
               {"d", core.substr(0, 21)}});
  for (const Tree& t : build_forest_sequential(ests, 2)) {
    t.validate(ests);  // checks every occurrence's lext
    for (const TreeOcc& occ : t.occs) {
      EXPECT_EQ(static_cast<int>(occ.lext), left_extension_code(ests, occ));
    }
  }
}

TEST(PartitionEsts, CoversAllWithoutOverlap) {
  Prng rng(9);
  EstSet ests = random_ests(rng, 23, 10, 100);
  for (int p : {1, 2, 3, 5, 8, 23, 40}) {
    auto ranges = partition_ests(ests, p);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(p));
    bio::EstId next = 0;
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, next);
      EXPECT_LE(lo, hi);
      next = hi;
    }
    EXPECT_EQ(next, ests.num_ests());
  }
}

TEST(PartitionEsts, RoughCharacterBalance) {
  Prng rng(10);
  EstSet ests = random_ests(rng, 100, 50, 51);
  auto ranges = partition_ests(ests, 4);
  for (const auto& [lo, hi] : ranges) {
    std::size_t chars = 0;
    for (bio::EstId i = lo; i < hi; ++i) chars += ests.est(i).bases.size();
    EXPECT_NEAR(static_cast<double>(chars),
                static_cast<double>(ests.total_est_chars()) / 4.0,
                60.0);  // within ~one EST of the target
  }
}

TEST(AssignBuckets, BalancedLoads) {
  std::vector<std::uint64_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::uint64_t> sizes = {100, 90, 80, 70, 30, 20, 10, 5};
  auto owner = assign_buckets(ids, sizes, 3);
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_GE(owner[i], 0);
    ASSERT_LT(owner[i], 3);
    load[owner[i]] += sizes[i];
  }
  auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx - *mn, 100u);  // no worse than the largest bucket
}

TEST(AssignBuckets, MorePRanksThanBuckets) {
  auto owner = assign_buckets({7}, {42}, 8);
  ASSERT_EQ(owner.size(), 1u);
  EXPECT_EQ(owner[0], 0);
}

class ParallelGstTest : public testing::TestWithParam<int> {};

TEST_P(ParallelGstTest, MatchesSequentialForest) {
  const int p = GetParam();
  Prng rng(42);
  EstSet ests = random_ests(rng, 12, 30, 70);
  GstConfig cfg;
  cfg.window = 3;

  auto sequential = build_forest_sequential(ests, cfg.window);

  std::mutex mu;
  std::map<std::uint64_t, Tree> parallel_trees;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto local = build_forest_parallel(comm, ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    for (auto& t : local) {
      auto [it, inserted] = parallel_trees.emplace(t.bucket_id, std::move(t));
      EXPECT_TRUE(inserted) << "bucket on two ranks";
      (void)it;
    }
  });

  ASSERT_EQ(parallel_trees.size(), sequential.size());
  for (const auto& st : sequential) {
    auto it = parallel_trees.find(st.bucket_id);
    ASSERT_NE(it, parallel_trees.end());
    EXPECT_TRUE(trees_equal(st, it->second))
        << "bucket " << st.bucket_id << " differs at p=" << p;
  }
}

TEST_P(ParallelGstTest, StatsAreConsistent) {
  const int p = GetParam();
  Prng rng(43);
  EstSet ests = random_ests(rng, 10, 30, 60);
  GstConfig cfg;
  cfg.window = 2;

  std::mutex mu;
  std::uint64_t total_local = 0;
  std::uint64_t global_seen = 0;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    ParallelBuildStats st;
    auto local = build_forest_parallel(comm, ests, cfg, &st);
    std::size_t occs = 0;
    for (const auto& t : local) occs += t.occs.size();
    EXPECT_EQ(st.local_suffixes, occs);
    EXPECT_EQ(st.local_buckets, local.size());
    EXPECT_GE(st.partition_vtime, 0.0);
    EXPECT_GE(st.build_vtime, 0.0);
    std::lock_guard<std::mutex> lock(mu);
    total_local += st.local_suffixes;
    global_seen = st.global_suffixes;
  });
  EXPECT_EQ(total_local, global_seen);
}

/// The offline recomputations (the seed backends' ownership scan and the
/// master's dead-rank rebuild) agree with the collective build on
/// every owning rank, with and without the master excluded from ownership
/// (first_owner_rank = 1 needs p >= 2).
TEST_P(ParallelGstTest, OfflineOwnershipMatchesCollectiveBuild) {
  const int p = GetParam();
  Prng rng(45);
  EstSet ests = random_ests(rng, 14, 30, 80);
  GstConfig cfg;
  cfg.window = 3;
  std::vector<BucketedSuffix> all;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()),
                   cfg.window, all);

  for (int first_owner : {0, 1}) {
    if (first_owner >= p) continue;
    std::mutex mu;
    std::vector<std::vector<Tree>> forests(p);
    mpr::Runtime rt(p, mpr::CostModel{});
    rt.run([&](mpr::Communicator& comm) {
      auto local = build_forest_parallel(comm, ests, cfg, nullptr, first_owner);
      std::lock_guard<std::mutex> lock(mu);
      forests[comm.rank()] = std::move(local);
    });
    for (int r = 0; r < first_owner; ++r) EXPECT_TRUE(forests[r].empty());
    for (int r = first_owner; r < p; ++r) {
      std::vector<std::uint64_t> ids;
      for (const auto& t : forests[r]) ids.push_back(t.bucket_id);
      std::sort(ids.begin(), ids.end());
      std::uint64_t scanned = 0;
      EXPECT_EQ(owned_bucket_ids(ests, cfg, p, first_owner, r, &scanned), ids)
          << "p=" << p << " first_owner=" << first_owner << " rank=" << r;
      EXPECT_EQ(scanned, all.size());

      auto rebuilt = rebuild_rank_forest(ests, cfg, p, first_owner, r);
      ASSERT_EQ(rebuilt.size(), forests[r].size());
      for (std::size_t i = 0; i < rebuilt.size(); ++i) {
        EXPECT_TRUE(trees_equal(rebuilt[i], forests[r][i]))
            << "bucket " << rebuilt[i].bucket_id << " differs at p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelGstTest,
                         testing::Values(1, 2, 3, 4, 8));

/// FNV-1a over every tree's bucket, window, nodes and occurrences.
std::uint64_t forest_digest(const std::vector<Tree>& forest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Tree& t : forest) {
    mix(t.bucket_id);
    mix(t.prefix_depth);
    for (const Node& n : t.nodes) {
      mix(n.rightmost);
      mix(n.depth);
      mix(n.occ_begin);
      mix(n.occ_end);
    }
    for (const SuffixOcc& o : t.occs) {
      mix(o.sid);
      mix(o.pos);
    }
  }
  return h;
}

/// Randomly lower-cases about half the bases of every read.
EstSet mixed_case(Prng& rng, const EstSet& ests) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < ests.num_ests(); ++i) {
    std::string s = ests.est(static_cast<bio::EstId>(i)).bases;
    for (char& c : s) {
      if (rng.bernoulli(0.5)) c = static_cast<char>(c - 'A' + 'a');
    }
    seqs.push_back({"m" + std::to_string(i), s});
  }
  return EstSet(std::move(seqs));
}

TEST(GstBuild, CountersAndShapePinned) {
  // Builder counters and an FNV digest of every tree, computed with the
  // comparison-sort bucketing and the depth-at-a-time refiner (one group
  // scan per depth, one heap vector per class per node) that preceded the
  // counting-pass bucketing and in-place range refinement. Any change to
  // tree shape, leaf occurrence order or the chars_scanned charge moves
  // these values.
  struct Case {
    const char* name;
    EstSet ests;
    std::uint32_t w;
    BuildCounters want;
    std::uint64_t digest;
  };
  Prng rng(2024);
  EstSet plain = random_ests(rng, 40, 30, 120);
  // Windows of one gene, so overlaps span upper/lower-case spellings.
  const std::string gene = random_dna(rng, 200);
  std::vector<Sequence> windows;
  for (int i = 0; i < 24; ++i) {
    const std::size_t start = rng.uniform(140);
    windows.push_back({"g" + std::to_string(i), gene.substr(start, 60)});
  }
  EstSet mixed = mixed_case(rng, EstSet(std::move(windows)));
  const std::string read = random_dna(rng, 90);
  EstSet dups({{"a", read},
               {"b", read},
               {"c", read},
               {"d", random_dna(rng, 70)},
               {"e", read + random_dna(rng, 20)}});
  EstSet prefix({{"p", read.substr(0, 45)},
                 {"q", read},
                 {"r", read.substr(10, 60)},
                 {"s", random_dna(rng, 50) + read.substr(0, 30)}});
  std::vector<Case> cases;
  cases.push_back({"plain", std::move(plain), 4, {5540, 17500, 8807},
                   13906060505263359073ULL});
  cases.push_back({"mixed_case", std::move(mixed), 3, {2784, 79738, 4840},
                   2639834550150129517ULL});
  cases.push_back({"identical", std::move(dups), 4, {870, 30808, 662},
                   6203604256378240945ULL});
  cases.push_back({"prefix", std::move(prefix), 2, {542, 11110, 866},
                   11030551881824122484ULL});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BuildCounters got;
    auto forest = build_forest_sequential(c.ests, c.w, &got);
    for (const auto& t : forest) t.validate(c.ests);
    EXPECT_EQ(got.suffixes, c.want.suffixes);
    EXPECT_EQ(got.chars_scanned, c.want.chars_scanned);
    EXPECT_EQ(got.nodes, c.want.nodes);
    EXPECT_EQ(forest_digest(forest), c.digest);
  }
}

TEST(ParallelGst, LoadRoughlyBalancedAcrossRanks) {
  Prng rng(44);
  EstSet ests = random_ests(rng, 60, 80, 120);
  GstConfig cfg;
  cfg.window = 3;
  const int p = 4;
  std::mutex mu;
  std::vector<std::uint64_t> per_rank(p, 0);
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    ParallelBuildStats st;
    build_forest_parallel(comm, ests, cfg, &st);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[comm.rank()] = st.local_suffixes;
  });
  auto [mn, mx] = std::minmax_element(per_rank.begin(), per_rank.end());
  EXPECT_GT(*mn, 0u);
  // Greedy assignment: max load within 2x of min for many small buckets.
  EXPECT_LT(static_cast<double>(*mx), 2.0 * static_cast<double>(*mn));
}

}  // namespace
}  // namespace estclust::gst
