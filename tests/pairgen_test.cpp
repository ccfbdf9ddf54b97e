// Pair-stream contract tests, instantiated once per PairSource backend by
// tests/CMakeLists.txt (add_pairsource_test): the same binary compiles
// with ESTCLUST_PAIRSOURCE_BACKEND set to "gst", "kmer" or "fm" and every
// interface-level property below must hold for all of them. A handful of
// GST-internal guarantees (lset space bounds, Corollary 2) skip on the
// other backends.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "mpr/runtime.hpp"
#include "pairgen/generator.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#ifndef ESTCLUST_PAIRSOURCE_BACKEND
#define ESTCLUST_PAIRSOURCE_BACKEND "gst"
#endif

namespace estclust::pairgen {
namespace {

using bio::EstSet;
using bio::Sequence;

Backend test_backend() {
  auto b = parse_backend(ESTCLUST_PAIRSOURCE_BACKEND);
  EXPECT_TRUE(b.has_value());
  return b.value_or(Backend::kGst);
}

bool gst_backend() { return test_backend() == Backend::kGst; }

/// The backend under test over `forest`'s bucket share (w = the window
/// the forest was built with).
std::unique_ptr<PairSource> make_source(const EstSet& ests,
                                        const std::vector<gst::Tree>& forest,
                                        std::uint32_t w, std::uint32_t psi) {
  return make_pair_source(test_backend(), ests, forest, w, psi);
}

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

/// Longest common substring length (reference DP).
std::size_t lcs_len(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      cur[j] = (a[i - 1] == b[j - 1]) ? prev[j - 1] + 1 : 0;
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

/// All *distinct* maximal common substrings of length >= minlen.
std::set<std::string> maximal_common_substrings(std::string_view a,
                                                std::string_view b,
                                                std::size_t minlen) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (a[i] != b[j]) continue;
      // Left-maximal start?
      if (i > 0 && j > 0 && a[i - 1] == b[j - 1]) continue;
      std::size_t len = 0;
      while (i + len < a.size() && j + len < b.size() &&
             a[i + len] == b[j + len]) {
        ++len;
      }
      if (len >= minlen) out.insert(std::string(a.substr(i, len)));
    }
  }
  return out;
}

/// Generates ESTs with deliberate overlap structure: windows of a shared
/// "gene" string, some reverse complemented, plus unrelated noise ESTs.
EstSet overlap_ests(Prng& rng, std::size_t n_related, std::size_t n_noise,
                    std::size_t gene_len = 220, std::size_t est_len = 80) {
  std::string gene = random_dna(rng, gene_len);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n_related; ++i) {
    std::size_t start = rng.uniform(gene_len - est_len);
    std::string est = gene.substr(start, est_len);
    if (rng.bernoulli(0.4)) est = bio::reverse_complement(est);
    seqs.push_back({"r" + std::to_string(i), est});
  }
  for (std::size_t i = 0; i < n_noise; ++i) {
    seqs.push_back({"n" + std::to_string(i), random_dna(rng, est_len)});
  }
  return EstSet(std::move(seqs));
}

/// Reads that make duplicate elimination drop same-string entries:
/// windows of one gene, every third with a 30-80-base poly-A tail, every
/// fourth carrying a (ACGTTG)x10 tandem repeat, and one read that
/// contains its own reverse complement.
EstSet repeat_rich_ests(Prng& rng) {
  const std::string gene = random_dna(rng, 400);
  std::string tandem;
  for (int i = 0; i < 10; ++i) tandem += "ACGTTG";
  std::vector<Sequence> seqs;
  for (int i = 0; i < 24; ++i) {
    std::string est = gene.substr(rng.uniform(300), 100);
    if (i % 3 == 0) est += std::string(30 + rng.uniform(51), 'A');
    if (i % 4 == 1) est.insert(rng.uniform(est.size()), tandem);
    if (rng.bernoulli(0.3)) est = bio::reverse_complement(est);
    seqs.push_back({"r" + std::to_string(i), est});
  }
  const std::string arm = random_dna(rng, 60);
  seqs.push_back({"pal", arm + random_dna(rng, 10) +
                             bio::reverse_complement(arm)});
  return EstSet(std::move(seqs));
}

std::vector<PromisingPair> drain(PairSource& gen,
                                 std::size_t batch = 1000000) {
  std::vector<PromisingPair> out;
  while (gen.next_batch(batch, out) > 0) {
  }
  return out;
}

/// FNV-1a digest of a record stream, in stream order.
std::uint64_t stream_digest(const std::vector<PromisingPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& p : pairs) {
    mix(p.a);
    mix(p.b);
    mix(p.b_rc ? 1 : 0);
    mix(p.match_len);
    mix(p.a_pos);
    mix(p.b_pos);
  }
  return h;
}

TEST(PairSource, RequiresPsiAtLeastWindow) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGTACGTACGT"}});
  auto forest = gst::build_forest_sequential(ests, 4);
  EXPECT_THROW(make_source(ests, forest, 4, 3), CheckError);
}

TEST(PairSource, EmitsSharedSubstringPair) {
  // Two ESTs overlap in a 20-base core.
  Prng rng(1);
  std::string core = random_dna(rng, 20);
  EstSet ests({{"a", random_dna(rng, 30) + core},
               {"b", core + random_dna(rng, 30)}});
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  bool found = false;
  for (const auto& p : pairs) {
    if (p.a == 0 && p.b == 1 && !p.b_rc) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PairSource, NoPairsWithoutSharedSubstrings) {
  // Disjoint alphab1et usage guarantees no common 8-mer.
  EstSet ests({{"a", std::string(40, 'A') + std::string(40, 'C')},
               {"b", std::string(40, 'G') + std::string(40, 'T')}});
  // NB: revcomp of b is AAAA..CCCC-like; "b" rc = AAAA(40)CCCC? No:
  // revcomp("G^40 T^40") = "A^40 C^40", which matches EST a exactly!
  // That is intentional: the pair must be found in rc orientation.
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_EQ(p.a, 0u);
    EXPECT_EQ(p.b, 1u);
    EXPECT_TRUE(p.b_rc);
  }
}

TEST(PairSource, TrulyDisjointYieldsNothing) {
  EstSet ests({{"a", std::string(60, 'A')},
               {"b", std::string(60, 'C')}});
  // rc(b) = G^60; no common 4-mer with A^60 in any orientation.
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 8);
  auto pairs = drain(*gen);
  EXPECT_TRUE(pairs.empty());
}

TEST(PairSource, ReverseComplementOverlapDetected) {
  Prng rng(2);
  std::string core = random_dna(rng, 24);
  EstSet ests({{"a", random_dna(rng, 20) + core + random_dna(rng, 20)},
               {"b", random_dna(rng, 15) + bio::reverse_complement(core) +
                         random_dna(rng, 15)}});
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 12);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_TRUE(p.b_rc);
  }
}

TEST(PairSource, AnchorsAreValidMaximalMatches) {
  Prng rng(3);
  EstSet ests = overlap_ests(rng, 8, 3);
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 12);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    auto a = ests.str(bio::EstSet::forward_sid(p.a));
    auto b = ests.str(p.b_rc ? bio::EstSet::rc_sid(p.b)
                             : bio::EstSet::forward_sid(p.b));
    ASSERT_LE(p.a_pos + p.match_len, a.size());
    ASSERT_LE(p.b_pos + p.match_len, b.size());
    // Lemma 1: the anchor is a common substring...
    EXPECT_EQ(a.substr(p.a_pos, p.match_len), b.substr(p.b_pos, p.match_len));
    // ...that is left-maximal...
    if (p.a_pos > 0 && p.b_pos > 0) {
      EXPECT_NE(a[p.a_pos - 1], b[p.b_pos - 1]);
    }
    // ...and right-maximal.
    if (p.a_pos + p.match_len < a.size() &&
        p.b_pos + p.match_len < b.size()) {
      EXPECT_NE(a[p.a_pos + p.match_len], b[p.b_pos + p.match_len]);
    }
  }
}

TEST(PairSource, MatchesBruteForcePromisingPairs) {
  // Lemma 3 both directions at EST granularity: the set of generated
  // (a, b) pairs equals the set of pairs with LCS >= psi in some
  // orientation — for every backend.
  for (std::uint64_t seed : {10, 11, 12, 13}) {
    Prng rng(seed);
    EstSet ests = overlap_ests(rng, 7, 4);
    const std::uint32_t psi = 14;
    auto forest = gst::build_forest_sequential(ests, 4);
    auto gen = make_source(ests, forest, 4, psi);
    auto pairs = drain(*gen);

    std::set<std::pair<bio::EstId, bio::EstId>> generated;
    for (const auto& p : pairs) generated.insert({p.a, p.b});

    std::set<std::pair<bio::EstId, bio::EstId>> expected;
    for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
      for (bio::EstId j = i + 1; j < ests.num_ests(); ++j) {
        auto ei = ests.str(bio::EstSet::forward_sid(i));
        auto ej = ests.str(bio::EstSet::forward_sid(j));
        auto ej_rc = ests.str(bio::EstSet::rc_sid(j));
        if (lcs_len(ei, ej) >= psi || lcs_len(ei, ej_rc) >= psi) {
          expected.insert({i, j});
        }
      }
    }
    EXPECT_EQ(generated, expected) << "seed " << seed;
  }
}

TEST(PairSource, PairsStreamInDecreasingMatchLength) {
  Prng rng(20);
  EstSet ests = overlap_ests(rng, 10, 2);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i].match_len, pairs[i - 1].match_len);
  }
}

TEST(PairSource, FirstPairHasGloballyLongestMatch) {
  Prng rng(21);
  EstSet ests = overlap_ests(rng, 8, 2);
  const std::uint32_t psi = 10;
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, psi);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());

  std::size_t best = 0;
  for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
    for (bio::EstId j = i + 1; j < ests.num_ests(); ++j) {
      auto ei = ests.str(bio::EstSet::forward_sid(i));
      best = std::max(best,
                      lcs_len(ei, ests.str(bio::EstSet::forward_sid(j))));
      best = std::max(best, lcs_len(ei, ests.str(bio::EstSet::rc_sid(j))));
    }
  }
  EXPECT_EQ(pairs.front().match_len, best);
}

TEST(PairGenerator, EmissionCountBoundedByDistinctMaximalSubstrings) {
  // Corollary 2 is a guarantee of the GST walk's per-node duplicate
  // elimination; the seed backends emit one record per occurrence pair,
  // which a repeated substring can push past the distinct-string bound.
  if (!gst_backend()) GTEST_SKIP() << "GST-specific bound";
  Prng rng(22);
  EstSet ests = overlap_ests(rng, 6, 2, 150, 60);
  const std::uint32_t psi = 12;
  auto forest = gst::build_forest_sequential(ests, 4);
  PairGenerator gen(ests, forest, psi);
  auto pairs = drain(gen);

  std::map<std::tuple<bio::EstId, bio::EstId, bool>, std::size_t> counts;
  for (const auto& p : pairs) ++counts[{p.a, p.b, p.b_rc}];
  for (const auto& [key, count] : counts) {
    auto [a, b, rc] = key;
    auto sa = ests.str(bio::EstSet::forward_sid(a));
    auto sb = ests.str(rc ? bio::EstSet::rc_sid(b)
                          : bio::EstSet::forward_sid(b));
    auto maximal = maximal_common_substrings(sa, sb, psi);
    EXPECT_LE(count, maximal.size())
        << "pair (" << a << "," << b << ",rc=" << rc << ")";
  }
}

/// A rank's source built from its offline-recomputed share — the bucket
/// ids for kmer/fm, the rebuilt forest for gst — streams exactly what the
/// source over the collectively built forest streams, for every owning
/// rank, p and master exclusion (first_owner_rank = 1 needs p >= 2).
TEST(PairSource, OfflineShareStreamsLikeTheBuiltForest) {
  Prng rng(29);
  EstSet ests = overlap_ests(rng, 12, 3);
  gst::GstConfig cfg;
  cfg.window = 3;
  const std::uint32_t psi = 10;
  for (int p : {1, 2, 3, 4, 8}) {
    for (int first_owner : {0, 1}) {
      if (first_owner >= p) continue;
      std::mutex mu;
      std::vector<std::vector<gst::Tree>> forests(p);
      mpr::Runtime rt(p, mpr::CostModel{});
      rt.run([&](mpr::Communicator& comm) {
        auto local =
            gst::build_forest_parallel(comm, ests, cfg, nullptr, first_owner);
        std::lock_guard<std::mutex> lock(mu);
        forests[comm.rank()] = std::move(local);
      });
      for (int r = first_owner; r < p; ++r) {
        auto built = make_source(ests, forests[r], cfg.window, psi);
        const auto rebuilt = gst::rebuild_rank_forest(ests, cfg, p,
                                                      first_owner, r);
        auto offline =
            gst_backend()
                ? make_source(ests, rebuilt, cfg.window, psi)
                : make_pair_source_for_buckets(
                      test_backend(), ests,
                      gst::owned_bucket_ids(ests, cfg, p, first_owner, r),
                      cfg.window, psi);
        const auto want = drain(*built);
        const auto got = drain(*offline);
        ASSERT_EQ(got.size(), want.size())
            << "p=" << p << " first_owner=" << first_owner << " rank=" << r;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(std::tie(got[i].a, got[i].b, got[i].b_rc,
                             got[i].match_len, got[i].a_pos, got[i].b_pos),
                    std::tie(want[i].a, want[i].b, want[i].b_rc,
                             want[i].match_len, want[i].a_pos, want[i].b_pos));
        }
        EXPECT_EQ(offline->construction_sort_units(),
                  built->construction_sort_units());
        EXPECT_EQ(offline->index_bytes(), built->index_bytes());
      }
    }
  }
}

TEST(PairSource, BatchingIsEquivalentToDraining) {
  Prng rng(23);
  EstSet ests = overlap_ests(rng, 9, 2);
  auto forest = gst::build_forest_sequential(ests, 3);

  auto big = make_source(ests, forest, 3, 10);
  auto all = drain(*big);

  auto small = make_source(ests, forest, 3, 10);
  std::vector<PromisingPair> collected;
  while (small->next_batch(7, collected) > 0) {
  }
  ASSERT_EQ(collected.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(collected[i].a, all[i].a);
    EXPECT_EQ(collected[i].b, all[i].b);
    EXPECT_EQ(collected[i].b_rc, all[i].b_rc);
    EXPECT_EQ(collected[i].match_len, all[i].match_len);
  }
}

/// Seed-parameterized stream properties. The master's flow control (and
/// the adaptive batching on top of it) may slice the stream arbitrarily,
/// so these invariants must hold for every batch size, not just the
/// defaults the other tests use — and for every backend, since the
/// drivers are backend-agnostic.
class PairStreamProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PairStreamProperty, StreamIsSortedDuplicateFreeAndBatchInvariant) {
  Prng rng(GetParam());
  EstSet ests = overlap_ests(rng, 6 + rng.uniform(8), rng.uniform(4),
                             180 + rng.uniform(120), 70 + rng.uniform(40));
  const std::uint32_t psi = 10 + static_cast<std::uint32_t>(rng.uniform(8));
  auto forest = gst::build_forest_sequential(ests, 3);

  auto ref_gen = make_source(ests, forest, 3, psi);
  auto reference = drain(*ref_gen);

  // Non-increasing match length: the on-demand stream honours the
  // decreasing-overlap-strength order of §3.2.
  for (std::size_t i = 1; i < reference.size(); ++i) {
    EXPECT_LE(reference[i].match_len, reference[i - 1].match_len)
        << "seed " << GetParam() << " index " << i;
  }

  // Duplicate-free: one emission per (pair, orientation, anchor) record.
  std::set<std::tuple<bio::EstId, bio::EstId, bool, std::uint32_t,
                      std::uint32_t, std::uint32_t>>
      seen;
  for (const auto& p : reference) {
    EXPECT_TRUE(
        seen.insert({p.a, p.b, p.b_rc, p.a_pos, p.b_pos, p.match_len})
            .second)
        << "seed " << GetParam() << ": duplicate record (" << p.a << ","
        << p.b << ")";
  }

  // Batch-size invariance: any slicing yields the identical record
  // sequence.
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{256}}) {
    auto gen = make_source(ests, forest, 3, psi);
    std::vector<PromisingPair> got;
    while (gen->next_batch(batch, got) > 0) {
    }
    ASSERT_EQ(got.size(), reference.size())
        << "seed " << GetParam() << " batch " << batch;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].a == reference[i].a && got[i].b == reference[i].b &&
                  got[i].b_rc == reference[i].b_rc &&
                  got[i].match_len == reference[i].match_len &&
                  got[i].a_pos == reference[i].a_pos &&
                  got[i].b_pos == reference[i].b_pos)
          << "seed " << GetParam() << " batch " << batch << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairStreamProperty,
                         testing::Range<std::uint64_t>(40, 52));

TEST(PairSource, NextBatchRespectsLimit) {
  Prng rng(24);
  EstSet ests = overlap_ests(rng, 10, 0);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  std::vector<PromisingPair> out;
  std::size_t got = gen->next_batch(3, out);
  EXPECT_LE(got, 3u);
  EXPECT_EQ(out.size(), got);
}

TEST(PairSource, ExhaustedAfterDrain) {
  Prng rng(25);
  EstSet ests = overlap_ests(rng, 5, 1);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  EXPECT_FALSE(gen->exhausted());
  drain(*gen);
  EXPECT_TRUE(gen->exhausted());
  std::vector<PromisingPair> out;
  EXPECT_EQ(gen->next_batch(10, out), 0u);
}

TEST(PairSource, NoSelfPairsEverEmitted) {
  // An EST with an inverted repeat: its forward and rc strings share the
  // repeat, producing raw (e_i, ē_i) pairs that must be discarded as self
  // pairs. (A direct repeat would not do: duplicate elimination keeps one
  // occurrence per string, so a string never pairs with itself.)
  Prng rng(26);
  std::string repeat = random_dna(rng, 30);
  EstSet ests({{"a", repeat + random_dna(rng, 10) +
                         bio::reverse_complement(repeat)},
               {"b", random_dna(rng, 70)}});
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 10);
  auto pairs = drain(*gen);
  for (const auto& p : pairs) EXPECT_NE(p.a, p.b);
  EXPECT_GT(gen->stats().discarded_self, 0u);
}

TEST(PairSource, OrientationRuleKeepsForwardFirstString) {
  Prng rng(27);
  EstSet ests = overlap_ests(rng, 10, 0);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) EXPECT_LT(p.a, p.b);
  // Roughly half of all raw pairs get discarded by the orientation rule.
  EXPECT_GT(gen->stats().discarded_orientation, 0u);
}

TEST(PairSource, StatsAddUp) {
  Prng rng(28);
  EstSet ests = overlap_ests(rng, 8, 2);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  auto pairs = drain(*gen);
  EXPECT_EQ(gen->stats().pairs_emitted, pairs.size());
  EXPECT_GT(gen->stats().nodes_processed, 0u);
  EXPECT_GT(gen->stats().lset_work, 0u);
}

TEST(PairSource, WorkUnitsAreConsumedByTake) {
  Prng rng(29);
  EstSet ests = overlap_ests(rng, 6, 1);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  drain(*gen);
  EXPECT_GT(gen->take_work_units(), 0u);
  EXPECT_EQ(gen->take_work_units(), 0u);  // second take: nothing new
}

TEST(PairSource, ConstructionUnitsAndIndexBytesAreStable) {
  // The driver charges construction_sort_units to the virtual clock right
  // after building the source, so the value must be deterministic and
  // must not drain away with the stream.
  Prng rng(31);
  EstSet ests = overlap_ests(rng, 8, 2);
  auto forest = gst::build_forest_sequential(ests, 3);
  auto gen = make_source(ests, forest, 3, 10);
  const std::uint64_t units = gen->construction_sort_units();
  EXPECT_GT(units, 0u);
  auto again = make_source(ests, forest, 3, 10);
  EXPECT_EQ(again->construction_sort_units(), units);
  drain(*gen);
  EXPECT_EQ(gen->construction_sort_units(), units);
  EXPECT_GT(gen->index_bytes(), 0u);
}

TEST(PairGenerator, LiveLsetCellsBoundedByOccurrences) {
  // live_lset_cells counts held capacity, recycled runs' included, so the
  // bound also catches runs that keep growing capacity on repeats.
  if (!gst_backend()) GTEST_SKIP() << "lset pool is GST-internal";
  Prng rng(30);
  const EstSet overlap = overlap_ests(rng, 12, 3);
  const EstSet repeats = repeat_rich_ests(rng);
  for (const EstSet* ests : {&overlap, &repeats}) {
    SCOPED_TRACE(ests == &overlap ? "overlap" : "repeats");
    auto forest = gst::build_forest_sequential(*ests, 3);
    std::size_t total_occs = 0;
    for (const auto& t : forest) total_occs += t.occs.size();

    PairGenerator gen(*ests, forest, 10);
    std::vector<PromisingPair> out;
    std::uint32_t peak = 0;
    while (gen.next_batch(50, out) > 0) {
      peak = std::max(peak, gen.live_lset_cells());
      out.clear();
    }
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, total_occs);
    EXPECT_EQ(gen.live_lset_cells(), 0u);  // everything retired at the end
  }
}

TEST(PairGenerator, LsetSlotsTrackTheFrontier) {
  // A processed node's lsets live only until its parent splices them, and
  // an orphan's (bucket root, or child of a node shallower than psi) die
  // with it, so the live slots are the frontier of the depth-order walk,
  // well below one per processed node.
  if (!gst_backend()) GTEST_SKIP() << "lset pool is GST-internal";
  Prng rng(30);
  EstSet ests = overlap_ests(rng, 40, 8);
  auto forest = gst::build_forest_sequential(ests, 4);
  PairGenerator gen(ests, forest, 12);
  drain(gen);
  const std::uint64_t processed = gen.stats().nodes_processed;
  ASSERT_GT(processed, 0u);
  EXPECT_LE(2 * gen.peak_lset_slots(), processed)
      << "peak slots " << gen.peak_lset_slots() << " of " << processed
      << " processed nodes";
  EXPECT_EQ(gen.live_lset_cells(), 0u);
}

TEST(PairGenerator, StreamDigestPinned) {
  // FNV digest of the full record stream, computed with the comparison
  // sort over node records and the per-tree dense lset arrays that
  // preceded the counting-sort order and the frontier slot pool. The
  // stream order (not just its set) is the contract, so any change to the
  // node order, lset splicing or emission order moves these values.
  if (!gst_backend()) GTEST_SKIP() << "pins the GST walk's own order";
  Prng rng(41);
  EstSet plain = overlap_ests(rng, 40, 6, 400, 100);
  std::vector<Sequence> lowered;
  for (std::size_t i = 0; i < plain.num_ests(); ++i) {
    std::string s = plain.est(static_cast<bio::EstId>(i)).bases;
    for (char& c : s) {
      if (rng.bernoulli(0.3)) c = static_cast<char>(c - 'A' + 'a');
    }
    lowered.push_back({"l" + std::to_string(i), s});
  }
  EstSet mixed(std::move(lowered));
  struct Case {
    const EstSet* ests;
    std::uint32_t psi;
    std::size_t pairs;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {&plain, 10, 352, 4830505528479060806ULL},
      {&plain, 20, 314, 12432781226816820193ULL},
      // Case never splits a branch: the lower-cased copy streams the same.
      {&mixed, 10, 352, 4830505528479060806ULL},
      {&mixed, 20, 314, 12432781226816820193ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << (c.ests == &plain ? "plain" : "mixed")
                                    << " psi=" << c.psi);
    auto forest = gst::build_forest_sequential(*c.ests, 4);
    PairGenerator gen(*c.ests, forest, c.psi);
    const auto pairs = drain(gen, 7);
    EXPECT_EQ(pairs.size(), c.pairs);
    EXPECT_EQ(stream_digest(pairs), c.digest);
  }
}

TEST(PairGenerator, RepeatStreamDigestPinned) {
  // Poly-A tails, tandem repeats and a read holding its own reverse
  // complement put one string at several occurrences below a node, so
  // duplicate elimination drops same-string entries at almost every
  // internal node. Digest and counters were computed with the linked-list
  // lsets (splice, then remove_if) that preceded the occurrence-index
  // runs; any change to which occurrence survives, to the union order or
  // to the work charge moves them.
  if (!gst_backend()) GTEST_SKIP() << "pins the GST walk's own order";
  Prng rng(57);
  const EstSet ests = repeat_rich_ests(rng);
  auto forest = gst::build_forest_sequential(ests, 4);
  struct Case {
    std::uint32_t psi;
    GenStats want;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {10, {293, 272, 2, 9774, 25926}, 7957378598446085602ULL},
      {20, {253, 233, 2, 8726, 20919}, 5236792603385342893ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "psi=" << c.psi);
    PairGenerator gen(ests, forest, c.psi);
    const auto pairs = drain(gen, 5);
    const GenStats& got = gen.stats();
    EXPECT_EQ(got.pairs_emitted, c.want.pairs_emitted);
    EXPECT_EQ(got.discarded_orientation, c.want.discarded_orientation);
    EXPECT_EQ(got.discarded_self, c.want.discarded_self);
    EXPECT_EQ(got.nodes_processed, c.want.nodes_processed);
    EXPECT_EQ(got.lset_work, c.want.lset_work);
    EXPECT_EQ(pairs.size(), got.pairs_emitted);
    EXPECT_EQ(stream_digest(pairs), c.digest);
  }
}

TEST(PairSource, EmptyForest) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  std::vector<gst::Tree> forest;  // nothing
  auto gen = make_source(ests, forest, 4, 8);
  EXPECT_TRUE(gen->exhausted());
}

TEST(PairSource, IdenticalEstsPairViaLambdaLeaf) {
  // Two identical ESTs: the whole-string suffix of each is the same string,
  // coalescing into one leaf whose l_λ has both -> λ×λ product emits them
  // (the seed backends find the same anchor by whole-string extension).
  EstSet ests({{"a", "ACGTACGTACGTACGT"}, {"b", "ACGTACGTACGTACGT"}});
  auto forest = gst::build_forest_sequential(ests, 4);
  auto gen = make_source(ests, forest, 4, 16);
  auto pairs = drain(*gen);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.a == 0 && p.b == 1 && !p.b_rc && p.match_len == 16) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace estclust::pairgen
