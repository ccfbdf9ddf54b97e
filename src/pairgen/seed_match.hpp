// Shared seed-and-extend machinery for the non-GST pair sources.
//
// The k-mer and sorted-seed (fm) backends both reduce promising-pair
// discovery to the same primitive: group every owned occurrence of a
// length-k seed, then keep each occurrence pair only if it cannot extend
// one character left and extend it maximally right. A pair is thus
// recorded only by the group whose seed sits at the *start* of the
// maximal match (leftmost-seed rule), so each maximal
// common substring yields exactly one record per occurrence pair — the
// same per-anchor granularity as the GST walk. Because k >= psi >= w, a
// seed at the match start shares the anchor's w-prefix, so restricting
// seeds to this rank's §3.1 buckets is closed under grouping: a group
// never mixes owned and foreign anchors.
//
// SeedPairSource owns record materialization, the decreasing-match-length
// final order, batch serving and GenStats accounting; the backends only
// differ in how they enumerate seed groups.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "pairgen/source.hpp"

namespace estclust::pairgen {

class SeedPairSource : public PairSource {
 public:
  std::size_t next_batch(std::size_t max_pairs,
                         std::vector<PromisingPair>& out) override;
  bool exhausted() const override { return served_ == records_.size(); }
  const GenStats& stats() const override { return stats_; }
  std::uint64_t take_work_units() override;
  std::uint64_t construction_sort_units() const override {
    return construction_units_;
  }

 protected:
  /// `owned_buckets` must be sorted ascending; psi >= window for the same
  /// soundness reason as the GST walk (anchors shorter than w have no
  /// bucket).
  SeedPairSource(const bio::EstSet& ests,
                 std::vector<std::uint64_t> owned_buckets,
                 std::uint32_t window, std::uint32_t psi);

  /// Seed length: psi capped at 32 so a seed packs into one 2-bit-coded
  /// u64 word. Anchors are >= psi >= k, so a shorter seed only widens
  /// groups, never loses an anchor.
  std::uint32_t seed_len() const { return k_; }

  bool owns_bucket(std::uint64_t bucket) const { return owned_[bucket]; }

  /// One seed group: every owned occurrence of one length-k seed, sorted
  /// by (sid, pos). Drops each i < j occurrence pair that extends one
  /// character left (leftmost-seed rule), extends the rest maximally
  /// right, applies the §3.2 self/orientation discards, and records
  /// survivors of length >= psi.
  void process_group(std::span<const gst::SuffixOcc> occs);

  /// Sorts records into the final serving order (decreasing match_len,
  /// then (a, b, b_rc, a_pos, b_pos) — a total order, since records are
  /// unique on their anchor). Call once, after the last process_group.
  void finalize_records();

  const bio::EstSet& ests_;
  /// Dense 4^w membership bitmap of the owned §3.1 buckets (8 KiB at
  /// w = 8): one bit test per indexed position. Not counted in
  /// index_bytes(), which measures the seed index itself.
  std::vector<bool> owned_;
  std::uint32_t window_;
  std::uint32_t psi_;
  std::uint32_t k_;

  std::vector<PromisingPair> records_;
  std::size_t served_ = 0;
  GenStats stats_;
  std::uint64_t construction_units_ = 0;
  std::uint64_t work_since_take_ = 0;
};

namespace detail {

/// Packs s[pos, pos+k) into a 2-bit-coded word (A=0..T=3, MSB-first so
/// numeric order matches lexicographic order). Returns false if any of
/// the k characters is not ACGT.
bool pack_seed(std::string_view s, std::uint32_t pos, std::uint32_t k,
               std::uint64_t& key);

/// Deterministic O(n log n) comparison-sort cost model shared by every
/// backend's construction accounting.
std::uint64_t sort_model_units(std::uint64_t n);

}  // namespace detail

}  // namespace estclust::pairgen
