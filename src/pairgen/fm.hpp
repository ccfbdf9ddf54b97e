// Owned-suffix sorted-seed pair source (CLI name `fm`).
//
// The §3.1 partition applied to a suffix-sorted index: each rank collects
// only the seed starts (sid, pos) whose w-prefix bucket it owns — 8 B per
// start, no whole-text suffix array — and sorts them by the k-base seed
// they begin, read on the fly from a 2-bit-packed copy of S. Equal seeds
// sit next to each other after the sort, so each run of equal keys is one
// seed group, already in (sid, pos) order, handed to SeedPairSource's
// shared extension. The groups and therefore the record stream are those
// of KmerPairSource; the two differ in the index held during construction
// (an 8 B start here, a 16 B key + start entry there). The name `fm` is
// historical (an earlier whole-text FM-index backend) and stays because
// the CLI, the goldens and the benchmark legs use it.
//
// Like the k-mer index, a seed is k = min(psi, 32) bases and must be all
// ACGT. The packed text lives only for the duration of the constructor;
// index_bytes() reports the peak of the starts and the packed text plus
// the records.
#pragma once

#include <cstdint>
#include <vector>

#include "pairgen/seed_match.hpp"

namespace estclust::pairgen {

class FmPairSource final : public SeedPairSource {
 public:
  /// `owned_buckets` (sorted) selects this rank's §3.1 share; `window` is
  /// the bucketing prefix length w; psi >= w.
  FmPairSource(const bio::EstSet& ests,
               std::vector<std::uint64_t> owned_buckets,
               std::uint32_t window, std::uint32_t psi);

  std::uint64_t index_bytes() const override;

 private:
  std::uint64_t starts_indexed_ = 0;  ///< owned seed starts sorted
  std::uint64_t text_bytes_ = 0;      ///< packed S plus its string offsets
};

}  // namespace estclust::pairgen
