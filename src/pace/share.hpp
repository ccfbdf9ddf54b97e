// One rank's §3.1 share of the workload and the pair source built over it.
//
// The GST backend's share is a forest of subtrees, built collectively by
// gst::build_forest_parallel or rebuilt offline for a dead rank by
// gst::rebuild_rank_forest. The seed backends (kmer, fm) need only the
// set of w-prefix buckets the rank owns, which gst::owned_bucket_ids
// recomputes offline with no communication — so no forest is ever built
// for them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "mpr/communicator.hpp"
#include "pace/config.hpp"
#include "pairgen/source.hpp"

namespace estclust::pace {

struct RankShare {
  std::vector<gst::Tree> forest;       ///< gst: the owned subtrees
  std::vector<std::uint64_t> buckets;  ///< kmer/fm: owned ids, ascending
};

/// Recomputes `target_rank`'s share offline under the §3.1 assignment
/// over ranks [first_owner_rank, comm.size()), with no communication, and
/// charges the scan to char_op on `comm`'s clock.
RankShare recompute_share(mpr::Communicator& comm, const bio::EstSet& ests,
                          const PaceConfig& cfg, int first_owner_rank,
                          int target_rank);

/// Builds the pair source over `share`. The GST source borrows
/// `share.forest`, which must outlive it; the seed sources take
/// `share.buckets`. The caller charges construction_sort_units.
std::unique_ptr<pairgen::PairSource> make_source(const bio::EstSet& ests,
                                                 const PaceConfig& cfg,
                                                 RankShare& share);

}  // namespace estclust::pace
