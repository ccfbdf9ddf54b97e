#include "pace/share.hpp"

#include "gst/parallel.hpp"

namespace estclust::pace {

RankShare recompute_share(mpr::Communicator& comm, const bio::EstSet& ests,
                          const PaceConfig& cfg, int first_owner_rank,
                          int target_rank) {
  RankShare share;
  if (cfg.pair_source == pairgen::Backend::kGst) {
    gst::BuildCounters bc;
    share.forest = gst::rebuild_rank_forest(ests, cfg.gst, comm.size(),
                                            first_owner_rank, target_rank,
                                            &bc);
    comm.charge(comm.cost_model().char_op, bc.chars_scanned);
  } else {
    std::uint64_t scanned = 0;
    share.buckets = gst::owned_bucket_ids(ests, cfg.gst, comm.size(),
                                          first_owner_rank, target_rank,
                                          &scanned);
    comm.charge(comm.cost_model().char_op, scanned);
  }
  return share;
}

std::unique_ptr<pairgen::PairSource> make_source(const bio::EstSet& ests,
                                                 const PaceConfig& cfg,
                                                 RankShare& share) {
  if (cfg.pair_source == pairgen::Backend::kGst) {
    return pairgen::make_pair_source(cfg.pair_source, ests, share.forest,
                                     cfg.gst.window, cfg.psi);
  }
  return pairgen::make_pair_source_for_buckets(cfg.pair_source, ests,
                                               std::move(share.buckets),
                                               cfg.gst.window, cfg.psi);
}

}  // namespace estclust::pace
