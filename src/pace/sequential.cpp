#include "pace/sequential.hpp"

#include <algorithm>

#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "pace/aligner.hpp"
#include "pace/share.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace estclust::pace {

void PaceConfig::validate() const {
  ESTCLUST_CHECK_MSG(psi >= gst.window,
                     "psi must be >= the GST window w");
  ESTCLUST_CHECK(batchsize > 0);
  ESTCLUST_CHECK(workbuf_capacity >= batchsize);
  ESTCLUST_CHECK(pairbuf_capacity >= batchsize);
  ESTCLUST_CHECK(batch_growth_limit >= 1);
  if (memo) ESTCLUST_CHECK(memo_capacity >= 1);
}

SequentialResult cluster_sequential(const bio::EstSet& ests,
                                    const PaceConfig& cfg,
                                    SequentialOptions options) {
  cfg.validate();
  SequentialResult res(ests.num_ests());
  PaceStats& st = res.stats;
  WallTimer total;

  // Only the GST walk needs the forest; the seed backends own every
  // non-empty bucket and build their own index.
  WallTimer phase;
  RankShare share;
  if (cfg.pair_source == pairgen::Backend::kGst) {
    share.forest = gst::build_forest_sequential(ests, cfg.gst.window);
    st.t_gst = phase.seconds();
  } else {
    share.buckets = gst::owned_bucket_ids(ests, cfg.gst, 1, 0, 0);
    st.t_partition = phase.seconds();
  }

  phase.reset();
  auto gen = make_source(ests, cfg, share);
  st.t_sort = phase.seconds();

  phase.reset();
  // The same hot-path aligner the slaves use (arena + memo + bounded
  // kernel), so the sequential partition is computed by the identical
  // verdict function as the parallel one.
  PairAligner aligner(ests, cfg);
  auto handle_pair = [&](const pairgen::PromisingPair& p) {
    if (options.cluster_skip && res.skip(p)) return;
    res.align(p, aligner);
  };

  if (!options.arbitrary_order) {
    // On-demand path: pairs arrive in decreasing maximal-common-substring
    // length, so early merges suppress later redundant alignments.
    std::vector<pairgen::PromisingPair> batch;
    while (gen->next_batch(cfg.batchsize, batch) > 0) {
      for (const auto& p : batch) handle_pair(p);
      batch.clear();
    }
  } else {
    // Ablation: materialize every promising pair first (the memory-hungry
    // strategy of prior tools), then process in an order uncorrelated with
    // match length.
    std::vector<pairgen::PromisingPair> all;
    while (gen->next_batch(1 << 20, all) > 0) {
    }
    std::sort(all.begin(), all.end(),
              [](const pairgen::PromisingPair& x,
                 const pairgen::PromisingPair& y) {
                if (x.a != y.a) return x.a < y.a;
                if (x.b != y.b) return x.b < y.b;
                if (x.a_pos != y.a_pos) return x.a_pos < y.a_pos;
                return x.b_pos < y.b_pos;
              });
    for (const auto& p : all) handle_pair(p);
  }
  st.t_align = phase.seconds();

  st.pairs_generated = gen->stats().pairs_emitted;
  st.num_clusters = res.clusters.num_clusters();
  st.t_total = total.seconds();
  return res;
}

}  // namespace estclust::pace
