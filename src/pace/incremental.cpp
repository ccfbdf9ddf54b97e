#include "pace/incremental.hpp"

#include <algorithm>

#include "gst/builder.hpp"
#include "pace/aligner.hpp"
#include "pairgen/generator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace estclust::pace {

IncrementalClusterer::IncrementalClusterer(const PaceConfig& cfg)
    : cfg_(cfg), clusters_(0) {
  cfg_.validate();
}

BatchStats IncrementalClusterer::add_batch(std::vector<bio::Sequence> batch) {
  WallTimer timer;
  BatchStats st;
  st.new_ests = batch.size();
  if (batch.empty()) return st;

  const std::size_t old_n = ests_.num_ests();
  for (auto& seq : batch) all_sequences_.push_back(std::move(seq));
  // Rebuilding the EstSet re-materializes all reverse complements: O(total
  // characters) per batch, which is dwarfed by the dirty-bucket tree
  // rebuilds it accompanies.
  ests_ = bio::EstSet(all_sequences_);
  clusters_.grow(ests_.num_ests());

  // Bucket the new strings' suffixes and merge them into the persistent
  // per-bucket suffix lists, remembering which buckets went dirty.
  std::vector<gst::BucketedSuffix> fresh;
  gst::collect_suffixes(ests_, bio::EstSet::forward_sid(
                                   static_cast<bio::EstId>(old_n)),
                        static_cast<bio::StringId>(ests_.num_strings()),
                        cfg_.gst.window, fresh);
  std::vector<std::uint64_t> dirty;
  dirty.reserve(fresh.size());
  for (const auto& bs : fresh) {
    buckets_[bs.bucket].push_back(bs.occ);
    dirty.push_back(bs.bucket);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  st.dirty_buckets = dirty.size();
  st.total_buckets = buckets_.size();

  // Re-refine only the dirty buckets, over one text of the grown set.
  gst::BuildCounters counters;
  std::vector<gst::Tree> forest;
  forest.reserve(dirty.size());
  const gst::CodeText text(ests_);
  for (std::uint64_t b : dirty) {
    forest.push_back(gst::build_bucket_tree(text, buckets_[b],
                                            cfg_.gst.window, b, counters));
  }

  // Generate promising pairs from the rebuilt subtrees; only pairs that
  // touch a new EST are fresh work.
  pairgen::PairGenerator gen(ests_, forest, cfg_.psi);
  std::vector<pairgen::PromisingPair> pairs;
  while (gen.next_batch(cfg_.batchsize, pairs) > 0) {
    for (const auto& p : pairs) {
      ++st.pairs_generated;
      if (p.a < old_n && p.b < old_n) {
        ++st.pairs_filtered;  // considered when its later EST arrived
        continue;
      }
      if (clusters_.same(p.a, p.b)) continue;
      PairEvaluation ev = evaluate_pair(ests_, p, cfg_.overlap);
      ++st.pairs_processed;
      if (ev.accepted) {
        ++st.pairs_accepted;
        if (clusters_.unite(p.a, p.b)) ++st.merges;
      }
    }
    pairs.clear();
  }

  st.seconds = timer.seconds();
  return st;
}

}  // namespace estclust::pace
