#include "gst/parallel.hpp"

#include <algorithm>
#include <cmath>

#include "gst/wire.hpp"
#include "mpr/message.hpp"
#include "util/check.hpp"

namespace estclust::gst {

namespace {

/// Deterministic O(n log n) comparison-sort cost model for clock charging.
std::uint64_t sort_units(std::uint64_t n) {
  return n * (1 + static_cast<std::uint64_t>(
                      std::log2(static_cast<double>(n + 1))));
}

/// §3.1 step 4 from the global bucket histogram: the greedy assignment of
/// the non-empty buckets to ranks [first_owner_rank, p), computed
/// identically on every rank. Returns the dense bucket id -> owner rank
/// map (-1 for empty buckets); `nonempty` (optional) receives the number
/// of buckets assigned.
std::vector<int> assign_owners(const std::vector<std::uint64_t>& hist, int p,
                               int first_owner_rank,
                               std::uint64_t* nonempty = nullptr) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t b = 0; b < hist.size(); ++b) {
    if (hist[b] > 0) {
      ids.push_back(b);
      sizes.push_back(hist[b]);
    }
  }
  const std::vector<int> owner_of =
      assign_buckets(ids, sizes, p - first_owner_rank);
  std::vector<int> owner(hist.size(), -1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    owner[ids[i]] = owner_of[i] + first_owner_rank;
  }
  if (nonempty) *nonempty = ids.size();
  return owner;
}

/// The global histogram of every suffix's bucket, counted in one rolling
/// pass over all strings without materializing the suffixes.
std::vector<std::uint64_t> global_histogram(const bio::EstSet& ests,
                                            std::uint32_t w) {
  std::vector<std::uint64_t> hist(num_buckets(w), 0);
  for_each_bucketed_suffix(
      ests, 0, static_cast<bio::StringId>(ests.num_strings()), w,
      [&](std::uint64_t bucket, const SuffixOcc&) { ++hist[bucket]; });
  return hist;
}

/// The canonical post-exchange order: (bucket, sid, pos) is a total order
/// over unique keys, so the source-rank interleaving of the all-to-all is
/// irrelevant.
void sort_canonical(std::vector<BucketedSuffix>& owned) {
  std::sort(owned.begin(), owned.end(),
            [](const BucketedSuffix& a, const BucketedSuffix& b) {
              if (a.bucket != b.bucket) return a.bucket < b.bucket;
              if (a.occ.sid != b.occ.sid) return a.occ.sid < b.occ.sid;
              return a.occ.pos < b.occ.pos;
            });
}

/// §3.1 step 5: refines canonically sorted owned suffixes into one subtree
/// per bucket, ordered by bucket id, over one CodeText of all strings (an
/// owned bucket holds suffixes of any string).
std::vector<Tree> refine_owned(const bio::EstSet& ests,
                               const std::vector<BucketedSuffix>& owned,
                               std::uint32_t w, BuildCounters& counters) {
  std::vector<Tree> forest;
  if (owned.empty()) return forest;
  const CodeText text(ests);
  std::vector<SuffixOcc> bucket;
  std::size_t i = 0;
  while (i < owned.size()) {
    std::size_t j = i;
    bucket.clear();
    for (; j < owned.size() && owned[j].bucket == owned[i].bucket; ++j) {
      bucket.push_back(owned[j].occ);
    }
    forest.push_back(
        build_bucket_tree(text, bucket, w, owned[i].bucket, counters));
    i = j;
  }
  return forest;
}

}  // namespace

std::vector<Tree> build_forest_parallel(mpr::Communicator& comm,
                                        const bio::EstSet& ests,
                                        const GstConfig& cfg,
                                        ParallelBuildStats* stats,
                                        int first_owner_rank) {
  const int p = comm.size();
  ESTCLUST_CHECK(first_owner_rank >= 0 && first_owner_rank < p);
  const int rank = comm.rank();
  const auto& cm = comm.cost_model();
  obs::RankTracer* tracer = comm.tracer();
  const double t0 = comm.clock().time();
  if (tracer) tracer->begin("partitioning", "phase");

  // Phase 1: bucket my block's suffixes. Both orientations of an EST live
  // with the EST's owner.
  auto ranges = partition_ests(ests, p);
  std::vector<BucketedSuffix> mine;
  collect_suffixes(ests, bio::EstSet::forward_sid(ranges[rank].first),
                   bio::EstSet::forward_sid(ranges[rank].second),
                   cfg.window, mine);
  // Rolling-window bucketing is ~1 char step per suffix plus w per string.
  comm.charge(cm.char_op,
              mine.size() + cfg.window * 2 *
                                (ranges[rank].second - ranges[rank].first));

  // Phase 2: global bucket histogram via parallel summation (O(log p)).
  const std::uint64_t nbuckets = num_buckets(cfg.window);
  std::vector<std::uint64_t> hist(nbuckets, 0);
  for (const auto& bs : mine) ++hist[bs.bucket];
  comm.charge(cm.char_op, mine.size());
  {
    mpr::CheckOpScope check_scope(comm, "gst.bucket_histogram");
    hist = comm.allreduce_sum_vec(std::move(hist));
  }

  // Phase 3: deterministic greedy bucket -> rank assignment, computed
  // identically on every rank from the shared histogram.
  std::uint64_t nonempty = 0;
  const std::vector<int> owner =
      assign_owners(hist, p, first_owner_rank, &nonempty);
  comm.charge(cm.sort_op, sort_units(nonempty));
  std::uint64_t global_suffixes = 0;
  for (std::uint64_t n : hist) global_suffixes += n;

  // Phase 4: route suffixes to their bucket owners.
  std::vector<mpr::BufWriter> packs(p);
  for (const auto& bs : mine) {
    encode_routed_suffix(packs[owner[bs.bucket]], bs);
  }
  comm.charge(cm.byte_op, mine.size() * kRoutedSuffixBytes);
  mine.clear();
  mine.shrink_to_fit();
  std::vector<mpr::Buffer> sendbufs(p);
  for (int r = 0; r < p; ++r) sendbufs[r] = packs[r].take();
  packs.clear();
  std::vector<mpr::Buffer> recvbufs;
  {
    mpr::CheckOpScope check_scope(comm, "gst.suffix_route");
    recvbufs = comm.all_to_all(std::move(sendbufs));
  }

  std::vector<BucketedSuffix> owned;
  for (const auto& buf : recvbufs) {
    mpr::BufReader r(buf);
    while (!r.exhausted()) {
      owned.push_back(decode_routed_suffix(r));
    }
  }
  recvbufs.clear();
  sort_canonical(owned);
  comm.charge(cm.sort_op, sort_units(owned.size()));
  const double t1 = comm.clock().time();
  if (tracer) {
    tracer->end("partitioning");
    tracer->begin("gst_build", "phase");
  }

  // Phase 5: refine owned buckets into subtrees.
  BuildCounters counters;
  std::vector<Tree> forest = refine_owned(ests, owned, cfg.window, counters);
  comm.charge(cm.char_op, counters.chars_scanned);
  const double t2 = comm.clock().time();
  if (tracer) tracer->end("gst_build");

  auto& metrics = comm.metrics();
  metrics.counter("gst.suffixes_owned").add(counters.suffixes);
  metrics.counter("gst.buckets_owned").add(forest.size());
  metrics.counter("gst.chars_scanned").add(counters.chars_scanned);
  metrics.gauge("gst.t_partition", obs::MergeOp::kMax).set(t1 - t0);
  metrics.gauge("gst.t_build", obs::MergeOp::kMax).set(t2 - t1);

  if (stats) {
    stats->partition_vtime = t1 - t0;
    stats->build_vtime = t2 - t1;
    stats->local_suffixes = counters.suffixes;
    stats->local_buckets = forest.size();
    stats->chars_scanned = counters.chars_scanned;
    stats->global_suffixes = global_suffixes;
  }
  return forest;
}

std::vector<Tree> rebuild_rank_forest(const bio::EstSet& ests,
                                      const GstConfig& cfg, int p,
                                      int first_owner_rank, int target_rank,
                                      BuildCounters* counters) {
  ESTCLUST_CHECK(first_owner_rank >= 0 && first_owner_rank < p);
  ESTCLUST_CHECK(target_rank >= first_owner_rank && target_rank < p);
  const std::vector<int> owner = assign_owners(
      global_histogram(ests, cfg.window), p, first_owner_rank);

  // The union of the per-rank collections, which block-partition the EST
  // ids, filtered to the target's buckets.
  std::vector<BucketedSuffix> owned;
  for_each_bucketed_suffix(
      ests, 0, static_cast<bio::StringId>(ests.num_strings()), cfg.window,
      [&](std::uint64_t bucket, const SuffixOcc& occ) {
        if (owner[bucket] == target_rank) owned.push_back({bucket, occ});
      });
  sort_canonical(owned);

  BuildCounters local;
  std::vector<Tree> forest = refine_owned(ests, owned, cfg.window, local);
  if (counters) *counters = local;
  return forest;
}

std::vector<std::uint64_t> owned_bucket_ids(const bio::EstSet& ests,
                                            const GstConfig& cfg, int p,
                                            int first_owner_rank,
                                            int target_rank,
                                            std::uint64_t* suffixes_scanned) {
  ESTCLUST_CHECK(first_owner_rank >= 0 && first_owner_rank < p);
  ESTCLUST_CHECK(target_rank >= first_owner_rank && target_rank < p);
  const std::vector<std::uint64_t> hist = global_histogram(ests, cfg.window);
  if (suffixes_scanned) {
    *suffixes_scanned = 0;
    for (std::uint64_t n : hist) *suffixes_scanned += n;
  }
  const std::vector<int> owner = assign_owners(hist, p, first_owner_rank);
  std::vector<std::uint64_t> mine;
  for (std::uint64_t b = 0; b < owner.size(); ++b) {
    if (owner[b] == target_rank) mine.push_back(b);
  }
  return mine;
}

}  // namespace estclust::gst
