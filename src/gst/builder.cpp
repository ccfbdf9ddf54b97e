#include "gst/builder.hpp"

#include <algorithm>
#include <array>

#include "bio/alphabet.hpp"
#include "util/check.hpp"

namespace estclust::gst {

std::uint64_t bucket_of(std::string_view s, std::size_t pos,
                        std::uint32_t w) {
  ESTCLUST_DCHECK(pos + w <= s.size());
  std::uint64_t id = 0;
  for (std::uint32_t k = 0; k < w; ++k) {
    id = id * 4 + static_cast<std::uint64_t>(bio::encode_base(s[pos + k]));
  }
  return id;
}

std::uint64_t num_buckets(std::uint32_t w) {
  ESTCLUST_CHECK_MSG(w >= 1 && w <= 11, "window must be in [1, 11]");
  return 1ULL << (2 * w);
}

void collect_suffixes(const bio::EstSet& ests, bio::StringId sid_begin,
                      bio::StringId sid_end, std::uint32_t w,
                      std::vector<BucketedSuffix>& out) {
  for_each_bucketed_suffix(ests, sid_begin, sid_end, w,
                           [&](std::uint64_t bucket, const SuffixOcc& occ) {
                             out.push_back({bucket, occ});
                           });
}

namespace {

/// Recursive refinement of one suffix group that shares its first `d`
/// characters. Emits the group's subtree into `tree` in DFS order.
class BucketRefiner {
 public:
  BucketRefiner(const bio::EstSet& ests, Tree& tree, BuildCounters& counters)
      : ests_(ests), tree_(tree), counters_(counters) {}

  void build(std::vector<SuffixOcc>& group, std::uint32_t d) {
    ESTCLUST_DCHECK(!group.empty());
    if (group.size() == 1) {
      emit_singleton_leaf(group[0]);
      return;
    }

    // Extend the edge (compaction) while all suffixes continue with the
    // same character. Each pass scans the group once.
    std::array<std::uint32_t, bio::kSigma> class_size{};
    std::uint32_t exhausted = 0;
    for (;;) {
      class_size.fill(0);
      exhausted = 0;
      for (const SuffixOcc& occ : group) {
        auto s = ests_.str(occ.sid);
        if (occ.pos + d == s.size()) {
          ++exhausted;
        } else {
          ++class_size[static_cast<std::size_t>(
              bio::encode_base(s[occ.pos + d]))];
        }
      }
      counters_.chars_scanned += group.size();
      int nonempty = 0;
      for (auto c : class_size) nonempty += (c > 0);
      if (exhausted == 0 && nonempty == 1) {
        ++d;  // unary extension: no node here
        continue;
      }
      if (nonempty == 0) {
        // All suffixes end at depth d: identical strings -> one leaf.
        emit_coalesced_leaf(group, d);
        return;
      }
      break;  // group branches at depth d
    }

    // Internal node at depth d. Children in canonical order: the $-leaf of
    // exhausted suffixes first, then the A, C, G, T classes.
    const std::uint32_t v = new_node(d);
    std::array<std::vector<SuffixOcc>, bio::kSigma> classes;
    std::vector<SuffixOcc> done;
    done.reserve(exhausted);
    for (int c = 0; c < bio::kSigma; ++c)
      classes[static_cast<std::size_t>(c)].reserve(
          class_size[static_cast<std::size_t>(c)]);
    for (const SuffixOcc& occ : group) {
      auto s = ests_.str(occ.sid);
      if (occ.pos + d == s.size()) {
        done.push_back(occ);
      } else {
        classes[static_cast<std::size_t>(bio::encode_base(s[occ.pos + d]))]
            .push_back(occ);
      }
    }
    group.clear();
    group.shrink_to_fit();

    if (!done.empty()) emit_coalesced_leaf(done, d);
    for (auto& cls : classes) {
      if (!cls.empty()) build(cls, d + 1);
    }
    tree_.nodes[v].rightmost =
        static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

 private:
  std::uint32_t new_node(std::uint32_t depth) {
    Node n;
    n.depth = depth;
    tree_.nodes.push_back(n);
    ++counters_.nodes;
    return static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

  void emit_singleton_leaf(const SuffixOcc& occ) {
    auto s = ests_.str(occ.sid);
    const std::uint32_t v = new_node(
        static_cast<std::uint32_t>(s.size() - occ.pos));
    tree_.nodes[v].rightmost = v;
    tree_.nodes[v].occ_begin = static_cast<std::uint32_t>(tree_.occs.size());
    tree_.occs.push_back(occ);
    tree_.nodes[v].occ_end = static_cast<std::uint32_t>(tree_.occs.size());
  }

  void emit_coalesced_leaf(const std::vector<SuffixOcc>& group,
                           std::uint32_t d) {
    const std::uint32_t v = new_node(d);
    tree_.nodes[v].rightmost = v;
    tree_.nodes[v].occ_begin = static_cast<std::uint32_t>(tree_.occs.size());
    tree_.occs.insert(tree_.occs.end(), group.begin(), group.end());
    tree_.nodes[v].occ_end = static_cast<std::uint32_t>(tree_.occs.size());
  }

  const bio::EstSet& ests_;
  Tree& tree_;
  BuildCounters& counters_;
};

}  // namespace

Tree build_bucket_tree(const bio::EstSet& ests,
                       std::vector<SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters) {
  ESTCLUST_CHECK(!suffixes.empty());
  // Canonical input order => identical trees regardless of how suffixes
  // arrived (sequential scan or all-to-all exchange).
  std::sort(suffixes.begin(), suffixes.end(),
            [](const SuffixOcc& a, const SuffixOcc& b) {
              return a.sid != b.sid ? a.sid < b.sid : a.pos < b.pos;
            });
  counters.suffixes += suffixes.size();

  Tree tree;
  tree.bucket_id = bucket_id;
  tree.prefix_depth = w;
  tree.nodes.reserve(2 * suffixes.size());
  tree.occs.reserve(suffixes.size());
  BucketRefiner refiner(ests, tree, counters);
  refiner.build(suffixes, w);
  tree.nodes.shrink_to_fit();
  tree.occs.shrink_to_fit();
  return tree;
}

std::vector<Tree> build_forest_sequential(const bio::EstSet& ests,
                                          std::uint32_t w,
                                          BuildCounters* counters) {
  std::vector<BucketedSuffix> all;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), w,
                   all);
  std::sort(all.begin(), all.end(),
            [](const BucketedSuffix& a, const BucketedSuffix& b) {
              return a.bucket < b.bucket;
            });
  BuildCounters local;
  BuildCounters& c = counters ? *counters : local;
  std::vector<Tree> forest;
  std::size_t i = 0;
  while (i < all.size()) {
    std::size_t j = i;
    while (j < all.size() && all[j].bucket == all[i].bucket) ++j;
    std::vector<SuffixOcc> bucket;
    bucket.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) bucket.push_back(all[k].occ);
    forest.push_back(
        build_bucket_tree(ests, std::move(bucket), w, all[i].bucket, c));
    i = j;
  }
  return forest;
}

std::vector<std::pair<bio::EstId, bio::EstId>> partition_ests(
    const bio::EstSet& ests, int p) {
  ESTCLUST_CHECK(p > 0);
  const std::size_t n = ests.num_ests();
  const double total = static_cast<double>(ests.total_est_chars());
  std::vector<std::pair<bio::EstId, bio::EstId>> ranges(p);
  std::size_t i = 0;
  double cum = 0.0;
  for (int r = 0; r < p; ++r) {
    const bio::EstId begin = static_cast<bio::EstId>(i);
    if (r == p - 1) {
      i = n;  // last rank absorbs any floating-point remainder
    } else {
      const double target =
          total * static_cast<double>(r + 1) / static_cast<double>(p);
      while (i < n && cum < target) {
        cum += static_cast<double>(
            ests.est(static_cast<bio::EstId>(i)).bases.size());
        ++i;
      }
    }
    ranges[r] = {begin, static_cast<bio::EstId>(i)};
  }
  return ranges;
}

std::vector<int> assign_buckets(const std::vector<std::uint64_t>& bucket_ids,
                                const std::vector<std::uint64_t>& sizes,
                                int p) {
  ESTCLUST_CHECK(bucket_ids.size() == sizes.size());
  ESTCLUST_CHECK(p > 0);
  std::vector<std::size_t> order(bucket_ids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  std::vector<std::uint64_t> load(p, 0);
  std::vector<int> owner(bucket_ids.size(), 0);
  for (std::size_t idx : order) {
    int best = 0;
    for (int r = 1; r < p; ++r) {
      if (load[r] < load[best]) best = r;
    }
    owner[idx] = best;
    load[best] += sizes[idx];
  }
  return owner;
}

}  // namespace estclust::gst
