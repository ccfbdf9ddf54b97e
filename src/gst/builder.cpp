#include "gst/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

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

CodeText::CodeText(const bio::EstSet& ests) {
  // encode_base through one table lookup per base.
  static constexpr auto kCode = [] {
    std::array<std::uint8_t, 256> t{};
    for (int c = 0; c < 256; ++c) {
      t[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(
          bio::encode_base(static_cast<char>(c)) & 3);
    }
    return t;
  }();
  const auto num_sids = static_cast<bio::StringId>(ests.num_strings());
  const std::size_t used = ests.total_string_chars() + num_sids + 1;
  ESTCLUST_CHECK_MSG(used + kTailPad <= UINT32_MAX,
                     "input too large for 32-bit text offsets");
  bytes_.assign(used + kTailPad, 0);
  start_.resize(std::size_t{num_sids} + 1);
  std::uint8_t* out = bytes_.data();
  *out++ = kSentinel;
  for (bio::StringId sid = 0; sid < num_sids; ++sid) {
    start_[sid] = static_cast<std::uint32_t>(out - bytes_.data());
    for (char c : ests.str(sid)) {
      *out++ = kCode[static_cast<unsigned char>(c)];
    }
    *out++ = kSentinel;
  }
  start_[num_sids] = static_cast<std::uint32_t>(out - bytes_.data());
}

namespace {

/// A suffix during refinement: `at` is the text offset of its first code.
/// Offsets rise with (sid, pos), so ascending `at` is canonical order.
struct TextSuffix {
  std::uint32_t at = 0;
  bio::StringId sid = 0;
};

std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Index of the first differing byte of two words whose XOR is x != 0.
std::size_t first_diff_byte(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(x)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(x)) / 8;
  }
}

/// Recursive refinement of one bucket's suffixes, emitting its subtree
/// into `tree` in DFS order. Every suffix group is a range [lo, hi) of one
/// buffer whose suffixes share their first `d` characters; a branching
/// node partitions its range in place ($ group first, then A, C, G, T) by
/// a stable counting sort through one scratch buffer of the same size, so
/// no node allocates and each class keeps its (sid, pos) input order.
/// Characters are read from the CodeText, one load per class lookup.
class BucketRefiner {
 public:
  BucketRefiner(const CodeText& text, Tree& tree, BuildCounters& counters,
                std::vector<TextSuffix>& group)
      : text_(text),
        codes_(text.data()),
        tree_(tree),
        counters_(counters),
        group_(group),
        scratch_(group.size()) {}

  void build(std::size_t lo, std::size_t hi, std::uint32_t d) {
    ESTCLUST_DCHECK(lo < hi);
    if (hi - lo == 1) {
      emit_leaf(lo, hi, text_.end(group_[lo].sid) - group_[lo].at);
      return;
    }

    // Extend the edge (compaction) while all suffixes continue with the
    // same character: the common extension of every suffix with the
    // group's first, found by one forward scan per suffix. The charge is
    // one character step per suffix per depth examined, as if the group
    // were scanned once per depth.
    const std::uint32_t ext = common_extension(lo, hi, d);
    counters_.chars_scanned += (std::uint64_t{ext} + 1) * (hi - lo);
    d += ext;

    // Class sizes at the branching depth d (kSigma counts the $ group).
    std::array<std::size_t, bio::kSigma + 1> start{};
    for (std::size_t i = lo; i < hi; ++i) ++start[class_at(group_[i], d)];
    if (start[bio::kSigma] == hi - lo) {
      // All suffixes end at depth d: identical strings -> one leaf.
      emit_leaf(lo, hi, d);
      return;
    }

    // Internal node at depth d. Children in canonical order: the $-leaf of
    // exhausted suffixes first, then the A, C, G, T classes.
    const std::uint32_t v = new_node(d);
    constexpr std::array<std::size_t, bio::kSigma + 1> kChildOrder = {
        bio::kSigma, 0, 1, 2, 3};
    std::array<std::size_t, bio::kSigma + 1> end{};
    std::size_t at = lo;
    for (std::size_t c : kChildOrder) {
      const std::size_t n = start[c];
      start[c] = end[c] = at;
      at += n;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      scratch_[end[class_at(group_[i], d)]++] = group_[i];
    }
    std::copy(scratch_.begin() + static_cast<std::ptrdiff_t>(lo),
              scratch_.begin() + static_cast<std::ptrdiff_t>(hi),
              group_.begin() + static_cast<std::ptrdiff_t>(lo));

    if (start[bio::kSigma] != end[bio::kSigma]) {
      emit_leaf(start[bio::kSigma], end[bio::kSigma], d);
    }
    for (int c = 0; c < bio::kSigma; ++c) {
      const auto k = static_cast<std::size_t>(c);
      if (start[k] != end[k]) build(start[k], end[k], d + 1);
    }
    tree_.nodes[v].rightmost =
        static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

 private:
  /// Character class of `s` at depth d: the base code, or kSigma (the
  /// sentinel) for the $ of a suffix that ends there.
  std::size_t class_at(const TextSuffix& s, std::uint32_t d) const {
    return codes_[s.at + d];
  }

  /// Largest e such that every suffix of [lo, hi) has at least d + e
  /// characters and agrees with the first one on [d, d + e). Compares
  /// eight codes per word; a shorter suffix stops at its sentinel, which
  /// differs from every base, and the first suffix's own length bounds e.
  std::uint32_t common_extension(std::size_t lo, std::size_t hi,
                                 std::uint32_t d) const {
    const std::uint8_t* first = codes_ + group_[lo].at + d;
    std::size_t ext = text_.end(group_[lo].sid) - (group_[lo].at + d);
    for (std::size_t i = lo + 1; i < hi && ext > 0; ++i) {
      const std::uint8_t* s = codes_ + group_[i].at + d;
      std::size_t e = 0;
      while (e < ext) {
        const std::uint64_t x = load_word(s + e) ^ load_word(first + e);
        if (x != 0) {
          e += first_diff_byte(x);
          break;
        }
        e += 8;
      }
      ext = std::min(ext, e);
    }
    return static_cast<std::uint32_t>(ext);
  }

  std::uint32_t new_node(std::uint32_t depth) {
    Node n;
    n.depth = depth;
    tree_.nodes.push_back(n);
    ++counters_.nodes;
    return static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

  /// A leaf of depth `depth` holding the suffixes [lo, hi), with each
  /// occurrence's left-extension code: the text byte before it.
  void emit_leaf(std::size_t lo, std::size_t hi, std::uint32_t depth) {
    const std::uint32_t v = new_node(depth);
    tree_.nodes[v].rightmost = v;
    tree_.nodes[v].occ_begin = static_cast<std::uint32_t>(tree_.occs.size());
    for (std::size_t i = lo; i < hi; ++i) {
      const TextSuffix& s = group_[i];
      tree_.occs.push_back(
          {s.sid, s.at - text_.start(s.sid), codes_[s.at - 1]});
    }
    tree_.nodes[v].occ_end = static_cast<std::uint32_t>(tree_.occs.size());
  }

  const CodeText& text_;
  const std::uint8_t* codes_;
  Tree& tree_;
  BuildCounters& counters_;
  std::vector<TextSuffix>& group_;
  std::vector<TextSuffix> scratch_;
};

}  // namespace

Tree build_bucket_tree(const CodeText& text,
                       std::span<const SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters) {
  ESTCLUST_CHECK(!suffixes.empty());
  std::vector<TextSuffix> group(suffixes.size());
  for (std::size_t i = 0; i < suffixes.size(); ++i) {
    group[i] = {text.start(suffixes[i].sid) + suffixes[i].pos,
                suffixes[i].sid};
  }
  // Canonical input order => identical trees regardless of how suffixes
  // arrived (sequential scan or all-to-all exchange). Both drivers already
  // hand over (sid, pos) order, so the sort is only a fallback.
  const auto by_at = [](const TextSuffix& a, const TextSuffix& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(group.begin(), group.end(), by_at)) {
    std::sort(group.begin(), group.end(), by_at);
  }
  counters.suffixes += suffixes.size();

  Tree tree;
  tree.bucket_id = bucket_id;
  tree.prefix_depth = w;
  tree.nodes.reserve(2 * suffixes.size());
  tree.occs.reserve(suffixes.size());
  BucketRefiner refiner(text, tree, counters, group);
  refiner.build(0, group.size(), w);
  tree.nodes.shrink_to_fit();
  return tree;
}

Tree build_bucket_tree(const bio::EstSet& ests,
                       std::vector<SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters) {
  return build_bucket_tree(CodeText(ests), suffixes, w, bucket_id, counters);
}

std::vector<Tree> build_forest_sequential(const bio::EstSet& ests,
                                          std::uint32_t w,
                                          BuildCounters* counters) {
  // Group suffixes by bucket with one stable counting pass over the 4^w
  // buckets: each bucket's run stays in (sid, pos) scan order. at[b] is
  // bucket b's count, then its start, then (after the scatter) its end.
  const auto num_sids = static_cast<bio::StringId>(ests.num_strings());
  std::vector<std::uint64_t> at(num_buckets(w), 0);
  for_each_bucketed_suffix(
      ests, 0, num_sids, w,
      [&](std::uint64_t bucket, const SuffixOcc&) { ++at[bucket]; });
  std::uint64_t total = 0;
  for (auto& a : at) {
    const std::uint64_t n = a;
    a = total;
    total += n;
  }
  std::vector<SuffixOcc> grouped(total);
  for_each_bucketed_suffix(ests, 0, num_sids, w,
                           [&](std::uint64_t bucket, const SuffixOcc& occ) {
                             grouped[at[bucket]++] = occ;
                           });

  BuildCounters local;
  BuildCounters& c = counters ? *counters : local;
  const CodeText text(ests);
  const std::span<const SuffixOcc> all(grouped);
  std::vector<Tree> forest;
  std::uint64_t begin = 0;
  for (std::uint64_t b = 0; b < at.size(); ++b) {
    if (at[b] == begin) continue;
    forest.push_back(
        build_bucket_tree(text, all.subspan(begin, at[b] - begin), w, b, c));
    begin = at[b];
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
