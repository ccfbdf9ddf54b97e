// GST construction by bucketing + character-wise refinement (§3.1).
//
// A sequential suffix-tree algorithm cannot build a bucket's subtree because
// the bucket does not contain all suffixes of any one string; the paper
// instead scans the suffixes of a bucket one character at a time, splitting
// recursively until every suffix group is a leaf. Run-time is O(sum of
// pairwise-distinguishing prefixes), O(N·l / p) per rank in the worst case,
// which works well because the average EST length l is a constant.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/tree.hpp"

namespace estclust::gst {

/// Work counters reported by the builder; the parallel wrapper converts
/// them into virtual time.
struct BuildCounters {
  std::uint64_t suffixes = 0;       ///< suffixes inserted
  std::uint64_t chars_scanned = 0;  ///< character-bucketing steps performed
  std::uint64_t nodes = 0;          ///< nodes emitted
};

/// A suffix tagged with its destination bucket.
struct BucketedSuffix {
  std::uint64_t bucket = 0;
  SuffixOcc occ;
};

/// Bucket id of the length-w prefix starting at `pos` (lexicographic,
/// base 4). Requires pos + w <= |s|.
std::uint64_t bucket_of(std::string_view s, std::size_t pos, std::uint32_t w);

/// Number of buckets for window w (4^w). Checked to fit comfortably in
/// memory: w <= 11.
std::uint64_t num_buckets(std::uint32_t w);

/// Calls fn(bucket, occ) for every suffix of strings [sid_begin, sid_end)
/// that is at least w long, in (sid, pos) order, updating the base-4
/// window value by one character per suffix. Shorter suffixes are skipped:
/// they cannot begin a maximal common substring of length >= psi >= w.
template <typename Fn>
void for_each_bucketed_suffix(const bio::EstSet& ests,
                              bio::StringId sid_begin, bio::StringId sid_end,
                              std::uint32_t w, Fn&& fn) {
  const std::uint64_t mask = num_buckets(w) - 1;
  for (bio::StringId sid = sid_begin; sid < sid_end; ++sid) {
    const auto s = ests.str(sid);
    if (s.size() < w) continue;
    std::uint64_t id = bucket_of(s, 0, w);
    for (std::size_t pos = 0;; ++pos) {
      fn(id, SuffixOcc{sid, static_cast<std::uint32_t>(pos)});
      if (pos + w >= s.size()) break;
      id = ((id << 2) & mask) |
           static_cast<std::uint64_t>(bio::encode_base(s[pos + w]));
    }
  }
}

/// Materializes for_each_bucketed_suffix into `out`.
void collect_suffixes(const bio::EstSet& ests, bio::StringId sid_begin,
                      bio::StringId sid_end, std::uint32_t w,
                      std::vector<BucketedSuffix>& out);

/// The flat text the refiner reads: every string of S as one byte code
/// per base (0..3), in sid order, each string preceded and followed by
/// kSentinel, then kTailPad bytes so a word-wide read that starts at or
/// before the last sentinel stays inside the buffer. kSentinel is both the
/// $ class of a suffix that ends and λ, the left extension of a suffix
/// that starts its string, so every occurrence's left-extension code is
/// the byte before it. Built once per forest build; ~2N + 4·2n bytes.
class CodeText {
 public:
  static constexpr std::uint8_t kSentinel = bio::kLambdaCode;
  static constexpr std::size_t kTailPad = 8;
  static_assert(bio::kLambdaCode == bio::kSigma,
                "$ and λ share the sentinel code");

  explicit CodeText(const bio::EstSet& ests);

  const std::uint8_t* data() const { return bytes_.data(); }

  /// Text offset of the first code of string sid.
  std::uint32_t start(bio::StringId sid) const { return start_[sid]; }

  /// Text offset of the sentinel that ends string sid.
  std::uint32_t end(bio::StringId sid) const { return start_[sid + 1] - 1; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint32_t> start_;  ///< 2n + 1 entries
};

/// Builds the subtree for one bucket from `text`, the CodeText of the
/// strings the suffixes index. `suffixes` must all share the same
/// length-w prefix; they are put in canonical (sid, pos) order internally
/// (no sort when they already are) so the resulting tree is independent
/// of input order.
Tree build_bucket_tree(const CodeText& text,
                       std::span<const SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters);

/// The same for a single bucket, building the text for the call.
Tree build_bucket_tree(const bio::EstSet& ests,
                       std::vector<SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters);

/// Builds the whole forest on one processor (the p = 1 reference path).
/// Trees are ordered by bucket id.
std::vector<Tree> build_forest_sequential(const bio::EstSet& ests,
                                          std::uint32_t w,
                                          BuildCounters* counters = nullptr);

/// Splits ESTs into p contiguous ranges with near-equal character totals
/// (the paper's initial data distribution). Returns p (begin, end) pairs.
std::vector<std::pair<bio::EstId, bio::EstId>> partition_ests(
    const bio::EstSet& ests, int p);

/// Greedy balanced assignment of buckets to ranks: buckets in decreasing
/// size order go to the currently least-loaded rank. Deterministic; every
/// rank computes the same mapping from the same global histogram.
/// Returns for each listed bucket id its owner rank.
std::vector<int> assign_buckets(const std::vector<std::uint64_t>& bucket_ids,
                                const std::vector<std::uint64_t>& sizes,
                                int p);

}  // namespace estclust::gst
