// Suffix-array reference construction of the GST forest.
//
// An independent second implementation used to cross-validate the
// production bucket-refinement builder: sort all suffixes of S (length
// >= w), compute the LCP array by direct comparison, and fold LCP
// intervals into the same compacted-trie bucket forest. The two paths
// share no construction code, so exact tree equality on arbitrary inputs
// is strong evidence both are right. The SA path is O(N log N * L) and
// keeps the whole order in memory — fine as an oracle, not a replacement.
// Only tests use it; no pair source builds a suffix array.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"

namespace estclust::gst {

/// Lexicographically sorted suffixes plus the LCP between neighbours.
struct SuffixArray {
  std::vector<SuffixOcc> order;  ///< suffixes of length >= min_len, sorted
  std::vector<std::uint32_t> lcp;  ///< lcp[k] = LCP(order[k-1], order[k]); lcp[0] = 0
};

/// Builds the array over every suffix of every string in S with length
/// >= min_len. Ties between identical suffix strings break by (sid, pos).
SuffixArray build_suffix_array(const bio::EstSet& ests,
                               std::uint32_t min_len);

/// Folds the sorted order into the bucket forest of §3.1: one compacted
/// subtree per distinct w-prefix, identical (nodes, occurrences, layout)
/// to build_forest_sequential(ests, w).
std::vector<Tree> forest_from_suffix_array(const bio::EstSet& ests,
                                           const SuffixArray& sa,
                                           std::uint32_t w);

}  // namespace estclust::gst
