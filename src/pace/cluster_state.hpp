// The §3.3 clustering step every driver shares: a promising pair is
// aligned only if its ESTs are in different clusters, and an accepted
// overlap merges them in CLUSTERS. Reads no clock; callers charge the DP
// cells and union-find operations it reports.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/union_find.hpp"
#include "pace/aligner.hpp"
#include "pace/config.hpp"

namespace estclust::pace {

/// An overlap that passed the §3.3 acceptance criteria: the evidence used
/// to merge the pair's clusters, with coordinates for downstream layout
/// and consensus (assembly).
struct AcceptedOverlap {
  bio::EstId a = 0;
  bio::EstId b = 0;
  bool b_rc = false;
  align::OverlapKind kind = align::OverlapKind::kNone;
  std::uint32_t a_begin = 0, a_end = 0;  ///< span in forward(e_a)
  std::uint32_t b_begin = 0, b_end = 0;  ///< span in oriented(e_b)
  double quality = 0.0;
};

/// CLUSTERS plus the evidence and counters of the step that updates it.
struct ClusterState {
  explicit ClusterState(std::size_t num_ests) : clusters(num_ests) {}

  /// True, and counted as skipped, iff the pair's ESTs already share a
  /// cluster.
  bool skip(const pairgen::PromisingPair& pair);
  /// Aligns the pair, counts it, and merges on acceptance. Returns the DP
  /// cells computed (0 on a memo hit).
  std::uint64_t align(const pairgen::PromisingPair& pair,
                      PairAligner& aligner);
  /// Counts an accepted overlap, unites its ESTs and records it.
  void merge(const AcceptedOverlap& overlap);
  /// Union-find operations since the previous call: the units the caller
  /// charges to uf_op.
  std::uint64_t take_uf_ops();

  cluster::UnionFind clusters;
  /// The step's counters (skipped, processed, accepted, merges, DP
  /// cells); the drivers fill in the rest.
  PaceStats stats;
  /// Every accepted overlap, in processing order (including those whose
  /// ESTs were already co-clustered transitively).
  std::vector<AcceptedOverlap> overlaps;

 private:
  std::uint64_t uf_ops_taken_ = 0;
};

}  // namespace estclust::pace
