#include "pace/cluster_state.hpp"

namespace estclust::pace {

bool ClusterState::skip(const pairgen::PromisingPair& pair) {
  if (!clusters.same(pair.a, pair.b)) return false;
  ++stats.pairs_skipped;
  return true;
}

std::uint64_t ClusterState::align(const pairgen::PromisingPair& pair,
                                  PairAligner& aligner) {
  const PairEvaluation ev = aligner.evaluate(pair);
  const align::OverlapResult& ov = ev.overlap;
  ++stats.pairs_processed;
  stats.dp_cells += ov.cells;
  if (ev.accepted) {
    merge({pair.a, pair.b, pair.b_rc, ov.kind,
           static_cast<std::uint32_t>(ov.a_begin),
           static_cast<std::uint32_t>(ov.a_end),
           static_cast<std::uint32_t>(ov.b_begin),
           static_cast<std::uint32_t>(ov.b_end), ov.quality});
  }
  return ov.cells;
}

void ClusterState::merge(const AcceptedOverlap& overlap) {
  ++stats.pairs_accepted;
  if (clusters.unite(overlap.a, overlap.b)) ++stats.merges;
  overlaps.push_back(overlap);
}

std::uint64_t ClusterState::take_uf_ops() {
  const std::uint64_t ops = clusters.operations() - uf_ops_taken_;
  uf_ops_taken_ = clusters.operations();
  return ops;
}

}  // namespace estclust::pace
