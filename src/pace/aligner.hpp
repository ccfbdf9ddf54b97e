// Bridges promising pairs to the anchored alignment kernel.
#pragma once

#include "align/anchored.hpp"
#include "align/kernel.hpp"
#include "bio/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pace/config.hpp"
#include "pace/memo.hpp"
#include "pairgen/generator.hpp"

namespace estclust::pace {

/// Outcome of aligning one promising pair.
struct PairEvaluation {
  align::OverlapResult overlap;  ///< cells == DP cells computed THIS call
  bool accepted = false;
  bool memo_hit = false;  ///< served from the memo cache (0 new DP cells)
};

/// Runs the anchored banded alignment of §3.3 on the pair: string a is the
/// forward orientation of EST pair.a; string b is EST pair.b in the
/// orientation recorded by the generator; the maximal common substring
/// found by the GST is the anchor. Always exact (no memo, no early exit).
PairEvaluation evaluate_pair(const bio::EstSet& ests,
                             const pairgen::PromisingPair& pair,
                             const align::OverlapParams& params);

/// The production hot path: one per slave (or per sequential driver). Owns
/// the DP arena (zero allocations per pair once warm) and the alignment
/// memo, and applies the bounded kernel when the config allows. Verdicts
/// are identical to evaluate_pair for every pair; only the DP cell count
/// differs.
class PairAligner {
 public:
  PairAligner(const bio::EstSet& ests, const PaceConfig& cfg)
      : ests_(ests),
        cfg_(cfg),
        memo_(cfg.memo ? cfg.memo_capacity : 0) {}

  PairEvaluation evaluate(const pairgen::PromisingPair& pair);

  const MemoStats& memo_stats() const { return memo_.stats(); }

  /// Scratch-arena introspection (feeds the align.arena_bytes gauge).
  const align::AlignArena& arena() const { return arena_; }

 private:
  const bio::EstSet& ests_;
  const PaceConfig& cfg_;
  align::AlignArena arena_;
  AlignMemo memo_;
};

/// Publishes one rank's aligner activity: pairs aligned (also under the
/// active kernel variant, pure observability), memo counters, the arena
/// high-water gauge, and a kernel.variant trace instant.
void publish_aligner_metrics(obs::MetricsRegistry& metrics,
                             obs::RankTracer* tracer,
                             const PairAligner& aligner,
                             std::uint64_t pairs_aligned);

}  // namespace estclust::pace
