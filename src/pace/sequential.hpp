// Single-processor clustering driver.
//
// Shares every component with the parallel driver (GST, pair generation,
// anchored alignment, the ClusterState step) but runs them in one thread
// with wall-clock timing. This is the path Table 1, Table 2 and Fig 7 use, and
// the natural entry point for library users without a rank group.
#pragma once

#include "bio/dataset.hpp"
#include "pace/cluster_state.hpp"
#include "pace/config.hpp"

namespace estclust::pace {

/// The sequential driver's result is its final cluster state.
using SequentialResult = ClusterState;

/// Ablation knobs for §3.2's central claims. The defaults are the
/// production behaviour: on-demand order, with cluster skipping.
struct SequentialOptions {
  /// true: materialize every promising pair first and process in an order
  /// uncorrelated with match length (the memory-hungry strategy of prior
  /// tools) instead of the on-demand decreasing-match-length stream.
  bool arbitrary_order = false;
  /// false: align every promising pair even when its ESTs already share a
  /// cluster — what an assembler that needs all overlap scores must do.
  bool cluster_skip = true;
};

/// Clusters `ests` and returns the final cluster state: union-find,
/// counters and accepted overlaps.
SequentialResult cluster_sequential(const bio::EstSet& ests,
                                    const PaceConfig& cfg,
                                    SequentialOptions options = {});

}  // namespace estclust::pace
