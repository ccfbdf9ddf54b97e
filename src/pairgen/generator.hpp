// On-demand promising-pair generation (§3.2, Algorithm 1).
//
// A *promising pair* is a pair of strings sharing a maximal common substring
// of length >= psi. The generator walks the nodes of the local GST forest in
// decreasing string-depth order and, at each node with path-label α, emits
// exactly the pairs for which α is a maximal common substring (Lemma 1):
//
//   * at a leaf: cartesian products of lsets over (c1 < c2) plus l_λ × l_λ;
//   * at an internal node: after eliminating duplicate strings across the
//     children's lsets, cross-child products over (c1 != c2 or both λ),
//     then lset union onto the node.
//
// Pairs therefore stream out in decreasing order of maximal common
// substring length with respect to this forest (the paper accepts per-rank
// rather than global order). The generator remembers its position between
// calls, so pairs are produced on demand at no extra storage cost.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "pairgen/lset.hpp"
#include "pairgen/source.hpp"

namespace estclust::pairgen {

class PairGenerator final : public PairSource {
 public:
  /// The forest is borrowed and must outlive the generator. psi must be at
  /// least the forest's bucket prefix depth w (suffixes shorter than w were
  /// never inserted, which is only sound when psi >= w).
  PairGenerator(const bio::EstSet& ests, const std::vector<gst::Tree>& forest,
                std::uint32_t psi);

  /// Appends up to `max_pairs` pairs to `out`. Returns the number appended;
  /// 0 means the stream is exhausted.
  std::size_t next_batch(std::size_t max_pairs,
                         std::vector<PromisingPair>& out) override;

  /// True once every node has been processed and the buffer drained.
  bool exhausted() const override;

  const GenStats& stats() const override { return stats_; }

  /// Work units performed since the last call to this function (for
  /// virtual-time charging by the parallel driver).
  std::uint64_t take_work_units() override;

  /// Node sorting over the borrowed forest (Table 3's "Sorting Nodes"
  /// column): k·(1 + ⌊log2(k+1)⌋) for k forest nodes — the formula the
  /// pace drivers have always charged for this backend.
  std::uint64_t construction_sort_units() const override;

  /// The candidate index here is the borrowed forest itself.
  std::uint64_t index_bytes() const override;

  /// Live lset cells right now (space-linearity tests).
  std::uint32_t live_lset_cells() const { return pool_.live_cells(); }

  /// Most lset slots ever live at once: the high-water mark of the
  /// frontier of processed nodes whose parents are still pending (leaves
  /// with one occurrence excepted: they take a slot only at the parent).
  std::size_t peak_lset_slots() const { return slots_.size(); }

 private:
  struct NodeRef {
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
  };

  /// slot_of_ values that are not slot indices (all above any index).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;  ///< not processed
  static constexpr std::uint32_t kOrphan = 0xFFFFFFFEu;  ///< parent never is
  static constexpr std::uint32_t kLoneLeaf = 0xFFFFFFFDu;  ///< entry deferred

  void process_next_node();
  void process_leaf(const gst::Tree& t, std::uint32_t v, NodeLsets& lsets);
  void process_internal(const gst::Tree& t, std::uint32_t tree_idx,
                        std::uint32_t v, NodeLsets& lsets);
  void emit(const LsetEntry& e1, const LsetEntry& e2, std::uint32_t len);
  void cross_product(const Lset& s1, const Lset& s2, std::uint32_t len);
  void self_product(const Lset& s, std::uint32_t len);

  std::uint32_t take_slot();
  void return_slot(std::uint32_t slot);

  const bio::EstSet& ests_;
  const std::vector<gst::Tree>& forest_;
  std::uint32_t psi_;

  /// Nodes with depth >= psi in processing order: depth descending, then
  /// tree ascending, then node index descending (so a $-leaf, which ties
  /// its parent's depth, comes first). Filled by a stable counting sort
  /// on depth, which is bounded by the longest string.
  std::vector<NodeRef> order_;
  std::size_t next_node_ = 0;    ///< cursor into order_

  // Lsets live only on the frontier. A processed node holds one slot of
  // slots_ until its parent splices its lsets away (or, for an orphan —
  // a bucket root or a child of an internal node shallower than psi — right
  // after its own processing). A leaf with one occurrence, most leaves,
  // takes no slot: its parent builds the single entry when it splices.
  // slot_of_ maps a global node index (node_base_[tree] + node) to its
  // slot or to a k* marker. slots_ is a deque so growth never copies live
  // lsets; its size is the peak.
  std::vector<std::uint32_t> node_base_;
  std::vector<std::uint32_t> slot_of_;
  std::deque<NodeLsets> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> children_;  ///< process_internal scratch

  LsetPool pool_;

  // Duplicate-elimination mark array: mark_[sid] == token when sid was
  // already seen at the internal node currently being processed.
  std::vector<std::uint64_t> mark_;
  std::uint64_t token_ = 0;

  std::deque<PromisingPair> buffer_;
  GenStats stats_;
  std::uint64_t work_since_take_ = 0;
};

}  // namespace estclust::pairgen
