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
// A node's five lsets l_A, l_C, l_G, l_T, l_λ are held as one run of
// indices into its tree's occurrence array: one entry per string below
// the node, its leftmost occurrence there, in occurrence order. The class
// of an entry is the occurrence's left-extension code (TreeOcc::lext), so
// l_c is the run filtered to class c, and the union onto a node is the
// concatenation of the children's deduplicated runs.
//
// Pairs therefore stream out in decreasing order of maximal common
// substring length with respect to this forest (the paper accepts per-rank
// rather than global order). The generator remembers its position between
// calls, so pairs are produced on demand at no extra storage cost.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
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

  /// Lset entries held right now, retained capacity of recycled runs
  /// included (space-linearity tests). 0 once the stream is exhausted.
  std::uint32_t live_lset_cells() const { return held_cells_; }

  /// Most lset slots ever live at once: the high-water mark of the
  /// frontier of processed internal nodes whose parents are still pending
  /// (a leaf's run is its own occurrence range and takes no slot).
  std::uint64_t peak_lset_slots() const override { return runs_.size(); }

  /// High-water mark of the walk's lset memory: held entries, slot
  /// headers and the per-node class-sort scratch.
  std::uint64_t peak_lset_bytes() const override { return peak_bytes_; }

 private:
  struct NodeRef {
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
  };

  /// A child's run during process_internal: `idx[0, size)` for an internal
  /// child, the occurrence range [begin, begin + size) for a leaf.
  /// `kept_end` is where the child's survivors end in the node's run.
  struct ChildRun {
    const std::uint32_t* idx = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t kept_end = 0;
  };

  /// slot_of_ values that are not slot indices (all above any index).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;  ///< not processed
  static constexpr std::uint32_t kOrphan = 0xFFFFFFFEu;  ///< parent never is
  static constexpr std::uint32_t kLeafRun = 0xFFFFFFFDu;  ///< run = occ range

  /// A recycled run keeps at most this many entries of capacity.
  static constexpr std::size_t kMaxRetainedCells = 256;

  void process_next_node();
  void process_leaf(const gst::Tree& t, std::uint32_t v);
  void process_internal(const gst::Tree& t, std::uint32_t tree_idx,
                        std::uint32_t v, std::vector<std::uint32_t>& run);
  /// Counting-sorts run entries into class segments of sorted_: entries
  /// [from, to) of `run` (an index array, or the identity range when null)
  /// go to classes seg[0..kNumLsetCodes) of this group, which must hold
  /// their start offsets; each is advanced past its entries.
  void scatter(const gst::Tree& t, const std::uint32_t* run,
               std::uint32_t from, std::uint32_t to, std::uint32_t* seg);
  void emit(const gst::SuffixOcc& e1, const gst::SuffixOcc& e2,
            std::uint32_t len);
  void cross_product(std::uint32_t b1, std::uint32_t e1, std::uint32_t b2,
                     std::uint32_t e2, std::uint32_t len);
  void self_product(std::uint32_t b, std::uint32_t e, std::uint32_t len);

  std::uint32_t take_slot();
  void return_slot(std::uint32_t slot);
  void note_lset_bytes();
  void release_lsets();

  const std::vector<gst::Tree>& forest_;
  std::uint32_t psi_;

  /// Nodes with depth >= psi in processing order: depth descending, then
  /// tree ascending, then node index descending (so a $-leaf, which ties
  /// its parent's depth, comes first). Filled by a stable counting sort
  /// on depth, which is bounded by the longest string.
  std::vector<NodeRef> order_;
  std::size_t next_node_ = 0;    ///< cursor into order_

  // Lsets live only on the frontier. A processed internal node holds one
  // run of runs_ until its parent concatenates it away (or, for an orphan
  // — a bucket root or a child of an internal node shallower than psi —
  // right after its own processing). A leaf's run is its occurrence range
  // (its strings are distinct), so leaves take no slot. slot_of_ maps a
  // global node index (node_base_[tree] + node) to its slot or to a k*
  // marker. runs_.size() is the peak slot count; a returned run keeps up
  // to kMaxRetainedCells of capacity for reuse.
  std::vector<std::uint32_t> node_base_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::vector<std::uint32_t>> runs_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t held_cells_ = 0;  ///< Σ capacity over runs_
  std::uint64_t peak_bytes_ = 0;

  // process_leaf / process_internal scratch: the children's runs, and the
  // node's entries counting-sorted into (child, class) segments, with
  // seg_[g * kNumLsetCodes + c] the start of segment (g, c).
  std::vector<ChildRun> children_;
  std::vector<gst::SuffixOcc> sorted_;
  std::vector<std::uint32_t> seg_;

  // Duplicate-elimination mark array: mark_[sid] == token when sid was
  // already seen at the internal node currently being processed.
  std::vector<std::uint64_t> mark_;
  std::uint64_t token_ = 0;

  std::deque<PromisingPair> buffer_;
  GenStats stats_;
  std::uint64_t work_since_take_ = 0;
};

}  // namespace estclust::pairgen
