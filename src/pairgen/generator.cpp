#include "pairgen/generator.hpp"

#include <algorithm>
#include <cmath>

#include "bio/alphabet.hpp"
#include "util/check.hpp"

namespace estclust::pairgen {

namespace {
// Ordering of Σ ∪ {λ} used for the leaf rule (c1 < c2): λ precedes the
// bases, matching the paper's convention that l_λ pairs with every other
// class exactly once.
constexpr int kClassOrder[bio::kNumLsetCodes] = {
    /*A*/ 1, /*C*/ 2, /*G*/ 3, /*T*/ 4, /*λ*/ 0};
}  // namespace

PairGenerator::PairGenerator(const bio::EstSet& ests,
                             const std::vector<gst::Tree>& forest,
                             std::uint32_t psi)
    : forest_(forest), psi_(psi) {
  for (const auto& t : forest_) {
    ESTCLUST_CHECK_MSG(
        psi_ >= t.prefix_depth,
        "psi must be >= the GST bucket window w (suffixes shorter than w "
        "were dropped)");
  }
  // One pass numbers the nodes globally, builds the depth histogram of
  // the nodes to process and marks the orphans: processed nodes whose
  // parent never is (bucket roots and children of internal nodes shallower
  // than psi). Their lsets are released right after they are processed.
  node_base_.reserve(forest_.size());
  std::uint64_t total = 0;
  for (const auto& t : forest_) {
    node_base_.push_back(static_cast<std::uint32_t>(total));
    total += t.size();
  }
  ESTCLUST_CHECK_MSG(total < kLeafRun, "forest too large for 32-bit slots");
  slot_of_.assign(total, kNoSlot);
  std::vector<std::uint32_t> at_depth;  // at_depth[d - psi]: nodes of depth d
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    if (tree.empty()) continue;
    std::uint32_t* slot_of = slot_of_.data() + node_base_[t];
    slot_of[0] = kOrphan;
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      const std::uint32_t d = tree.depth(v);
      if (d >= psi_) {
        if (d - psi_ >= at_depth.size()) at_depth.resize(d - psi_ + 1, 0);
        ++at_depth[d - psi_];
      } else {
        tree.for_each_child(v, [&](std::uint32_t u) { slot_of[u] = kOrphan; });
      }
    }
  }
  // Stable counting sort on descending depth: trees ascending, nodes
  // descending within a tree, so equal depths keep (tree asc, node desc)
  // and a $-leaf (which ties its parent's depth) precedes its parent.
  std::uint32_t next = 0;
  for (std::size_t i = at_depth.size(); i-- > 0;) {
    const std::uint32_t n = at_depth[i];
    at_depth[i] = next;
    next += n;
  }
  order_.resize(next);
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    for (std::uint32_t v = tree.size(); v-- > 0;) {
      const std::uint32_t d = tree.depth(v);
      if (d >= psi_) order_[at_depth[d - psi_]++] = {t, v};
    }
  }
  mark_.assign(ests.num_strings(), 0);
}

std::uint32_t PairGenerator::take_slot() {
  if (free_slots_.empty()) {
    runs_.emplace_back();
    return static_cast<std::uint32_t>(runs_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void PairGenerator::return_slot(std::uint32_t slot) {
  std::vector<std::uint32_t>& run = runs_[slot];
  run.clear();
  if (run.capacity() > kMaxRetainedCells) {
    held_cells_ -= static_cast<std::uint32_t>(run.capacity());
    std::vector<std::uint32_t>().swap(run);
  }
  free_slots_.push_back(slot);
}

void PairGenerator::note_lset_bytes() {
  const std::uint64_t bytes =
      std::uint64_t{held_cells_} * sizeof(std::uint32_t) +
      runs_.size() * sizeof(runs_[0]) +
      sorted_.capacity() * sizeof(gst::SuffixOcc) +
      seg_.capacity() * sizeof(std::uint32_t) +
      children_.capacity() * sizeof(ChildRun);
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

void PairGenerator::release_lsets() {
  for (auto& run : runs_) std::vector<std::uint32_t>().swap(run);
  held_cells_ = 0;
  std::vector<gst::SuffixOcc>().swap(sorted_);
  std::vector<std::uint32_t>().swap(seg_);
  std::vector<ChildRun>().swap(children_);
}

bool PairGenerator::exhausted() const {
  return buffer_.empty() && next_node_ == order_.size();
}

std::uint64_t PairGenerator::take_work_units() {
  std::uint64_t w = work_since_take_;
  work_since_take_ = 0;
  return w;
}

std::size_t PairGenerator::next_batch(std::size_t max_pairs,
                                      std::vector<PromisingPair>& out) {
  while (buffer_.size() < max_pairs && next_node_ < order_.size()) {
    process_next_node();
  }
  std::size_t count = std::min(max_pairs, buffer_.size());
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(buffer_.front());
    buffer_.pop_front();
  }
  return count;
}

void PairGenerator::process_next_node() {
  // The depth-major walk changes tree at almost every step, so each node's
  // records are cold. order_ is known in advance: prefetch in stages, each
  // reading only addresses an earlier stage brought in — the tree header,
  // then the node record and its slot entry, then the occurrence of the
  // node's last leaf (a leaf's own; an internal node's leaf children sit
  // just before it). Kept in this body: GCC drops calls to a helper or
  // lambda that only prefetches.
  const std::size_t i = next_node_;
  const std::size_t n = order_.size();
  if (i + 16 < n) __builtin_prefetch(&forest_[order_[i + 16].tree]);
  if (i + 8 < n) {
    const NodeRef r = order_[i + 8];
    __builtin_prefetch(forest_[r.tree].nodes.data() + r.node);
    __builtin_prefetch(slot_of_.data() + node_base_[r.tree] + r.node);
  }
  if (i + 4 < n) {
    const NodeRef r = order_[i + 4];
    const gst::Tree& t = forest_[r.tree];
    __builtin_prefetch(t.occs.data() +
                       t.nodes[t.nodes[r.node].rightmost].occ_begin);
  }

  const NodeRef ref = order_[next_node_++];
  const gst::Tree& t = forest_[ref.tree];
  std::uint32_t& mapped = slot_of_[node_base_[ref.tree] + ref.node];
  ++stats_.nodes_processed;
  if (t.is_leaf(ref.node)) {
    // A leaf's strings are distinct (two suffixes of one string are never
    // equal), so its run is its occurrence range as stored: the parent
    // reads it from the tree, and the leaf holds no slot.
    const gst::Node& node = t.nodes[ref.node];
    if (node.occ_end - node.occ_begin == 1) {
      // One occurrence emits nothing; its work is counted now.
      ++work_since_take_;
      ++stats_.lset_work;
    } else {
      process_leaf(t, ref.node);
      note_lset_bytes();
    }
    if (mapped != kOrphan) mapped = kLeafRun;
  } else {
    const std::uint32_t slot = take_slot();
    process_internal(t, ref.tree, ref.node, runs_[slot]);
    note_lset_bytes();
    // The run is only needed by the parent, which concatenates it away and
    // returns the slot. An orphan's parent is never processed, so its run
    // retires now. Live entries are therefore bounded by the occurrences
    // below the frontier — linear in input size.
    if (mapped == kOrphan) {
      return_slot(slot);
    } else {
      mapped = slot;
    }
  }
  if (next_node_ == order_.size()) release_lsets();
}

void PairGenerator::scatter(const gst::Tree& t, const std::uint32_t* run,
                            std::uint32_t from, std::uint32_t to,
                            std::uint32_t* seg) {
  for (std::uint32_t i = from; i < to; ++i) {
    const std::uint32_t k = run ? run[i] : i;
    sorted_[seg[t.occs[k].lext]++] = t.occs[k];
  }
}

void PairGenerator::process_leaf(const gst::Tree& t, std::uint32_t v) {
  // The leaf's lsets are its occurrences split by class: segment c of
  // sorted_ is [seg_[c], seg_[c + 1]).
  const gst::Node& node = t.nodes[v];
  const std::uint32_t n = node.occ_end - node.occ_begin;
  work_since_take_ += n;
  stats_.lset_work += n;
  seg_.assign(bio::kNumLsetCodes + 2, 0);
  for (std::uint32_t k = node.occ_begin; k < node.occ_end; ++k) {
    ++seg_[t.occs[k].lext + 2u];
  }
  for (std::size_t c = 2; c < seg_.size(); ++c) seg_[c] += seg_[c - 1];
  sorted_.resize(n);
  scatter(t, nullptr, node.occ_begin, node.occ_end, seg_.data() + 1);

  const std::uint32_t len = t.depth(v);
  // Pairs across classes (c1 < c2) and within λ.
  for (int c1 = 0; c1 < bio::kNumLsetCodes; ++c1) {
    for (int c2 = c1 + 1; c2 < bio::kNumLsetCodes; ++c2) {
      const auto a = static_cast<std::size_t>(c1);
      const auto b = static_cast<std::size_t>(c2);
      if (kClassOrder[c1] < kClassOrder[c2]) {
        cross_product(seg_[a], seg_[a + 1], seg_[b], seg_[b + 1], len);
      } else {
        cross_product(seg_[b], seg_[b + 1], seg_[a], seg_[a + 1], len);
      }
    }
  }
  self_product(seg_[bio::kLambdaCode], seg_[bio::kLambdaCode + 1], len);
}

void PairGenerator::process_internal(const gst::Tree& t,
                                     std::uint32_t tree_idx, std::uint32_t v,
                                     std::vector<std::uint32_t>& run) {
  // The children's runs, in child order.
  const std::uint32_t* slot_of = slot_of_.data() + node_base_[tree_idx];
  children_.clear();
  std::uint32_t total = 0;
  t.for_each_child(v, [&](std::uint32_t u) {
    const gst::Node& c = t.nodes[u];
    if (slot_of[u] == kLeafRun) {
      children_.push_back({nullptr, c.occ_begin, c.occ_end - c.occ_begin});
    } else {
      ESTCLUST_DCHECK(slot_of[u] < runs_.size());
      const auto& r = runs_[slot_of[u]];
      children_.push_back(
          {r.data(), 0, static_cast<std::uint32_t>(r.size())});
    }
    total += children_.back().size;
  });
  stats_.lset_work += total;
  work_since_take_ += total;

  // Step 1: eliminate duplicate strings across the children's runs. A
  // child holds each string once, so each string keeps exactly one entry —
  // its first in child order, i.e. its leftmost occurrence below v. The
  // survivors, in scan order, are v's run; their (child, class) counts go
  // to seg_[g * kNumLsetCodes + c + 2].
  const std::uint64_t token = ++token_;
  const std::size_t groups = children_.size();
  seg_.assign(groups * bio::kNumLsetCodes + 2, 0);
  const std::size_t cap = run.capacity();
  run.reserve(total);
  held_cells_ += static_cast<std::uint32_t>(run.capacity() - cap);
  for (std::size_t g = 0; g < groups; ++g) {
    ChildRun& c = children_[g];
    std::uint32_t* count = seg_.data() + g * bio::kNumLsetCodes + 2;
    for (std::uint32_t i = 0; i < c.size; ++i) {
      const std::uint32_t k = c.idx ? c.idx[i] : c.begin + i;
      const bio::StringId sid = t.occs[k].sid;
      if (mark_[sid] == token) continue;
      mark_[sid] = token;
      run.push_back(k);
      ++count[t.occs[k].lext];
    }
    c.kept_end = static_cast<std::uint32_t>(run.size());
  }

  // Step 2: counting-sort the survivors into (child, class) segments:
  // segment (g, c) of sorted_ is [seg_[j], seg_[j + 1]) for j = g·5 + c.
  for (std::size_t j = 2; j < seg_.size(); ++j) seg_[j] += seg_[j - 1];
  sorted_.resize(run.size());
  std::uint32_t from = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    scatter(t, run.data(), from, children_[g].kept_end,
            seg_.data() + g * bio::kNumLsetCodes + 1);
    from = children_[g].kept_end;
  }

  // Step 3: cross-child cartesian products with c1 != c2 or c1 = c2 = λ.
  const std::uint32_t len = t.depth(v);
  for (std::size_t k = 0; k < groups; ++k) {
    const std::uint32_t* sk = seg_.data() + k * bio::kNumLsetCodes;
    for (std::size_t l = k + 1; l < groups; ++l) {
      const std::uint32_t* sl = seg_.data() + l * bio::kNumLsetCodes;
      for (int c1 = 0; c1 < bio::kNumLsetCodes; ++c1) {
        for (int c2 = 0; c2 < bio::kNumLsetCodes; ++c2) {
          if (c1 == c2 && c1 != bio::kLambdaCode) continue;
          cross_product(sk[c1], sk[c1 + 1], sl[c2], sl[c2 + 1], len);
        }
      }
    }
  }

  // Step 4: v's run is the union; the children's slots retire.
  t.for_each_child(v, [&](std::uint32_t u) {
    if (slot_of[u] != kLeafRun) return_slot(slot_of[u]);
  });
}

void PairGenerator::cross_product(std::uint32_t b1, std::uint32_t e1,
                                  std::uint32_t b2, std::uint32_t e2,
                                  std::uint32_t len) {
  for (std::uint32_t i = b1; i < e1; ++i) {
    for (std::uint32_t j = b2; j < e2; ++j) emit(sorted_[i], sorted_[j], len);
  }
}

void PairGenerator::self_product(std::uint32_t b, std::uint32_t e,
                                 std::uint32_t len) {
  for (std::uint32_t i = b; i < e; ++i) {
    for (std::uint32_t j = i + 1; j < e; ++j) {
      emit(sorted_[i], sorted_[j], len);
    }
  }
}

void PairGenerator::emit(const gst::SuffixOcc& e1, const gst::SuffixOcc& e2,
                         std::uint32_t len) {
  ++work_since_take_;
  gst::SuffixOcc lo = e1, hi = e2;
  if (bio::EstSet::est_of(lo.sid) > bio::EstSet::est_of(hi.sid)) {
    std::swap(lo, hi);
  }
  const bio::EstId i = bio::EstSet::est_of(lo.sid);
  const bio::EstId j = bio::EstSet::est_of(hi.sid);
  if (i == j) {
    // Both strings derive from one EST (self-repeat or palindromic match).
    ++stats_.discarded_self;
    return;
  }
  if (bio::EstSet::is_rc(lo.sid)) {
    // The equivalent pair with both strings complemented is generated at
    // the node whose path-label is the reverse complement of this one
    // (§3.2's duplicate discard rule).
    ++stats_.discarded_orientation;
    return;
  }
  PromisingPair p;
  p.a = i;
  p.b = j;
  p.b_rc = bio::EstSet::is_rc(hi.sid);
  p.match_len = len;
  p.a_pos = lo.pos;
  p.b_pos = hi.pos;
  buffer_.push_back(p);
  ++stats_.pairs_emitted;
}

std::uint64_t PairGenerator::construction_sort_units() const {
  std::uint64_t k = 0;
  for (const auto& t : forest_) k += t.size();
  return k * (1 + static_cast<std::uint64_t>(
                      std::log2(static_cast<double>(k + 1))));
}

std::uint64_t PairGenerator::index_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& t : forest_) bytes += t.storage_bytes();
  return bytes;
}

}  // namespace estclust::pairgen
