// Pluggable promising-pair backends behind one streaming interface.
//
// The paper's GST walk (generator.hpp) is one way to produce the §3.2
// promising-pair stream; a k-mer inverted index (kmer.hpp) and a sorted
// array of owned seed starts (fm.hpp) are two more. Every backend honours
// the same contract (DESIGN.md §11):
//
//   * pairs stream out in decreasing maximal-common-substring length,
//     duplicate-free, invariant under next_batch batch sizes;
//   * each emitted anchor is a *maximal* common substring of length >= psi
//     in str(2a) × str(2b + b_rc), normalized by the §3.2 orientation and
//     self-pair discard rules;
//   * a rank emits exactly the pairs whose anchor's w-prefix bucket it
//     owns under the deterministic §3.1 assignment, so the union over
//     ranks is independent of p and a dead rank's stream can be
//     regenerated offline;
//   * work is surfaced for virtual-time charging: construction_sort_units
//     once at setup (charged to sort_op by the driver), take_work_units
//     incrementally as batches drain (charged to pair_op).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"

namespace estclust::pairgen {

/// A generated promising pair. `a` is always the smaller EST id in forward
/// orientation (the duplicate-orientation discard rule of §3.2); `b_rc`
/// says whether the second EST participates in reverse complement. The
/// anchor (a_pos, b_pos, match_len) locates the maximal common substring in
/// str(2a) and str(2b + b_rc) for the anchored aligner.
struct PromisingPair {
  bio::EstId a = 0;
  bio::EstId b = 0;
  bool b_rc = false;
  std::uint32_t match_len = 0;
  std::uint32_t a_pos = 0;
  std::uint32_t b_pos = 0;
};

/// Counters for Fig 7 and for virtual-time charging.
struct GenStats {
  std::uint64_t pairs_emitted = 0;
  std::uint64_t discarded_orientation = 0;  ///< smaller-EST string was rc
  std::uint64_t discarded_self = 0;         ///< both strings from one EST
  std::uint64_t nodes_processed = 0;
  std::uint64_t lset_work = 0;  ///< entries touched (dedup + products)
};

/// Candidate-filter backend selection (CLI `--pair-source`).
enum class Backend : std::uint8_t {
  kGst = 0,   ///< distributed GST node walk (the paper's Algorithm 1)
  kKmer = 1,  ///< 2-bit-packed k-mer inverted index, shared-seed extension
  kFm = 2,    ///< owned seed starts sorted over packed text (name kept)
};

/// "gst" | "kmer" | "fm".
std::string_view backend_name(Backend b);

/// Parses a backend name; nullopt on anything unrecognised.
std::optional<Backend> parse_backend(std::string_view name);

/// All known backends, in CLI order (test/bench matrix iteration).
inline constexpr Backend kAllBackends[] = {Backend::kGst, Backend::kKmer,
                                           Backend::kFm};

/// Batched promising-pair production under the decreasing-overlap-order
/// contract, plus GenStats accounting. See the file comment for the
/// obligations every implementation carries.
class PairSource {
 public:
  virtual ~PairSource() = default;

  /// Appends up to `max_pairs` pairs to `out`. Returns the number
  /// appended; 0 means the stream is exhausted.
  virtual std::size_t next_batch(std::size_t max_pairs,
                                 std::vector<PromisingPair>& out) = 0;

  /// True once the stream has been fully drained.
  virtual bool exhausted() const = 0;

  virtual const GenStats& stats() const = 0;

  /// Work units performed since the last call (charged to pair_op by the
  /// driver as batches drain).
  virtual std::uint64_t take_work_units() = 0;

  /// Deterministic one-off setup work (index build / node sorting),
  /// charged to sort_op by the driver right after construction.
  virtual std::uint64_t construction_sort_units() const = 0;

  /// Bytes held by the backend's candidate index (Table-1-style space
  /// comparison; excludes the EST text itself).
  virtual std::uint64_t index_bytes() const = 0;
};

/// Builds a pair source over the share of the workload `forest` holds.
/// The GST backend wraps `forest` directly (and borrows it; it must
/// outlive the source). kmer/fm read only the forest's bucket ids and
/// index those buckets, so all three backends emit the same slice of the
/// global candidate set. The pace clustering entry points never build a
/// forest for kmer/fm: they call make_pair_source_for_buckets with
/// gst::owned_bucket_ids, which yields the same ids without the forest.
/// `window` is the §3.1 bucketing prefix length w (needed when `forest`
/// is empty).
std::unique_ptr<PairSource> make_pair_source(
    Backend backend, const bio::EstSet& ests,
    const std::vector<gst::Tree>& forest, std::uint32_t window,
    std::uint32_t psi);

/// kmer/fm only: builds a source from an explicit owned-bucket set, as
/// computed by gst::owned_bucket_ids without refining any trees. Every
/// pace clustering entry point and the master's rebuild-after-death path
/// construct the seed backends this way. `owned_buckets` must be sorted ascending.
std::unique_ptr<PairSource> make_pair_source_for_buckets(
    Backend backend, const bio::EstSet& ests,
    std::vector<std::uint64_t> owned_buckets, std::uint32_t window,
    std::uint32_t psi);

}  // namespace estclust::pairgen
