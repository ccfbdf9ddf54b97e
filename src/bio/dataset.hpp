// EstSet: the input universe for clustering.
//
// Following §3.1, the set S = {s_0, ..., s_{2n-1}} contains each EST e_i and
// its reverse complement ē_i, because a gene may lie on either DNA strand.
// We use 0-based string ids (sid): sid 2i is e_i, sid 2i+1 is ē_i.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bio/sequence.hpp"
#include "util/check.hpp"

namespace estclust::bio {

using EstId = std::uint32_t;     ///< index of an EST, 0..n-1
using StringId = std::uint32_t;  ///< index into S, 0..2n-1

/// Immutable collection of n ESTs plus materialized reverse complements.
class EstSet {
 public:
  EstSet() = default;
  explicit EstSet(std::vector<Sequence> ests);

  std::size_t num_ests() const { return ests_.size(); }        ///< n
  std::size_t num_strings() const { return 2 * ests_.size(); }  ///< 2n

  /// Total characters over all ESTs (N in the paper; excludes the
  /// materialized reverse complements).
  std::size_t total_est_chars() const { return total_chars_; }

  /// Total characters over S (2N).
  std::size_t total_string_chars() const { return 2 * total_chars_; }

  /// Average EST length l = N/n (0 when empty).
  double average_length() const;

  const Sequence& est(EstId i) const { return ests_[i]; }

  /// The string s_sid: forward EST for even sid, reverse complement for odd.
  /// Inline: every index build and extension loop calls it per suffix.
  std::string_view str(StringId sid) const {
    ESTCLUST_DCHECK(sid < num_strings());
    const EstId i = est_of(sid);
    return is_rc(sid) ? std::string_view(rc_[i])
                      : std::string_view(ests_[i].bases);
  }

  /// EST that string sid derives from.
  static EstId est_of(StringId sid) { return sid / 2; }

  /// True when sid refers to the reverse-complemented form.
  static bool is_rc(StringId sid) { return (sid & 1u) != 0; }

  /// sid of the opposite-orientation string of the same EST.
  static StringId mate(StringId sid) { return sid ^ 1u; }

  static StringId forward_sid(EstId i) { return 2 * i; }
  static StringId rc_sid(EstId i) { return 2 * i + 1; }

 private:
  std::vector<Sequence> ests_;
  std::vector<std::string> rc_;  // rc_[i] = reverse complement of est i
  std::size_t total_chars_ = 0;
};

}  // namespace estclust::bio
