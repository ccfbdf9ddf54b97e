#include "pairgen/fm.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "bio/alphabet.hpp"
#include "gst/builder.hpp"

namespace estclust::pairgen {

namespace {

/// The strings of S that can hold a seed, concatenated in the
/// bio::PackedView layout (32 bases per word, LSB-first) with a trailing
/// pad word, so a k-base read at any start stays inside the buffer.
/// Non-ACGT bytes pack as 0; no kept seed covers one.
struct PackedText {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> start;  ///< text offset of s_sid

  /// s_sid[pos, pos+k) as one word, base pos in the low bits. Not
  /// lexicographic, but one fixed encoding, which is all grouping needs:
  /// the final record sort is a total order.
  std::uint64_t key(const gst::SuffixOcc& o, std::uint64_t mask) const {
    const std::uint64_t at = start[o.sid] + o.pos;
    const std::uint64_t* w = words.data() + at / 32;
    const unsigned shift = static_cast<unsigned>(at % 32) * 2;
    std::uint64_t bits = w[0] >> shift;
    if (shift != 0) bits |= w[1] << (64 - shift);
    return bits & mask;
  }
};

}  // namespace

FmPairSource::FmPairSource(const bio::EstSet& ests,
                           std::vector<std::uint64_t> owned_buckets,
                           std::uint32_t window, std::uint32_t psi)
    : SeedPairSource(ests, std::move(owned_buckets), window, psi) {
  const std::uint32_t k = seed_len();
  const std::uint64_t mask =
      k == 32 ? ~std::uint64_t{0} : (std::uint64_t{1} << (2 * k)) - 1;

  PackedText text;
  text.start.assign(ests_.num_strings(), 0);
  std::uint64_t text_len = 0;
  for (bio::StringId sid = 0; sid < ests_.num_strings(); ++sid) {
    const std::size_t n = ests_.str(sid).size();
    if (n < k) continue;
    text.start[sid] = text_len;
    text_len += n;
  }
  text.words.assign(text_len / 32 + 2, 0);

  // One pass per string packs it and keeps every owned all-ACGT seed
  // start, in (sid, pos) order. As in KmerPairSource, owned-bucket seeds
  // cover exactly the owned anchors (k >= psi >= w).
  std::vector<gst::SuffixOcc> starts;
  for (bio::StringId sid = 0; sid < ests_.num_strings(); ++sid) {
    const auto s = ests_.str(sid);
    if (s.size() < k) continue;
    construction_units_ += s.size();
    std::uint64_t at = text.start[sid];
    std::uint32_t valid_from = 0;  // first start past the last non-ACGT byte
    for (std::uint32_t i = 0; i < s.size(); ++i, ++at) {
      const int code = bio::encode_base(s[i]);
      if (code < 0) {
        valid_from = i + 1;
      } else {
        text.words[at / 32] |= static_cast<std::uint64_t>(code)
                               << (at % 32 * 2);
      }
      if (i + 1 < k) continue;
      const std::uint32_t pos = i + 1 - k;  // the seed ending at i
      if (pos >= valid_from && owns_bucket(gst::bucket_of(s, pos, window_))) {
        starts.push_back({sid, pos});
      }
    }
  }
  starts_indexed_ = starts.size();
  text_bytes_ = (text.words.size() + text.start.size()) * sizeof(std::uint64_t);

  // In-place radix pass on the first six bases (American flag sort), then
  // a comparison sort inside each digit bin: equal keys share a digit, so
  // the result has every key's starts adjacent and in (sid, pos) order.
  constexpr std::uint64_t kDigitMask = (1u << 12) - 1;
  auto digit = [&](const gst::SuffixOcc& o) {
    return static_cast<std::size_t>(text.key(o, mask) & kDigitMask);
  };
  std::vector<std::size_t> bin_end(kDigitMask + 2, 0);
  for (const auto& o : starts) ++bin_end[digit(o) + 1];
  std::partial_sum(bin_end.begin(), bin_end.end(), bin_end.begin());
  std::vector<std::size_t> head(bin_end.begin(), bin_end.end() - 1);
  for (std::size_t d = 0; d <= kDigitMask; ++d) {
    while (head[d] < bin_end[d + 1]) {
      gst::SuffixOcc o = starts[head[d]];
      for (std::size_t od = digit(o); od != d; od = digit(o)) {
        std::swap(o, starts[head[od]++]);
      }
      starts[head[d]++] = o;
    }
  }
  for (std::size_t d = 0; d <= kDigitMask; ++d) {
    std::sort(starts.begin() + bin_end[d], starts.begin() + bin_end[d + 1],
              [&](const gst::SuffixOcc& a, const gst::SuffixOcc& b) {
                const std::uint64_t ka = text.key(a, mask);
                const std::uint64_t kb = text.key(b, mask);
                if (ka != kb) return ka < kb;
                if (a.sid != b.sid) return a.sid < b.sid;
                return a.pos < b.pos;
              });
  }
  construction_units_ += detail::sort_model_units(starts.size());

  // Each run of equal keys is one seed group, already in (sid, pos) order.
  const std::span<const gst::SuffixOcc> sorted(starts);
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint64_t key = text.key(sorted[i], mask);
    std::size_t j = i + 1;
    while (j < sorted.size() && text.key(sorted[j], mask) == key) ++j;
    if (j - i >= 2) process_group(sorted.subspan(i, j - i));
    i = j;
  }
  finalize_records();
}

std::uint64_t FmPairSource::index_bytes() const {
  return starts_indexed_ * sizeof(gst::SuffixOcc) + text_bytes_ +
         records_.capacity() * sizeof(PromisingPair);
}

}  // namespace estclust::pairgen
