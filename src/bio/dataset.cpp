#include "bio/dataset.hpp"

#include "util/check.hpp"

namespace estclust::bio {

EstSet::EstSet(std::vector<Sequence> ests) : ests_(std::move(ests)) {
  rc_.reserve(ests_.size());
  for (auto& e : ests_) {
    ESTCLUST_CHECK_MSG(!e.bases.empty(), "empty EST '" << e.id << "'");
    ESTCLUST_CHECK_MSG(all_valid_bases(e.bases),
                       "EST '" << e.id << "' has non-ACGT characters");
    total_chars_ += e.bases.size();
    rc_.push_back(reverse_complement(e.bases));
  }
}

double EstSet::average_length() const {
  if (ests_.empty()) return 0.0;
  return static_cast<double>(total_chars_) /
         static_cast<double>(ests_.size());
}

}  // namespace estclust::bio
