#pragma once
/// \file epoch_set.hpp
/// \brief A set of dense slots that empties in O(1) (DESIGN.md F41).
///
/// Each slot stores the epoch it was last inserted in, and clear() starts a
/// new epoch, so a set reused across runs costs what each run inserts, not
/// one zeroing pass over every slot. The stamps are 32-bit, so only every
/// 2^32 - 1st clear() zeroes the table.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbmem {

class EpochSet {
 public:
  /// Empty the set and make slots [0, n) usable; call it before the first
  /// use. Only growing the table can throw, and then the set is as it was.
  void clear(std::size_t n) {
    if (epoch_of_.size() < n) epoch_of_.resize(n, 0);
    if (++epoch_ == 0) {  // the stamps ran out: start over from epoch 1
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Insert slot \p i; false when it was already in the set.
  bool insert(std::size_t i) {
    if (epoch_of_[i] == epoch_) return false;
    epoch_of_[i] = epoch_;
    return true;
  }

  bool contains(std::size_t i) const { return epoch_of_[i] == epoch_; }

 private:
  std::vector<std::uint32_t> epoch_of_;  // 0: never inserted
  std::uint32_t epoch_ = 0;
};

}  // namespace lbmem
