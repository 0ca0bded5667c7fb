#include "util/cell_counts.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace pandas::util {

std::size_t CellCounts::find(std::uint32_t key) const noexcept {
  if (slots_.empty()) return kNone;
  for (std::size_t i = home(key);; i = (i + 1) & mask()) {
    const std::uint32_t s = slots_[i];
    if (s == 0) return kNone;
    if ((s & kKeyMask) == key) return i;
  }
}

std::uint32_t CellCounts::increment(std::uint32_t key) {
  if (const std::size_t i = find(key); i != kNone) {
    const std::uint32_t count = slots_[i] >> kKeyBits;
    if (count == kMaxCount) return count;
    slots_[i] += 1u << kKeyBits;
    return count + 1;
  }
  if (2 * (size_ + 1) > slots_.size()) grow();
  std::size_t i = home(key);
  while (slots_[i] != 0) i = (i + 1) & mask();
  slots_[i] = (1u << kKeyBits) | key;
  ++size_;
  return 1;
}

void CellCounts::decrement(std::uint32_t key) noexcept {
  const std::size_t i = find(key);
  if (i == kNone) return;
  if ((slots_[i] >> kKeyBits) == 1) {
    erase_at(i);
  } else {
    slots_[i] -= 1u << kKeyBits;
  }
}

void CellCounts::erase(std::uint32_t key) noexcept {
  if (const std::size_t i = find(key); i != kNone) erase_at(i);
}

void CellCounts::erase_at(std::size_t i) noexcept {
  // Backward shift: walk the cluster after i and pull back every entry whose
  // home does not lie cyclically in (i, j], so no probe chain is broken.
  for (std::size_t j = (i + 1) & mask(); slots_[j] != 0; j = (j + 1) & mask()) {
    const std::size_t from_home = (j - home(slots_[j] & kKeyMask)) & mask();
    if (from_home >= ((j - i) & mask())) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = 0;
  --size_;
}

void CellCounts::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), 0u);
  size_ = 0;
}

void CellCounts::grow() {
  const std::size_t capacity = std::max(kMinCapacity, 2 * slots_.size());
  const std::vector<std::uint32_t> old =
      std::exchange(slots_, std::vector<std::uint32_t>(capacity));
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const std::uint32_t s : old) {
    if (s == 0) continue;
    std::size_t i = home(s & kKeyMask);
    while (slots_[i] != 0) i = (i + 1) & mask();
    slots_[i] = s;
  }
}

}  // namespace pandas::util
