#include "util/bitmap.h"

namespace pandas::util {

std::uint32_t Bitmap512::count_prefix(std::uint32_t limit) const noexcept {
  if (limit >= kCapacity) return count();
  std::uint32_t c = 0;
  const std::uint32_t full_words = limit >> 6;
  for (std::uint32_t i = 0; i < full_words; ++i) {
    c += static_cast<std::uint32_t>(std::popcount(words_[i]));
  }
  const std::uint32_t rem = limit & 63;
  if (rem != 0) {
    const std::uint64_t mask = (1ULL << rem) - 1;
    c += static_cast<std::uint32_t>(std::popcount(words_[full_words] & mask));
  }
  return c;
}

void Bitmap512::set_prefix(std::uint32_t limit) noexcept {
  if (limit > kCapacity) limit = kCapacity;
  const std::uint32_t full_words = limit >> 6;
  for (std::uint32_t i = 0; i < full_words; ++i) words_[i] = ~0ULL;
  const std::uint32_t rem = limit & 63;
  if (rem != 0) words_[full_words] |= (1ULL << rem) - 1;
}

std::vector<std::uint32_t> Bitmap512::set_bits(std::uint32_t limit) const {
  std::vector<std::uint32_t> out;
  out.reserve(count_prefix(limit));
  for_each_set(limit, [&](std::uint32_t idx) { out.push_back(idx); });
  return out;
}

std::vector<std::uint32_t> Bitmap512::clear_bits(std::uint32_t limit) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < limit; ++i) {
    if (!test(i)) out.push_back(i);
  }
  return out;
}

std::uint32_t Bitmap512::count_minus(const Bitmap512& o,
                                     std::uint32_t limit) const noexcept {
  Bitmap512 diff = *this;
  for (std::size_t i = 0; i < diff.words_.size(); ++i) {
    diff.words_[i] &= ~o.words_[i];
  }
  return diff.count_prefix(limit);
}

}  // namespace pandas::util
