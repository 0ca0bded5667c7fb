#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

/// Fixed-capacity bitmap sized for one line (row or column) of the extended
/// blob matrix. Danksharding's extended blob is 512x512 cells, so a line has
/// at most 512 cells; smaller (test-scale) matrices simply use a prefix.
///
/// The simulator tracks which cells of a line a node currently holds with one
/// of these per assigned line; presence-tracking (rather than moving payload
/// bytes) is exactly how the paper's PeerSim simulator models cells too.
namespace pandas::util {

class Bitmap512 {
 public:
  static constexpr std::uint32_t kCapacity = 512;

  constexpr Bitmap512() noexcept = default;

  void set(std::uint32_t i) noexcept {
    words_[i >> 6] |= (1ULL << (i & 63));
  }
  void reset(std::uint32_t i) noexcept {
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  [[nodiscard]] bool test(std::uint32_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void clear() noexcept { words_.fill(0); }

  /// Number of set bits.
  [[nodiscard]] std::uint32_t count() const noexcept {
    std::uint32_t c = 0;
    for (auto w : words_) c += static_cast<std::uint32_t>(std::popcount(w));
    return c;
  }

  /// Number of set bits among the first `limit` positions.
  [[nodiscard]] std::uint32_t count_prefix(std::uint32_t limit) const noexcept;

  /// Sets bits [0, limit).
  void set_prefix(std::uint32_t limit) noexcept;

  /// Calls `f(index)` for each set bit among the first `limit` positions, in
  /// ascending order, without materializing an index list.
  template <class F>
  void for_each_set(std::uint32_t limit, F&& f) const {
    for (std::uint32_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
        const std::uint32_t idx =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        if (idx >= limit) return;
        f(idx);
      }
    }
  }

  /// True if any bit in [lo, hi) is set (word-level; hi <= kCapacity).
  [[nodiscard]] bool any_in(std::uint32_t lo, std::uint32_t hi) const noexcept {
    bool any = false;
    for_each_masked_word(lo, hi, [&](std::uint64_t w) {
      any = any || w != 0;
      return !any;
    });
    return any;
  }

  /// Number of set bits in [lo, hi) (word-level; hi <= kCapacity).
  [[nodiscard]] std::uint32_t count_in(std::uint32_t lo,
                                       std::uint32_t hi) const noexcept {
    std::uint32_t c = 0;
    for_each_masked_word(lo, hi, [&](std::uint64_t w) {
      c += static_cast<std::uint32_t>(std::popcount(w));
      return true;
    });
    return c;
  }

  /// Indices of set bits among the first `limit` positions.
  [[nodiscard]] std::vector<std::uint32_t> set_bits(std::uint32_t limit = kCapacity) const;

  /// Indices of clear bits among the first `limit` positions.
  [[nodiscard]] std::vector<std::uint32_t> clear_bits(std::uint32_t limit) const;

  Bitmap512& operator|=(const Bitmap512& o) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  Bitmap512& operator&=(const Bitmap512& o) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  [[nodiscard]] bool operator==(const Bitmap512& o) const noexcept = default;

  /// True if every set bit of `o` is also set here.
  [[nodiscard]] bool contains(const Bitmap512& o) const noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((o.words_[i] & ~words_[i]) != 0) return false;
    }
    return true;
  }

  /// Count of bits set in `this` but not in `o`, within the first `limit`.
  [[nodiscard]] std::uint32_t count_minus(const Bitmap512& o,
                                          std::uint32_t limit) const noexcept;

  [[nodiscard]] const std::array<std::uint64_t, 8>& words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::array<std::uint64_t, 8>& words() noexcept { return words_; }

 private:
  /// Calls `f(word & mask)` for each word overlapping [lo, hi), with bits
  /// outside the range masked off, until `f` returns false.
  template <class F>
  void for_each_masked_word(std::uint32_t lo, std::uint32_t hi, F&& f) const {
    if (lo >= hi) return;
    const std::uint32_t last = (hi - 1) >> 6;
    for (std::uint32_t w = lo >> 6; w <= last; ++w) {
      std::uint64_t mask = ~0ULL;
      if (w == lo >> 6) mask &= ~0ULL << (lo & 63);
      if (w == last) mask &= ~0ULL >> (63 - ((hi - 1) & 63));
      if (!f(words_[w] & mask)) return;
    }
  }

  std::array<std::uint64_t, 8> words_{};
};

}  // namespace pandas::util
