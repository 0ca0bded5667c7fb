#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Small counters keyed by a cell of the extended blob matrix, in a flat
/// open-addressing table.
///
/// Each slot is one uint32_t: the count in the top 14 bits and an 18-bit
/// cell key (row, col < 512) in the low 18. A zero slot is empty, so a
/// stored count is always >= 1 and a count that drops to 0 erases its
/// entry — absent and zero read the same. Linear probing with
/// backward-shift erase (no tombstones, so probes never lengthen after
/// erases); the table doubles when it would pass load 1/2 and keeps its
/// capacity across clear().
///
/// The fetcher's per-cell redundancy counts (Algorithm 1's cumulative k_i
/// coverage) live here: ~4 bytes per slot instead of a node-based hash
/// map's per-entry allocation.
namespace pandas::util {

class CellCounts {
 public:
  static constexpr std::uint32_t kKeyBits = 18;
  static constexpr std::uint32_t kKeyMask = (1u << kKeyBits) - 1;
  /// Counts saturate here (14 bits).
  static constexpr std::uint32_t kMaxCount = (1u << (32 - kKeyBits)) - 1;

  /// Key of cell (row, col); both must be < 512.
  [[nodiscard]] static constexpr std::uint32_t key(std::uint16_t row,
                                                   std::uint16_t col) noexcept {
    return (static_cast<std::uint32_t>(row) << 9) | col;
  }

  /// Count for `key` (0 when absent).
  [[nodiscard]] std::uint32_t get(std::uint32_t key) const noexcept {
    const std::size_t i = find(key);
    return i == kNone ? 0 : slots_[i] >> kKeyBits;
  }

  /// Adds one (saturating at kMaxCount); returns the new count.
  std::uint32_t increment(std::uint32_t key);

  /// Subtracts one, erasing the entry when it reaches 0. No-op if absent.
  void decrement(std::uint32_t key) noexcept;

  /// Removes `key`'s entry, if any.
  void erase(std::uint32_t key) noexcept;

  /// Removes every entry; the capacity is kept for reuse.
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(std::uint32_t key) const noexcept {
    return (key * 0x9E3779B1u) >> shift_;
  }
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Slot holding `key`, or kNone.
  [[nodiscard]] std::size_t find(std::uint32_t key) const noexcept;
  void erase_at(std::size_t i) noexcept;
  void grow();

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 32;  // 32 - log2(capacity)
};

}  // namespace pandas::util
