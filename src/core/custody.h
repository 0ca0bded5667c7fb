#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/assignment.h"
#include "core/params.h"
#include "net/messages.h"
#include "util/bitmap.h"

/// Per-slot custody state of one node: which cells of its assigned lines it
/// currently holds, plus any extra cells obtained outside those lines (its
/// random samples). Tracks erasure-code reconstruction: once an assigned
/// line holds >= k of its n cells, the remaining cells are recovered locally
/// (§6.2 / Algorithm 1 lines 25-27), which can cascade into crossing lines.
namespace pandas::core {

class CustodyState {
 public:
  CustodyState() = default;
  CustodyState(const ProtocolParams& params, AssignedLines lines);

  /// Outcome of ingesting a batch of cells.
  struct AddResult {
    std::uint32_t new_cells = 0;        ///< previously unseen cells
    std::uint32_t duplicates = 0;       ///< already-held cells received again
    std::uint32_t reconstructed = 0;    ///< cells recovered via the code
    /// Lines that became complete during this ingest.
    std::vector<net::LineRef> completed;
    /// Every cell that became held (received + reconstructed), for
    /// downstream bookkeeping (fetch set, pending queries, samples).
    std::vector<net::CellId> obtained;
  };

  /// Ingests received cells. Cells outside the assigned lines are kept as
  /// "extras" when `keep_extras` (used for sample cells).
  AddResult add_cells(std::span<const net::CellId> cells, bool keep_extras);

  [[nodiscard]] bool has_cell(net::CellId cell) const noexcept {
    return held_in(cell, line_slot(net::LineRef::row(cell.row)),
                   line_slot(net::LineRef::col(cell.col)));
  }

  [[nodiscard]] bool line_complete(net::LineRef line) const noexcept;
  [[nodiscard]] std::uint32_t line_count(net::LineRef line) const noexcept;
  [[nodiscard]] bool all_lines_complete() const noexcept {
    return complete_lines_ == line_bitmaps_.size();
  }
  [[nodiscard]] std::uint32_t complete_line_count() const noexcept {
    return complete_lines_;
  }

  [[nodiscard]] const AssignedLines& assignment() const noexcept { return lines_; }

  /// Total distinct assigned cells currently held (excludes extras).
  [[nodiscard]] std::uint64_t held_cells() const noexcept;

 private:
  /// Index into line_bitmaps_ for an assigned line; -1 if not assigned.
  /// O(1) through the dense slot_of_ table.
  [[nodiscard]] int line_slot(net::LineRef line) const noexcept {
    const std::size_t i = line.kind == net::LineRef::Kind::kRow
                              ? line.index
                              : util::Bitmap512::kCapacity + line.index;
    return line.index < util::Bitmap512::kCapacity
               ? static_cast<int>(slot_of_[i]) - 1
               : -1;
  }
  [[nodiscard]] net::LineRef slot_line(std::size_t slot) const noexcept;
  /// has_cell with the cell's row and column slots already looked up.
  [[nodiscard]] bool held_in(net::CellId cell, int row_slot,
                             int col_slot) const noexcept {
    if (row_slot >= 0 && line_bitmaps_[row_slot].test(cell.col)) return true;
    if (col_slot >= 0) return line_bitmaps_[col_slot].test(cell.row);
    // extras_ only holds cells outside every assigned line.
    return row_slot < 0 && extras_.count(cell.packed()) != 0;
  }

  /// Marks one cell inside an assigned line's bitmap; returns true if new.
  bool mark(std::size_t slot, std::uint32_t pos) noexcept;

  /// Completes a line (sets all n bits), recording newly obtained cells and
  /// cascading into crossing assigned lines. Appends to `result`.
  void complete_line(std::size_t slot, AddResult& result);

  ProtocolParams params_;
  AssignedLines lines_;
  std::vector<util::Bitmap512> line_bitmaps_;  // rows then cols
  std::vector<bool> line_complete_;
  std::uint32_t complete_lines_ = 0;
  /// Dense line -> 1 + slot in line_bitmaps_ (0 = not assigned): rows, then
  /// columns, Bitmap512::kCapacity entries each.
  std::array<std::uint8_t, 2 * util::Bitmap512::kCapacity> slot_of_{};
  /// Packed CellIds held outside every assigned line (samples). A cell on
  /// an assigned line is never stored here.
  std::unordered_set<std::uint32_t> extras_;
};

}  // namespace pandas::core
