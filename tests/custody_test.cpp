#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <set>

#include "core/custody.h"
#include "util/prng.h"

namespace pandas::core {
namespace {

ProtocolParams small_params() {
  ProtocolParams p;
  p.matrix_k = 4;
  p.matrix_n = 8;
  p.rows_per_node = 2;
  p.cols_per_node = 2;
  return p;
}

AssignedLines lines_rc(std::vector<std::uint16_t> rows,
                       std::vector<std::uint16_t> cols) {
  AssignedLines al;
  al.rows = std::move(rows);
  al.cols = std::move(cols);
  return al;
}

TEST(Custody, StartsEmpty) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1, 3}, {0, 5}));
  EXPECT_FALSE(cs.all_lines_complete());
  EXPECT_EQ(cs.complete_line_count(), 0u);
  EXPECT_EQ(cs.held_cells(), 0u);
  EXPECT_FALSE(cs.has_cell({1, 0}));
}

TEST(Custody, AddAssignedCells) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1, 3}, {0, 5}));
  const std::vector<net::CellId> cells{{1, 2}, {3, 7}, {6, 0}};
  const auto res = cs.add_cells(cells, false);
  EXPECT_EQ(res.new_cells, 3u);
  EXPECT_EQ(res.duplicates, 0u);
  EXPECT_TRUE(cs.has_cell({1, 2}));
  EXPECT_TRUE(cs.has_cell({3, 7}));
  EXPECT_TRUE(cs.has_cell({6, 0}));  // via column 0
  EXPECT_EQ(cs.line_count(net::LineRef::row(1)), 1u);
  EXPECT_EQ(cs.line_count(net::LineRef::col(0)), 1u);
}

TEST(Custody, DuplicatesCounted) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1}, {}));
  const std::vector<net::CellId> cells{{1, 2}};
  cs.add_cells(cells, false);
  const auto res = cs.add_cells(cells, false);
  EXPECT_EQ(res.new_cells, 0u);
  EXPECT_EQ(res.duplicates, 1u);
}

TEST(Custody, IntersectionCellCountedOnceAcrossIndexes) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1}, {2}));
  // (1,2) is both in row 1 and col 2.
  const std::vector<net::CellId> cells{{1, 2}};
  const auto res = cs.add_cells(cells, false);
  EXPECT_EQ(res.new_cells, 1u);
  EXPECT_EQ(cs.held_cells(), 1u);
  // Re-adding is one duplicate, not two.
  const auto res2 = cs.add_cells(cells, false);
  EXPECT_EQ(res2.duplicates, 1u);
  EXPECT_EQ(cs.held_cells(), 1u);
}

TEST(Custody, ExtrasKeptOnlyWhenRequested) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1}, {2}));
  const std::vector<net::CellId> stray{{5, 5}};
  auto res = cs.add_cells(stray, false);
  EXPECT_EQ(res.new_cells, 0u);
  EXPECT_FALSE(cs.has_cell({5, 5}));
  res = cs.add_cells(stray, true);
  EXPECT_EQ(res.new_cells, 1u);
  EXPECT_TRUE(cs.has_cell({5, 5}));
}

TEST(Custody, LineCompletesAtKViaReconstruction) {
  const auto p = small_params();  // k=4, n=8
  CustodyState cs(p, lines_rc({2}, {}));
  std::vector<net::CellId> cells;
  for (std::uint16_t c = 0; c < 3; ++c) cells.push_back({2, c});
  auto res = cs.add_cells(cells, false);
  EXPECT_TRUE(res.completed.empty());
  EXPECT_FALSE(cs.line_complete(net::LineRef::row(2)));

  // The 4th cell hits k: the line completes and the 4 remaining cells are
  // reconstructed.
  res = cs.add_cells({{net::CellId{2, 3}}}, false);
  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.completed[0], net::LineRef::row(2));
  EXPECT_EQ(res.reconstructed, 4u);
  EXPECT_TRUE(cs.line_complete(net::LineRef::row(2)));
  EXPECT_EQ(cs.line_count(net::LineRef::row(2)), 8u);
  EXPECT_TRUE(cs.has_cell({2, 7}));
  // obtained = 1 received + 4 reconstructed.
  EXPECT_EQ(res.obtained.size(), 5u);
  EXPECT_TRUE(cs.all_lines_complete());
}

TEST(Custody, ReconstructionCascadesIntoCrossingLines) {
  const auto p = small_params();  // k=4, n=8
  // Row 0 and col 0 assigned. Fill col 0 with 3 cells (rows 5,6,7), and row
  // 0 with cells 1..4 (not touching col 0). Completing row 0 reconstructs
  // (0,0), which gives col 0 its 4th cell and completes it too.
  CustodyState cs(p, lines_rc({0}, {0}));
  std::vector<net::CellId> col_cells{{5, 0}, {6, 0}, {7, 0}};
  cs.add_cells(col_cells, false);
  std::vector<net::CellId> row_cells{{0, 1}, {0, 2}, {0, 3}};
  cs.add_cells(row_cells, false);
  EXPECT_EQ(cs.complete_line_count(), 0u);

  const auto res = cs.add_cells({{net::CellId{0, 4}}}, false);
  EXPECT_EQ(res.completed.size(), 2u);  // row 0, then col 0 via cascade
  EXPECT_TRUE(cs.line_complete(net::LineRef::row(0)));
  EXPECT_TRUE(cs.line_complete(net::LineRef::col(0)));
  EXPECT_TRUE(cs.all_lines_complete());
  EXPECT_TRUE(cs.has_cell({3, 0}));  // reconstructed via column completion
}

TEST(Custody, HeldCellsAccounting) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1, 2}, {3}));
  cs.add_cells({{net::CellId{1, 0}, net::CellId{2, 3}, net::CellId{0, 3}}}, false);
  // (2,3) sits in row 2 AND col 3 -> counted once.
  EXPECT_EQ(cs.held_cells(), 3u);
}

TEST(Custody, LineCountForUnassignedLineIsZero) {
  const auto p = small_params();
  CustodyState cs(p, lines_rc({1}, {2}));
  EXPECT_EQ(cs.line_count(net::LineRef::row(7)), 0u);
  EXPECT_FALSE(cs.line_complete(net::LineRef::row(7)));
}

TEST(Custody, BatchCompletionOrderInsensitive) {
  // Delivering all cells of a line in one batch completes it exactly once.
  const auto p = small_params();
  CustodyState cs(p, lines_rc({4}, {}));
  std::vector<net::CellId> cells;
  for (std::uint16_t c = 0; c < 8; ++c) cells.push_back({4, c});
  const auto res = cs.add_cells(cells, false);
  EXPECT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.new_cells, 8u);
  EXPECT_EQ(res.reconstructed, 0u);  // nothing left to reconstruct
}

TEST(Custody, FullDankshardingLine) {
  // Default parameters: a line completes at 256 of 512.
  ProtocolParams p;
  CustodyState cs(p, lines_rc({100}, {}));
  std::vector<net::CellId> cells;
  for (std::uint16_t c = 0; c < 255; ++c) cells.push_back({100, c});
  auto res = cs.add_cells(cells, false);
  EXPECT_TRUE(res.completed.empty());
  res = cs.add_cells({{net::CellId{100, 300}}}, false);
  EXPECT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.reconstructed, 256u);
  EXPECT_EQ(cs.line_count(net::LineRef::row(100)), 512u);
}

/// Brute-force custody: a set of held cells, closed under "a line with >= k
/// held cells holds all n" for assigned lines. Extras are cells outside
/// every assigned line, kept only when asked.
struct BruteCustody {
  ProtocolParams p;
  AssignedLines lines;
  std::set<net::CellId> held;

  bool on_lines(net::CellId c) const {
    return lines.has_row(c.row) || lines.has_col(c.col);
  }
  std::uint32_t count(net::LineRef line) const {
    std::uint32_t n = 0;
    for (const auto c : held) {
      if (line.kind == net::LineRef::Kind::kRow ? c.row == line.index
                                                : c.col == line.index) {
        ++n;
      }
    }
    return n;
  }
  /// Ingests a batch; returns (new, duplicates, reconstructed).
  std::array<std::uint32_t, 3> add(const std::vector<net::CellId>& cells,
                                   bool keep_extras) {
    std::array<std::uint32_t, 3> out{};
    for (const auto c : cells) {
      if (held.count(c) != 0) {
        ++out[1];
      } else if (on_lines(c) || keep_extras) {
        held.insert(c);
        ++out[0];
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto line : lines.lines()) {
        const std::uint32_t have = count(line);
        if (have < p.matrix_k || have == p.matrix_n) continue;
        for (std::uint16_t pos = 0; pos < p.matrix_n; ++pos) {
          const net::CellId c = line.kind == net::LineRef::Kind::kRow
                                    ? net::CellId{line.index, pos}
                                    : net::CellId{pos, line.index};
          if (held.insert(c).second) ++out[2];
        }
        changed = true;
      }
    }
    return out;
  }
};

TEST(Custody, MatchesBruteForceCellSet) {
  util::Xoshiro256 rng(0xc057);
  for (int trial = 0; trial < 150; ++trial) {
    ProtocolParams p;
    p.matrix_n = 16;
    p.matrix_k = 4 + static_cast<std::uint32_t>(rng.uniform(6));
    AssignedLines al;
    for (std::uint16_t i = 0; i < p.matrix_n; ++i) {
      if (rng.uniform(5) == 0) al.rows.push_back(i);
      if (rng.uniform(5) == 0) al.cols.push_back(i);
    }
    CustodyState cs(p, al);
    BruteCustody ref{p, al, {}};
    for (int batch = 0; batch < 12; ++batch) {
      std::vector<net::CellId> cells;
      const auto size = rng.uniform(20);
      for (std::uint64_t i = 0; i < size; ++i) {
        // Bias toward assigned lines so cascades happen; repeats are
        // duplicates both within and across batches.
        net::CellId c{static_cast<std::uint16_t>(rng.uniform(p.matrix_n)),
                      static_cast<std::uint16_t>(rng.uniform(p.matrix_n))};
        if (!al.rows.empty() && rng.uniform(2) == 0) {
          c.row = al.rows[rng.uniform(al.rows.size())];
        }
        cells.push_back(c);
        if (rng.uniform(6) == 0) cells.push_back(c);
      }
      const bool keep_extras = rng.uniform(2) == 0;
      const std::set<net::CellId> before = ref.held;
      const auto expect = ref.add(cells, keep_extras);
      const auto got = cs.add_cells(cells, keep_extras);
      ASSERT_EQ(got.new_cells, expect[0]);
      ASSERT_EQ(got.duplicates, expect[1]);
      ASSERT_EQ(got.reconstructed, expect[2]);
      std::set<net::CellId> obtained(got.obtained.begin(), got.obtained.end());
      ASSERT_EQ(obtained.size(), got.obtained.size()) << "cell obtained twice";
      std::set<net::CellId> grown;
      std::set_difference(ref.held.begin(), ref.held.end(), before.begin(),
                          before.end(), std::inserter(grown, grown.end()));
      ASSERT_EQ(obtained, grown);

      std::uint64_t on_lines = 0;
      for (std::uint16_t r = 0; r < p.matrix_n; ++r) {
        for (std::uint16_t c = 0; c < p.matrix_n; ++c) {
          const net::CellId cell{r, c};
          ASSERT_EQ(cs.has_cell(cell), ref.held.count(cell) != 0)
              << "cell (" << r << "," << c << ") trial " << trial;
          if (ref.held.count(cell) != 0 && ref.on_lines(cell)) ++on_lines;
        }
      }
      ASSERT_EQ(cs.held_cells(), on_lines);
      std::uint32_t complete = 0;
      for (const auto line : al.lines()) {
        ASSERT_EQ(cs.line_count(line), ref.count(line));
        ASSERT_EQ(cs.line_complete(line), ref.count(line) == p.matrix_n);
        complete += ref.count(line) == p.matrix_n ? 1 : 0;
      }
      ASSERT_EQ(cs.complete_line_count(), complete);
    }
  }
}

}  // namespace
}  // namespace pandas::core
