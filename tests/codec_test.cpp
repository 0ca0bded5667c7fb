#include <gtest/gtest.h>

#include "core/seeding.h"
#include "net/codec.h"
#include "net/directory.h"
#include "util/prng.h"

namespace pandas::net {
namespace {

/// Round-trip helper: encode, decode, re-encode, compare bytes (the variant
/// types have no operator==, so byte-level idempotence is the equality).
void expect_roundtrip(const Message& msg) {
  const auto bytes = encode(msg);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index(), msg.index()) << "variant alternative changed";
  EXPECT_EQ(encode(*decoded), bytes) << "re-encoding differs";
}

TEST(Codec, SeedMsgRoundTrip) {
  SeedMsg m;
  m.slot = 1234567;
  m.cells = {{0, 0}, {511, 511}, {7, 300}};
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::row(42);
  lb->entries = {{3, 0}, {3, 1}, {9, 100}};
  lb->finalize();
  auto cb = std::make_shared<LineBoost>();
  cb->line = LineRef::col(511);
  cb->entries = {{12, 7}};
  cb->finalize();
  m.boost = {lb, cb};
  expect_roundtrip(Message(m));

  // Field-level check.
  const auto decoded = decode(encode(Message(m)));
  const auto& d = std::get<SeedMsg>(*decoded);
  EXPECT_EQ(d.slot, m.slot);
  EXPECT_EQ(d.cells, m.cells);
  ASSERT_EQ(d.boost.size(), 2u);
  EXPECT_EQ(d.boost[0]->line, lb->line);
  EXPECT_EQ(d.boost[0]->entries, lb->entries);
  EXPECT_EQ(d.boost[0]->wire_runs, lb->wire_runs);
  EXPECT_EQ(d.boost[1]->line, cb->line);
}

TEST(Codec, AllMessageTypesRoundTrip) {
  CellQueryMsg q;
  q.slot = 9;
  q.cells = {{1, 2}, {3, 4}};
  expect_roundtrip(Message(q));

  CellReplyMsg r;
  r.slot = 9;
  r.cells = {{5, 6}};
  expect_roundtrip(Message(r));

  GossipDataMsg g;
  g.topic = 77;
  g.msg_id = 0xdeadbeefcafeULL;
  g.slot = 3;
  g.cells = {{10, 20}};
  g.extra_bytes = 131072;
  g.hops = 4;
  expect_roundtrip(Message(g));

  GossipIHaveMsg ih;
  ih.topic = 5;
  ih.msg_ids = {1, 2, 3};
  expect_roundtrip(Message(ih));

  GossipIWantMsg iw;
  iw.msg_ids = {9, 8};
  expect_roundtrip(Message(iw));

  expect_roundtrip(Message(GossipGraftMsg{11}));
  expect_roundtrip(Message(GossipPruneMsg{12}));

  DhtFindNodeMsg fn;
  fn.rpc_id = 101;
  fn.target = crypto::NodeId::from_label(7);
  expect_roundtrip(Message(fn));

  DhtNodesMsg nodes;
  nodes.rpc_id = 101;
  nodes.nodes = {1, 2, 3, 4};
  expect_roundtrip(Message(nodes));

  DhtStoreMsg st;
  st.rpc_id = 102;
  st.key = crypto::NodeId::from_label(8);
  st.cells = {{1, 1}};
  expect_roundtrip(Message(st));

  expect_roundtrip(Message(DhtStoreAckMsg{103}));

  DhtFindValueMsg fv;
  fv.rpc_id = 104;
  fv.key = crypto::NodeId::from_label(9);
  expect_roundtrip(Message(fv));

  DhtValueMsg val;
  val.rpc_id = 104;
  val.found = true;
  val.cells = {{2, 2}, {3, 3}};
  expect_roundtrip(Message(val));
  val.found = false;
  val.cells.clear();
  val.closer = {5, 6};
  expect_roundtrip(Message(val));
}

TEST(Codec, EmptyCollections) {
  CellQueryMsg q;
  q.slot = 0;
  expect_roundtrip(Message(q));
  SeedMsg s;
  expect_roundtrip(Message(s));
}

TEST(Codec, RejectsTruncation) {
  SeedMsg m;
  m.slot = 5;
  m.cells = {{1, 1}, {2, 2}};
  const auto bytes = encode(Message(m));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto partial =
        std::span<const std::uint8_t>(bytes.data(), cut);
    EXPECT_FALSE(decode(partial).has_value()) << "cut=" << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  CellQueryMsg q;
  q.slot = 1;
  q.cells = {{1, 1}};
  auto bytes = encode(Message(q));
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsUnknownTag) {
  std::vector<std::uint8_t> bytes{0xff, 0, 0, 0};
  EXPECT_FALSE(decode(bytes).has_value());
  EXPECT_FALSE(decode(std::span<const std::uint8_t>{}).has_value());
}

TEST(Codec, RejectsHostileLengths) {
  // A CellQuery claiming 2^32-1 cells in a 20-byte datagram.
  std::vector<std::uint8_t> bytes;
  bytes.push_back(2);  // kCellQuery
  for (int i = 0; i < 8; ++i) bytes.push_back(0);  // slot
  for (int i = 0; i < 4; ++i) bytes.push_back(0xff);  // count
  bytes.push_back(0);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, SurvivesRandomMutation) {
  // Property: no single-byte mutation of a valid datagram may crash the
  // decoder (it may decode to a different valid message or fail cleanly).
  util::Xoshiro256 rng(3);
  SeedMsg m;
  m.slot = 8;
  for (std::uint16_t i = 0; i < 40; ++i) m.cells.push_back({i, i});
  const auto bytes = encode(Message(m));
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = bytes;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
    (void)decode(mutated);  // must not crash / over-read (ASAN-clean)
  }
}

TEST(Codec, RandomBytesNeverCrash) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.uniform(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(256));
    (void)decode(junk);
  }
}

/// The message zoo used by the size / fragmentation properties below.
std::vector<Message> sample_messages() {
  std::vector<Message> out;
  SeedMsg s;
  s.slot = 42;
  for (std::uint16_t i = 0; i < 37; ++i) {
    s.cells.push_back({i, i});
    s.tags.push_back(0x100u + i);
  }
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::col(9);
  lb->entries = {{1, 0}, {2, 5}, {70000, 511}};
  lb->finalize();
  s.boost = {lb};
  out.emplace_back(std::move(s));

  CellQueryMsg q;
  q.slot = 42;
  q.cells = {{1, 2}, {3, 4}};
  q.round = 3;
  q.redraw = true;
  out.emplace_back(std::move(q));

  CellReplyMsg r;
  r.slot = 42;
  r.cells = {{5, 6}, {7, 8}, {9, 10}};
  r.tags = {11, 12, 13};
  r.buffered = true;
  out.emplace_back(std::move(r));

  GossipDataMsg g;
  g.topic = 7;
  g.msg_id = 99;
  g.slot = 42;
  g.cells = {{1, 1}};
  g.extra_bytes = 4096;
  out.emplace_back(std::move(g));
  out.emplace_back(GossipIHaveMsg{7, {1, 2, 3}});
  out.emplace_back(GossipIWantMsg{{4, 5}});
  out.emplace_back(GossipGraftMsg{7});
  out.emplace_back(GossipPruneMsg{7});
  out.emplace_back(DhtFindNodeMsg{1, crypto::NodeId::from_label(3)});
  out.emplace_back(DhtNodesMsg{1, {1, 2, 3}});
  out.emplace_back(DhtStoreMsg{2, crypto::NodeId::from_label(4), {{1, 1}}});
  out.emplace_back(DhtStoreAckMsg{2});
  out.emplace_back(DhtFindValueMsg{3, crypto::NodeId::from_label(5)});
  DhtValueMsg v;
  v.rpc_id = 3;
  v.found = true;
  v.cells = {{2, 2}};
  v.closer = {8, 9};
  out.emplace_back(std::move(v));
  return out;
}

TEST(Codec, EncodedSizeMatchesEncode) {
  // encoded_size() and encode() are driven by the same visitor; this pins
  // the contract across every message type, including boost maps and tags.
  for (const auto& msg : sample_messages()) {
    EXPECT_EQ(encoded_size(msg), encode(msg).size())
        << "variant index " << msg.index();
  }
  EXPECT_EQ(encoded_size(Message(SeedMsg{})), encode(Message(SeedMsg{})).size());
}

TEST(Codec, FragmentBoundaryAtExactlyMaxCells) {
  DatagramBudget budget;
  budget.cell_cost = 0;  // byte budget out of the way: max_cells governs
  budget.max_cells = 100;

  CellReplyMsg r;
  r.slot = 1;
  for (std::uint16_t i = 0; i < 100; ++i) r.cells.push_back({i, i});
  // Exactly max cells: must NOT split.
  EXPECT_EQ(fragment_to_budget(Message(r), budget).size(), 1u);
  // One more: splits 100 + 1.
  r.cells.push_back({100, 100});
  const auto parts = fragment_to_budget(Message(r), budget);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(carried_cells(parts[0]), 100u);
  EXPECT_EQ(carried_cells(parts[1]), 1u);
}

TEST(Codec, ByteBudgetBoundaryIsExact) {
  CellReplyMsg r;  // tagless: each cell encodes to exactly 4 bytes
  r.slot = 1;
  const std::size_t fixed = encoded_size(Message(r));
  DatagramBudget budget;
  budget.cell_cost = 0;  // charge actual encoded bytes (4 per cell)
  budget.max_bytes = fixed + 10 * 4;

  for (std::uint16_t i = 0; i < 10; ++i) r.cells.push_back({i, i});
  EXPECT_EQ(fragment_to_budget(Message(r), budget).size(), 1u)
      << "message at exactly max_bytes must not split";
  r.cells.push_back({10, 10});
  const auto parts = fragment_to_budget(Message(r), budget);
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& p : parts) {
    EXPECT_LE(encoded_size(p), budget.max_bytes);
  }
  EXPECT_EQ(carried_cells(parts[0]) + carried_cells(parts[1]), 11u);
}

TEST(Codec, TagsStayAlignedWithTheirCells) {
  CellReplyMsg r;
  r.slot = 3;
  for (std::uint16_t i = 0; i < 250; ++i) {
    r.cells.push_back({i, i});
    r.tags.push_back(0xabc000u + i);  // tag i belongs to cell i
  }
  DatagramBudget budget;
  budget.cell_cost = 0;
  budget.max_cells = 64;
  std::size_t seen = 0;
  for (const auto& part : fragment_to_budget(Message(r), budget)) {
    const auto& p = std::get<CellReplyMsg>(part);
    ASSERT_EQ(p.tags.size(), p.cells.size());
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
      EXPECT_EQ(p.cells[i].row, seen + i) << "cells out of order";
      EXPECT_EQ(p.tags[i], 0xabc000u + seen + i) << "tag drifted off its cell";
    }
    seen += p.cells.size();
  }
  EXPECT_EQ(seen, 250u);
}

TEST(Codec, BoostRidesOnlyTheFirstSeedFragment) {
  SeedMsg s;
  s.slot = 4;
  for (std::uint16_t i = 0; i < 90; ++i) {
    s.cells.push_back({i, i});
    s.tags.push_back(i);
  }
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::row(1);
  lb->entries = {{5, 0}, {6, 1}};
  lb->finalize();
  s.boost = {lb};

  DatagramBudget budget;
  budget.cell_cost = 0;
  budget.max_cells = 40;
  const auto parts = fragment_to_budget(Message(s), budget);
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto& p = std::get<SeedMsg>(parts[i]);
    EXPECT_EQ(p.slot, s.slot);
    if (i == 0) {
      ASSERT_EQ(p.boost.size(), 1u) << "boost missing from first fragment";
      EXPECT_EQ(p.boost[0]->entries, lb->entries);
    } else {
      EXPECT_TRUE(p.boost.empty()) << "boost duplicated on fragment " << i;
    }
  }
}

TEST(Codec, FullRowReplyFragmentsFitUdpPayload) {
  // The acceptance-criterion regression: every fragment of a full-row
  // 512-cell reply (and seed) encodes within the 65,507-byte UDP payload
  // limit under the DEFAULT budget, which also charges each cell its full
  // deployment wire cost (512 B payload + 48 B proof).
  const DatagramBudget budget = DatagramBudget::for_cell_bytes(512);
  EXPECT_EQ(budget.cell_cost, kCellWireBytes);

  CellReplyMsg r;
  r.slot = 9;
  for (std::uint16_t i = 0; i < 512; ++i) {
    r.cells.push_back({3, i});
    r.tags.push_back(0x900u + i);
  }
  SeedMsg s;
  s.slot = 9;
  s.cells = r.cells;
  s.tags = r.tags;
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::row(3);
  for (std::uint32_t v = 0; v < 512; ++v) lb->entries.emplace_back(v, v % 512);
  lb->finalize();
  s.boost = {lb};

  for (const Message& msg : {Message(r), Message(s)}) {
    std::size_t cells = 0;
    const auto parts = fragment_to_budget(msg, budget);
    EXPECT_GT(parts.size(), 1u) << "512 wire-cost cells cannot fit one datagram";
    for (const auto& part : parts) {
      const auto bytes = encode(part);
      EXPECT_LE(bytes.size(), kMaxUdpPayloadBytes);
      EXPECT_LE(bytes.size(), budget.max_bytes);
      // The budgeted (deployment) size fits too: cells * wire cost + header.
      EXPECT_LE(carried_cells(part) * budget.cell_cost, budget.max_bytes);
      cells += carried_cells(part);
    }
    EXPECT_EQ(cells, 512u) << "fragmentation lost cells";
  }
}

TEST(Codec, RedundantSeedBoostMapFitsOneDatagram) {
  // Paper parameters (512x512, 8+8 lines per node) under redundant r=8
  // seeding at 1,000 nodes: one node's seed carries the boost maps of its
  // 16 lines. Encoded as parcel runs they fit a single datagram (as 6 B
  // per seeded cell they would take ~197 KB, three datagrams' worth).
  const core::ProtocolParams params;
  constexpr std::uint32_t kNodes = 1000;
  const auto directory = Directory::create(kNodes);
  const core::AssignmentTable table(params, directory, core::epoch_seed(21, 0));
  const auto view = core::View::full(kNodes);
  util::Xoshiro256 rng(17);
  const auto plan = core::plan_seeding(params, table, view,
                                       core::SeedingPolicy::redundant(8), rng);
  SeedMsg seed;
  seed.slot = 1;
  seed.boost = plan.boost_for(table.of(0));
  ASSERT_EQ(seed.boost.size(), params.rows_per_node + params.cols_per_node);
  EXPECT_LE(encoded_size(Message(seed)), kMaxUdpPayloadBytes);
  expect_roundtrip(Message(seed));

  // With its cells too, every fragment is a legal datagram and the boost
  // map shares the first one with cells.
  seed.cells = plan.cells_per_node[0];
  seed.tags = proof_tags(seed.slot, seed.cells);
  ASSERT_FALSE(seed.cells.empty());
  const auto parts = fragment_to_budget(Message(seed), DatagramBudget{});
  ASSERT_FALSE(parts.empty());
  EXPECT_FALSE(std::get<SeedMsg>(parts[0]).cells.empty());
  for (const auto& part : parts) {
    EXPECT_LE(encode(part).size(), kMaxUdpPayloadBytes);
  }
}

TEST(Codec, MalformedBoostRunsAreRejected) {
  // Hand-built SeedMsg with one row boost line of the given runs.
  struct Run {
    std::uint32_t node;
    std::uint16_t first;
    std::uint16_t len;
  };
  const auto seed_with_runs = [](const std::vector<Run>& runs) {
    std::vector<std::uint8_t> b;
    const auto put = [&](std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(1, 1);  // Tag::kSeed
    put(7, 8);  // slot
    put(0, 4);  // no cells
    put(0, 4);  // no tags
    put(1, 4);  // one boost line
    put(LineRef::row(3).packed(), 2);
    put(runs.size(), 4);
    for (const auto& r : runs) {
      put(r.node, 4);
      put(r.first, 2);
      put(r.len, 2);
    }
    put(0, 8);  // cause: origin, seq
    return b;
  };
  const auto good = decode(seed_with_runs({{2, 0, 4}, {2, 10, 2}, {5, 508, 4}}));
  ASSERT_TRUE(good.has_value());
  const auto& lb = *std::get<SeedMsg>(*good).boost.at(0);
  EXPECT_EQ(lb.entries.size(), 10u);
  EXPECT_EQ(lb.wire_runs, 3u);
  EXPECT_EQ(lb.entries.back(), (std::pair<NodeIndex, std::uint16_t>{5, 511}));

  EXPECT_FALSE(decode(seed_with_runs({{2, 0, 0}})).has_value()) << "empty run";
  EXPECT_FALSE(decode(seed_with_runs({{2, 510, 3}})).has_value()) << "past the line";
  EXPECT_FALSE(decode(seed_with_runs({{5, 0, 2}, {2, 9, 1}})).has_value())
      << "nodes out of order";
  EXPECT_FALSE(decode(seed_with_runs({{2, 8, 2}, {2, 0, 2}})).has_value())
      << "positions out of order";
  EXPECT_FALSE(decode(seed_with_runs({{2, 0, 4}, {2, 3, 2}})).has_value())
      << "overlapping runs";
  EXPECT_FALSE(decode(seed_with_runs({{2, 0, 4}, {2, 4, 2}})).has_value())
      << "adjacent runs of one node (not maximal)";
}

TEST(Codec, NonCellMessagesPassThroughUnfragmented) {
  DatagramBudget budget;
  budget.max_cells = 1;
  budget.max_bytes = 64;  // tighter than the IHave below encodes to
  GossipIHaveMsg ih;
  ih.topic = 1;
  for (std::uint64_t i = 0; i < 100; ++i) ih.msg_ids.push_back(i);
  const auto parts = fragment_to_budget(Message(ih), budget);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(std::get<GossipIHaveMsg>(parts[0]).msg_ids.size(), 100u);
}

}  // namespace
}  // namespace pandas::net
