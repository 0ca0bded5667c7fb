#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/node.h"
#include "core/seeding.h"
#include "net/sim_transport.h"

namespace pandas::core {
namespace {

/// Focused protocol tests for PandasNode behaviours: buffered queries,
/// fallback timer, sample accounting — on a tiny hand-wired network.
struct ProtoNet {
  ProtocolParams params;
  sim::Engine engine{21};
  sim::Topology topology;
  std::unique_ptr<net::SimTransport> transport;
  net::Directory directory;
  std::unique_ptr<AssignmentTable> table;
  View view;
  std::vector<std::unique_ptr<PandasNode>> nodes;

  explicit ProtoNet(std::uint32_t n = 40, double loss = 0.0)
      : directory(net::Directory::create(n)) {
    params.matrix_k = 16;
    params.matrix_n = 32;
    params.rows_per_node = 2;
    params.cols_per_node = 2;
    params.samples_per_node = 8;
    sim::TopologyConfig tc;
    tc.vertices = 100;
    topology = sim::Topology::generate(tc, 31);
    net::SimTransportConfig tcfg;
    tcfg.loss_rate = loss;
    transport = std::make_unique<net::SimTransport>(engine, topology, tcfg);
    for (std::uint32_t i = 0; i < n; ++i) transport->add_node(i % 100);
    table = std::make_unique<AssignmentTable>(params, directory, epoch_seed(9, 0));
    view = View::full(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<PandasNode>(*engine_ptr(), *transport, i, params);
      node->configure_epoch(table.get());
      node->set_view(&view);
      nodes.push_back(std::move(node));
      transport->set_handler(i, [this, i](net::NodeIndex from, net::Message&& m) {
        nodes[i]->handle_message(from, m);
      });
    }
  }
  sim::Engine* engine_ptr() { return &engine; }
};

TEST(PandasNode, SeedIngestRecordsTimeAndCells) {
  ProtoNet net;
  net.nodes[0]->begin_slot(1);
  net::SeedMsg seed;
  seed.slot = 1;
  const auto& lines = net.table->of(0);
  for (std::uint16_t c = 0; c < 8; ++c) seed.cells.push_back({lines.rows[0], c});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message msg(seed);
  net.nodes[0]->handle_message(net::kInvalidNode - 1, msg);
  ASSERT_TRUE(net.nodes[0]->record().seed_time.has_value());
  EXPECT_EQ(net.nodes[0]->record().seed_cells, 8u);
  EXPECT_EQ(net.nodes[0]->custody().line_count(net::LineRef::row(lines.rows[0])),
            8u);
  EXPECT_TRUE(net.nodes[0]->fetcher()->started());
}

TEST(PandasNode, StaleSlotMessagesIgnored) {
  ProtoNet net;
  net.nodes[0]->begin_slot(5);
  net::SeedMsg seed;
  seed.slot = 4;  // stale
  seed.cells.push_back({0, 0});
  net::Message msg(seed);
  net.nodes[0]->handle_message(1, msg);
  EXPECT_FALSE(net.nodes[0]->record().seed_time.has_value());
}

TEST(PandasNode, QueryServedImmediatelyWhenHeld) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);

  // Give node 1 a cell of one of its rows via a seed.
  const auto row = net.table->of(1).rows[0];
  net::SeedMsg seed;
  seed.slot = 1;
  seed.cells.push_back({row, 3});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message sm(seed);
  b.handle_message(99, sm);

  // Node 0 queries node 1 for it.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({row, 3});
  net.transport->send(0, 1, net::Message(q));
  net.engine.run_until(2 * sim::kSecond);

  // Node 0 received the cell (kept as an extra/sample-style cell or within
  // its own lines).
  EXPECT_TRUE(a.custody().has_cell({row, 3}));
}

TEST(PandasNode, QueryBufferedUntilAvailable) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];

  // Query B for a cell it does not have yet: no reply.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({row, 5});
  net.transport->send(0, 1, net::Message(q));
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_FALSE(a.custody().has_cell({row, 5}));

  // B now receives the cell via a late seed: the buffered query flushes.
  net::SeedMsg seed;
  seed.slot = 1;
  seed.cells.push_back({row, 5});
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  net::Message sm(seed);
  b.handle_message(99, sm);
  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(a.custody().has_cell({row, 5}));
}

/// Peers served from the buffered-query path, in send order.
std::vector<std::uint32_t> buffered_replies(const obs::TraceSink& sink) {
  std::vector<std::uint32_t> to;
  for (const auto& ev : sink.events()) {
    if (ev.type == obs::EventType::kBufferedReplyServed) to.push_back(ev.peer);
  }
  return to;
}

net::Message query_for(std::uint64_t slot, std::vector<net::CellId> cells) {
  net::CellQueryMsg q;
  q.slot = slot;
  q.cells = std::move(cells);
  return net::Message(std::move(q));
}

net::Message seed_of(std::uint64_t slot, std::vector<net::CellId> cells) {
  net::SeedMsg seed;
  seed.slot = slot;
  seed.cells = std::move(cells);
  seed.tags = net::proof_tags(seed.slot, seed.cells);
  return net::Message(std::move(seed));
}

TEST(PandasNode, BufferedQueriesCompletedTogetherAnsweredInArrivalOrder) {
  ProtoNet net;
  auto& b = *net.nodes[1];
  obs::TraceSink sink;
  b.set_trace(&sink);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];

  // Node 3 asks first, node 2 second, so arrival order differs from index
  // order. Node 2's query also waits on a second cell.
  auto q3 = query_for(1, {{row, 6}});
  b.handle_message(3, q3);
  auto q2 = query_for(1, {{row, 5}, {row, 7}});
  b.handle_message(2, q2);
  EXPECT_TRUE(buffered_replies(sink).empty());

  // One ingest brings every missing cell, completing node 2's query before
  // node 3's: both are still answered in arrival order.
  auto seed = seed_of(1, {{row, 7}, {row, 5}, {row, 6}});
  b.handle_message(99, seed);
  EXPECT_EQ(buffered_replies(sink), (std::vector<std::uint32_t>{3, 2}));
}

TEST(PandasNode, BufferedQueryFlushedByReconstruction) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  obs::TraceSink sink;
  b.set_trace(&sink);
  a.begin_slot(1);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];

  // Position 20 is a parity cell no one will send B: it can only appear
  // when B's row reaches k = 16 cells and is reconstructed.
  const net::CellId parity{row, 20};
  auto q = query_for(1, {parity});
  b.handle_message(0, q);

  std::vector<net::CellId> half;
  for (std::uint16_t c = 0; c < net.params.matrix_k; ++c) half.push_back({row, c});
  auto seed = seed_of(1, half);
  b.handle_message(99, seed);
  ASSERT_TRUE(b.custody().line_complete(net::LineRef::row(row)));
  EXPECT_EQ(buffered_replies(sink), (std::vector<std::uint32_t>{0}));

  net.engine.run_until(net.engine.now() + sim::kSecond);
  EXPECT_TRUE(a.custody().has_cell(parity));
}

TEST(PandasNode, BufferedQueryDoesNotOutliveItsSlot) {
  ProtoNet net;
  auto& b = *net.nodes[1];
  obs::TraceSink sink;
  b.set_trace(&sink);
  b.begin_slot(1);
  const auto row = net.table->of(1).rows[0];

  auto q = query_for(1, {{row, 5}});
  b.handle_message(0, q);

  // The slot ends with the query unanswered; the cell shows up only in the
  // next slot, where it must not flush the stale query.
  b.begin_slot(2);
  auto seed = seed_of(2, {{row, 5}});
  b.handle_message(99, seed);
  EXPECT_TRUE(b.custody().has_cell({row, 5}));
  EXPECT_TRUE(buffered_replies(sink).empty());
}

TEST(PandasNode, FallbackTimerStartsFetchWithoutSeed) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  a.begin_slot(1);
  EXPECT_FALSE(a.fetcher()->started());

  // A foreign query for the current slot arms the 400 ms fallback.
  net::CellQueryMsg q;
  q.slot = 1;
  q.cells.push_back({net.table->of(0).rows[0], 1});
  net::Message msg(q);
  a.handle_message(2, msg);
  EXPECT_FALSE(a.fetcher()->started());

  net.engine.run_until(net.engine.now() + 300 * sim::kMillisecond);
  EXPECT_FALSE(a.fetcher()->started()) << "timer must not fire early";
  net.engine.run_until(net.engine.now() + 200 * sim::kMillisecond);
  EXPECT_TRUE(a.fetcher()->started()) << "fetch starts at the 400 ms fallback";
}

TEST(PandasNode, SamplesAreUnpredictablePerSlotAndNode) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  auto& b = *net.nodes[1];
  a.begin_slot(1);
  b.begin_slot(1);
  EXPECT_NE(a.samples(), b.samples());
  const auto slot1 = a.samples();
  // Also different across slots for the same node.
  a.begin_slot(2);
  EXPECT_NE(a.samples(), slot1);
  EXPECT_EQ(a.samples().size(), net.params.samples_per_node);
}

TEST(PandasNode, SamplingCompletesWhenSamplesArrive) {
  ProtoNet net;
  auto& a = *net.nodes[0];
  a.begin_slot(1);
  // Deliver every sample directly via a reply (as if fetched).
  net::CellReplyMsg reply;
  reply.slot = 1;
  reply.cells = a.samples();
  reply.tags = net::proof_tags(reply.slot, reply.cells);
  // Must have an active fetcher for reply accounting; start via seed.
  net::SeedMsg seed;
  seed.slot = 1;
  net::Message sm(seed);
  a.handle_message(99, sm);
  net::Message rm(reply);
  a.handle_message(2, rm);
  EXPECT_TRUE(a.sampled());
  EXPECT_TRUE(a.record().sampling_time.has_value());
}

TEST(PandasNode, EndToEndTinySlotWithBuilder) {
  ProtoNet net;
  const auto builder_index = net.transport->add_node(0, 10e9, 10e9);
  Builder builder(net.engine, *net.transport, builder_index, net.params);

  for (auto& node : net.nodes) node->begin_slot(3);
  util::Xoshiro256 rng(5);
  const auto plan = plan_seeding(net.params, *net.table, net.view,
                                 SeedingPolicy::redundant(4), rng);
  builder.seed(3, *net.table, net.view, plan, rng);
  net.engine.run_until(net.engine.now() + 6 * sim::kSecond);

  std::uint32_t consolidated = 0, sampled = 0;
  for (auto& node : net.nodes) {
    if (node->consolidated()) ++consolidated;
    if (node->sampled()) ++sampled;
  }
  EXPECT_EQ(consolidated, net.nodes.size());
  // At 40 nodes some lines have no assigned member at all, so a few sample
  // cells can be unservable; the vast majority of nodes still completes.
  EXPECT_GE(sampled, net.nodes.size() * 9 / 10);
}

}  // namespace
}  // namespace pandas::core
