#include <gtest/gtest.h>

#include <set>

#include "net/directory.h"
#include "net/messages.h"
#include "net/sim_transport.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "util/prng.h"

namespace pandas::net {
namespace {

// ----------------------------------------------------------------- Messages

TEST(Messages, CellIdPacking) {
  const CellId c{511, 300};
  EXPECT_EQ(CellId::unpack(c.packed()), c);
  EXPECT_EQ(CellId::unpack(0x01ff012cu), (CellId{0x1ff, 0x12c}));
}

TEST(Messages, LineRefPacking) {
  EXPECT_NE(LineRef::row(5).packed(), LineRef::col(5).packed());
  EXPECT_EQ(LineRef::row(5).packed(), 5);
  EXPECT_EQ(LineRef::col(5).packed(), 0x8005);
}

TEST(Messages, WireSizeCellReply) {
  CellReplyMsg reply;
  reply.cells.resize(10);
  // 10 cells of 560 B each + header.
  EXPECT_EQ(wire_size(Message(reply)), kMsgHeaderBytes + 10 * kCellWireBytes);
}

TEST(Messages, WireSizeQueryIsSmall) {
  CellQueryMsg q;
  q.cells.resize(73);
  EXPECT_EQ(wire_size(Message(q)), kMsgHeaderBytes + 73 * kCellIdWireBytes);
  EXPECT_LT(wire_size(Message(q)), kPacketPayloadBytes);  // one packet
}

TEST(Messages, WireSizeSeedIncludesSignatureAndBoost) {
  SeedMsg seed;
  seed.cells.resize(4);
  auto lb = std::make_shared<LineBoost>();
  lb->line = LineRef::row(1);
  lb->entries = {{7, 0}, {7, 1}, {7, 2}, {9, 10}};  // two runs
  lb->finalize();
  EXPECT_EQ(lb->wire_runs, 2u);
  seed.boost.push_back(lb);
  EXPECT_EQ(wire_size(Message(seed)),
            kMsgHeaderBytes + kSignatureBytes + 4 * kCellWireBytes +
                2 * kBoostRunWireBytes + 4);
}

TEST(Messages, LineBoostRunsOfRecipient) {
  LineBoost lb;
  lb.entries = {{2, 0}, {5, 1}, {5, 2}, {5, 9}, {8, 3}};
  EXPECT_EQ(lb.first_of(5), 1u);
  std::vector<std::pair<std::uint16_t, std::uint32_t>> runs;
  lb.for_each_run_of(5, [&](std::uint16_t pos, std::uint32_t len) {
    runs.emplace_back(pos, len);
  });
  EXPECT_EQ(runs, (std::vector<std::pair<std::uint16_t, std::uint32_t>>{
                      {1, 2}, {9, 1}}));
  runs.clear();
  lb.for_each_run_of(3, [&](std::uint16_t pos, std::uint32_t len) {
    runs.emplace_back(pos, len);
  });
  EXPECT_TRUE(runs.empty());  // absent node: no runs
  EXPECT_EQ(lb.first_of(3), 1u);
}

/// Random boost line: `recipients` nodes, each given 1-3 parcels of
/// consecutive positions (copies may overlap other nodes' parcels), then
/// optionally subsampled evenly like the builder's wire cap, which breaks
/// runs apart.
LineBoost random_boost(util::Xoshiro256& rng, bool subsample) {
  LineBoost lb;
  const auto recipients = 1 + static_cast<std::uint32_t>(rng.uniform(20));
  std::set<std::pair<NodeIndex, std::uint16_t>> entries;
  for (std::uint32_t r = 0; r < recipients; ++r) {
    const auto node = static_cast<NodeIndex>(rng.uniform(1000));
    const auto parcels = 1 + rng.uniform(3);
    for (std::uint64_t p = 0; p < parcels; ++p) {
      const auto first = static_cast<std::uint32_t>(rng.uniform(512));
      const auto len = 1 + static_cast<std::uint32_t>(rng.uniform(90));
      for (std::uint32_t pos = first; pos < std::min(512u, first + len); ++pos) {
        entries.emplace(node, static_cast<std::uint16_t>(pos));
      }
    }
  }
  lb.entries.assign(entries.begin(), entries.end());
  if (subsample && lb.entries.size() > 8) {
    std::vector<std::pair<NodeIndex, std::uint16_t>> kept;
    const std::size_t stride = 2 + rng.uniform(3);
    for (std::size_t i = 0; i < lb.entries.size(); i += stride) {
      kept.push_back(lb.entries[i]);
    }
    lb.entries = std::move(kept);
  }
  lb.finalize();
  return lb;
}

TEST(Messages, RunWiseBoostScansMatchPerEntryScans) {
  util::Xoshiro256 rng(0x5ca7);
  for (int trial = 0; trial < 400; ++trial) {
    const LineBoost lb = random_boost(rng, /*subsample=*/trial % 3 == 0);
    util::Bitmap512 marked;
    const auto density = 1 + rng.uniform(60);
    for (std::uint32_t i = 0; i < 512; ++i) {
      if (rng.uniform(density) == 0) marked.set(i);
    }

    // Runs: consecutive, cover every entry once, each maximal.
    std::uint32_t runs = 0;
    for (std::size_t i = 0; i < lb.entries.size(); i = lb.run_end(i)) {
      const std::size_t end = lb.run_end(i);
      ASSERT_GT(end, i);
      for (std::size_t j = i; j < end; ++j) {
        ASSERT_EQ(lb.entries[j].first, lb.entries[i].first);
        ASSERT_EQ(lb.entries[j].second, lb.entries[i].second + (j - i));
      }
      if (end < lb.entries.size()) {
        ASSERT_FALSE(lb.entries[end].first == lb.entries[i].first &&
                     lb.entries[end].second == lb.entries[i].second + (end - i))
            << "run not maximal";
      }
      ++runs;
    }
    EXPECT_EQ(runs, lb.wire_runs);

    // Recipients with a marked entry, in order; per-entry reference.
    std::vector<NodeIndex> expect_nodes;
    for (const auto& [node, pos] : lb.entries) {
      if (marked.test(pos) &&
          (expect_nodes.empty() || expect_nodes.back() != node)) {
        expect_nodes.push_back(node);
      }
    }
    std::vector<NodeIndex> got_nodes;
    lb.for_each_marked_recipient(marked, [&](NodeIndex node) {
      got_nodes.push_back(node);
      return true;
    });
    EXPECT_EQ(got_nodes, expect_nodes);
    // Early stop after the first two recipients.
    got_nodes.clear();
    lb.for_each_marked_recipient(marked, [&](NodeIndex node) {
      got_nodes.push_back(node);
      return got_nodes.size() < 2;
    });
    EXPECT_EQ(got_nodes.size(), std::min<std::size_t>(2, expect_nodes.size()));

    // Per-recipient marked counts, including absent nodes.
    std::set<NodeIndex> nodes{0, 999};
    for (const auto& e : lb.entries) nodes.insert(e.first);
    for (const auto node : nodes) {
      std::uint32_t expect = 0;
      for (const auto& [n, pos] : lb.entries) {
        if (n == node && marked.test(pos)) ++expect;
      }
      EXPECT_EQ(lb.count_marked(node, marked), expect) << "node " << node;
    }
  }
}

TEST(Messages, DropCells) {
  CellReplyMsg reply;
  for (std::uint16_t i = 0; i < 6; ++i) reply.cells.push_back({i, i});
  Message msg(reply);
  drop_cells(msg, {0, 3, 5});
  const auto& out = std::get<CellReplyMsg>(msg).cells;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].row, 1);
  EXPECT_EQ(out[1].row, 2);
  EXPECT_EQ(out[2].row, 4);
}

TEST(Messages, CarriedCells) {
  CellQueryMsg q;
  q.cells.resize(5);
  EXPECT_EQ(carried_cells(Message(q)), 0u);  // queries carry ids, not cells
  CellReplyMsg r;
  r.cells.resize(5);
  EXPECT_EQ(carried_cells(Message(r)), 5u);
  GossipGraftMsg g;
  EXPECT_EQ(carried_cells(Message(g)), 0u);
}

// ------------------------------------------------------------ SimTransport

struct Fixture {
  sim::Engine engine{1};
  sim::Topology topology;
  SimTransportConfig cfg;
  std::unique_ptr<SimTransport> transport;

  explicit Fixture(double loss = 0.0) {
    sim::TopologyConfig tc;
    tc.vertices = 50;
    topology = sim::Topology::generate(tc, 3);
    cfg.loss_rate = loss;
    transport = std::make_unique<SimTransport>(engine, topology, cfg);
  }
};

TEST(SimTransport, DeliversWithPropagationDelay) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  sim::Time delivered = -1;
  NodeIndex from = kInvalidNode;
  f.transport->set_handler(b, [&](NodeIndex src, Message&&) {
    delivered = f.engine.now();
    from = src;
  });
  CellQueryMsg q;
  q.cells.resize(3);
  f.transport->send(a, b, Message(q));
  f.engine.run();
  ASSERT_GE(delivered, 0);
  EXPECT_EQ(from, a);
  // Delivery >= one-way propagation delay.
  EXPECT_GE(delivered, f.topology.owd(0, 1));
}

TEST(SimTransport, SerializationDelayScalesWithSize) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(0);  // same vertex: min latency
  sim::Time t_small = -1, t_big = -1;

  f.transport->set_handler(b, [&](NodeIndex, Message&& m) {
    if (carried_cells(m) < 100) {
      t_small = f.engine.now();
    } else {
      t_big = f.engine.now();
    }
  });
  CellReplyMsg small;
  small.cells.resize(1);
  CellReplyMsg big;
  big.cells.resize(2000);  // ~1.1 MB at 25 Mbps -> ~360 ms
  f.transport->send(a, b, Message(small));
  f.engine.run();
  const sim::Time small_done = t_small;
  f.transport->reset_links();
  f.transport->send(a, b, Message(big));
  f.engine.run();
  ASSERT_GE(small_done, 0);
  ASSERT_GE(t_big, 0);
  EXPECT_GT(t_big - small_done, sim::from_ms(300));
}

TEST(SimTransport, UplinkQueuesSequentialSends) {
  // Two large messages from one sender: the second's delivery is delayed by
  // the first's serialization (store-and-forward at the sender NIC).
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(0);
  const auto c = f.transport->add_node(0);
  sim::Time t_b = -1, t_c = -1;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { t_b = f.engine.now(); });
  f.transport->set_handler(c, [&](NodeIndex, Message&&) { t_c = f.engine.now(); });
  CellReplyMsg big;
  big.cells.resize(1000);
  f.transport->send(a, b, Message(big));
  f.transport->send(a, c, Message(big));
  f.engine.run();
  ASSERT_GE(t_b, 0);
  ASSERT_GE(t_c, 0);
  EXPECT_GT(t_c, t_b + sim::from_ms(100));
}

TEST(SimTransport, LossDropsControlMessages) {
  Fixture f(0.5);
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  int delivered = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { ++delivered; });
  const int sent = 1000;
  for (int i = 0; i < sent; ++i) {
    GossipGraftMsg g;
    f.transport->send(a, b, Message(g));
  }
  f.engine.run();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
}

TEST(SimTransport, LossDegradesCellMessagesGracefully) {
  Fixture f(0.1);
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  std::size_t received_cells = 0;
  int messages = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&& m) {
    ++messages;
    received_cells += carried_cells(m);
  });
  const int sent = 50;
  const std::size_t cells_each = 500;
  for (int i = 0; i < sent; ++i) {
    CellReplyMsg r;
    r.cells.resize(cells_each);
    f.transport->send(a, b, Message(r));
  }
  f.engine.run();
  // ~10% of cells lost, but nearly all messages arrive (some cells always
  // survive a 250-packet burst).
  EXPECT_EQ(messages, sent);
  const double loss = 1.0 - static_cast<double>(received_cells) /
                                static_cast<double>(sent * cells_each);
  EXPECT_NEAR(loss, 0.1, 0.04);
}

TEST(SimTransport, DeadNodesNeitherSendNorReceive) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  int delivered = 0;
  f.transport->set_handler(b, [&](NodeIndex, Message&&) { ++delivered; });
  f.transport->set_dead(b, true);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 0);

  f.transport->set_dead(b, false);
  f.transport->set_dead(a, true);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 0);

  f.transport->set_dead(a, false);
  f.transport->send(a, b, Message(GossipGraftMsg{}));
  f.engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(SimTransport, StatsAccounting) {
  Fixture f;
  const auto a = f.transport->add_node(0);
  const auto b = f.transport->add_node(1);
  f.transport->set_handler(b, [](NodeIndex, Message&&) {});
  CellQueryMsg q;
  q.cells.resize(10);
  const auto size = wire_size(Message(q));
  f.transport->send(a, b, Message(q));
  f.engine.run();
  EXPECT_EQ(f.transport->stats(a).msgs_sent, 1u);
  EXPECT_GE(f.transport->stats(a).bytes_sent, size);  // + packet overhead
  EXPECT_EQ(f.transport->stats(b).msgs_received, 1u);
  f.transport->reset_stats();
  EXPECT_EQ(f.transport->stats(a).msgs_sent, 0u);
}

TEST(Directory, DeterministicIds) {
  const auto d1 = Directory::create(10);
  const auto d2 = Directory::create(10);
  EXPECT_EQ(d1.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(d1.id_of(i), d2.id_of(i));
  }
  EXPECT_NE(d1.id_of(0), d1.id_of(1));
}

}  // namespace
}  // namespace pandas::net
