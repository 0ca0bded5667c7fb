#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/fetcher.h"
#include "core/reputation.h"
#include "core/rtt.h"
#include "util/prng.h"

namespace pandas::core {
namespace {

/// Small deterministic world for fetcher unit tests: 6 nodes, 8x8 matrix
/// (k=4), explicit assignments.
struct World {
  ProtocolParams params;
  std::vector<AssignedLines> assignments;
  std::unique_ptr<AssignmentTable> table;
  sim::Engine engine{1};
  View view;

  World() {
    params.matrix_k = 4;
    params.matrix_n = 8;
    params.rows_per_node = 1;
    params.cols_per_node = 1;
    params.candidates_per_line = 0;  // exhaustive for tests

    // node 0: row 0 / col 0; node 1: row 0 / col 1; node 2: row 1 / col 0;
    // node 3: row 1 / col 1; node 4: row 2 / col 2; node 5: row 3 / col 3.
    assignments.resize(6);
    auto set = [&](std::size_t i, std::uint16_t r, std::uint16_t c) {
      assignments[i].rows = {r};
      assignments[i].cols = {c};
    };
    set(0, 0, 0);
    set(1, 0, 1);
    set(2, 1, 0);
    set(3, 1, 1);
    set(4, 2, 2);
    set(5, 3, 3);
    table = std::make_unique<AssignmentTable>(params, assignments);
    view = View::full(6);
  }

  std::shared_ptr<AdaptiveFetcher> make_fetcher(net::NodeIndex self) {
    return std::make_shared<AdaptiveFetcher>(engine, params, *table, &view,
                                             self, engine.rng_stream(self));
  }
};

using Queries = std::map<net::NodeIndex, std::vector<net::CellId>>;

AdaptiveFetcher::SendQueryFn collect(Queries& out) {
  return [&out](net::NodeIndex target, std::vector<net::CellId> cells,
                std::uint32_t /*round*/, bool /*redraw*/) {
    auto& v = out[target];
    v.insert(v.end(), cells.begin(), cells.end());
  };
}

TEST(Fetcher, EmptyNeedIsImmediatelyComplete) {
  World w;
  auto f = w.make_fetcher(0);
  Queries q;
  f->start({}, {}, collect(q));
  EXPECT_TRUE(f->complete());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(f->rounds_used(), 0u);
}

TEST(Fetcher, QueriesOnlyAssignedNodes) {
  World w;
  auto f = w.make_fetcher(0);  // self = node 0
  // Want cell (1, 5): row 1 -> nodes 2, 3; col 5 -> nobody.
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_FALSE(q.empty());
  for (const auto& [node, cells] : q) {
    EXPECT_TRUE(node == 2 || node == 3) << "queried node " << node;
    for (const auto c : cells) EXPECT_EQ(c, (net::CellId{1, 5}));
  }
}

TEST(Fetcher, NeverQueriesSelfOrOutOfView) {
  World w;
  w.view = View::full(6);
  auto f = w.make_fetcher(2);  // node 2 is assigned row 1
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(q.count(2), 0u) << "must not query itself";

  // Restrict the view to exclude node 3: only... nobody left for row 1.
  World w2;
  util::Xoshiro256 vrng(5);
  // Build a view containing only nodes {0, 1, 2} (excludes 3).
  w2.view = View::random_subset(6, 0.0, vrng, 0);
  auto f2 = w2.make_fetcher(0);
  Queries q2;
  f2->start(needed, {}, collect(q2));
  EXPECT_TRUE(q2.empty()) << "no eligible candidate in view";
  EXPECT_FALSE(f2->complete());
}

TEST(Fetcher, EachNodeQueriedOncePerCycle) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {1, 6}};
  std::map<net::NodeIndex, int> messages;
  f->start(needed, {},
           [&](net::NodeIndex target, std::vector<net::CellId>, std::uint32_t,
               bool) { messages[target] += 1; });
  // Within the first fetch cycle (before the 2-node candidate pool is
  // exhausted) nobody is queried twice.
  w.engine.run_until(500 * sim::kMillisecond);
  for (const auto& [node, count] : messages) {
    EXPECT_EQ(count, 1) << "node " << node << " queried twice in one cycle";
  }
  // With no replies ever arriving, the fetcher starts fresh cycles rather
  // than stalling (lagging nodes re-fetch within the slot, §8.2) — but each
  // cycle still queries a node at most once.
  messages.clear();
  w.engine.run_until(10 * sim::kSecond);
  int max_count = 0;
  for (const auto& [node, count] : messages) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 0) << "re-query cycles should continue";
  EXPECT_FALSE(f->complete());
}

TEST(Fetcher, RedundancyGrowsAcrossRounds) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};  // servable by nodes 2 and 3
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(q.size(), 1u);  // round 1: k=1 -> one node
  w.engine.run_until(sim::kSecond);
  // Round 2 wants cumulative coverage 2 -> the second node gets queried too.
  EXPECT_EQ(q.size(), 2u);
}

// The planner's under-covered bookkeeping, checked from the outside on a
// random assignment with no replies: per round i, with k_i the cumulative
// redundancy target,
//  - a query asks only for cells its target holds that are still below k_i
//    (so a candidate whose cells of interest are all covered gets none);
//  - no cell of F ends the round above k_i;
//  - a cell ends below k_i only when every holder has been queried.
TEST(Fetcher, PlanningTopsEveryCellUpToRedundancyTarget) {
  ProtocolParams params;
  params.matrix_k = 8;
  params.matrix_n = 16;
  params.rows_per_node = 2;
  params.cols_per_node = 2;
  params.candidates_per_line = 0;  // every holder is a candidate
  const std::uint32_t nodes = 24;
  const auto directory = net::Directory::create(nodes);
  const AssignmentTable table(params, directory, epoch_seed(3, 0));
  const View view = View::full(nodes);
  sim::Engine engine{7};
  auto f = std::make_shared<AdaptiveFetcher>(engine, params, table, &view, 0,
                                             engine.rng_stream(0));

  util::Xoshiro256 rng(11);
  std::set<net::CellId> f_set;
  while (f_set.size() < 40) {
    f_set.insert({static_cast<std::uint16_t>(rng.uniform(16)),
                  static_cast<std::uint16_t>(rng.uniform(16))});
  }
  const std::vector<net::CellId> needed(f_set.begin(), f_set.end());
  struct Sent {
    net::NodeIndex target;
    std::vector<net::CellId> cells;
    std::uint32_t round;
  };
  std::vector<Sent> sent;
  f->start(needed, {},
           [&](net::NodeIndex target, std::vector<net::CellId> cells,
               std::uint32_t round, bool redraw) {
             EXPECT_FALSE(redraw);
             sent.push_back({target, std::move(cells), round});
           });
  engine.run_until(2 * sim::kSecond);

  auto holds = [&](net::NodeIndex n, net::CellId c) {
    return table.node_has_row(n, c.row) || table.node_has_col(n, c.col);
  };
  std::map<net::CellId, std::uint32_t> coverage;
  std::set<net::NodeIndex> queried;
  std::size_t next = 0;
  std::uint32_t checked_rounds = 0;
  for (std::uint32_t round = 1; round <= f->rounds_used(); ++round) {
    const std::uint32_t k = params.redundancy_for_round(round);
    const std::size_t first = next;
    for (; next < sent.size() && sent[next].round == round; ++next) {
      const auto& q = sent[next];
      EXPECT_NE(q.target, 0u);
      EXPECT_TRUE(queried.insert(q.target).second) << "peer queried twice";
      ASSERT_FALSE(q.cells.empty());
      for (const auto c : q.cells) {
        EXPECT_TRUE(f_set.count(c) != 0 && holds(q.target, c));
        EXPECT_LT(coverage[c]++, k) << "cell already covered in round " << round;
      }
    }
    // A round that sends nothing restarts the cycle (coverage resets).
    if (next == first) break;
    ++checked_rounds;
    for (const auto c : needed) {
      EXPECT_LE(coverage[c], k);
      if (coverage[c] == k) continue;
      for (net::NodeIndex n = 1; n < nodes; ++n) {
        EXPECT_FALSE(holds(n, c) && queried.count(n) == 0)
            << "round " << round << ": holder " << n << " left unqueried";
      }
    }
  }
  EXPECT_GE(checked_rounds, 3u);
}

TEST(Fetcher, ObtainedCellsLeaveF) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  EXPECT_EQ(f->outstanding(), 2u);
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  EXPECT_EQ(f->outstanding(), 1u);
  f->on_cells_obtained(got);  // idempotent
  EXPECT_EQ(f->outstanding(), 1u);
  const std::vector<net::CellId> got2{{2, 2}};
  f->on_cells_obtained(got2);
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->initial_outstanding(), 2u);
}

TEST(Fetcher, StopsWhenComplete) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  w.engine.run_until(5 * sim::kSecond);
  EXPECT_TRUE(f->complete());
  // No further queries after completion.
  EXPECT_LE(q.size(), 1u);
  EXPECT_LE(f->rounds_used(), 2u);
}

TEST(Fetcher, BoostedCandidatePreferredAndAskedSeededCells) {
  World w;
  // Node 0 fetches its row 0 cells; boost says node 1 was seeded cells
  // (0,2) and (0,3).
  auto lb = std::make_shared<net::LineBoost>();
  lb->line = net::LineRef::row(0);
  lb->entries = {{1, 2}, {1, 3}};
  lb->finalize();
  net::BoostMap boost{lb};

  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{0, 2}, {0, 3}};
  Queries q;
  f->start(needed, boost, collect(q));
  // k=1: both cells should be planned on the boosted node 1, nothing else.
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.begin()->first, 1u);
  EXPECT_EQ(q.begin()->second.size(), 2u);
}

TEST(Fetcher, RoundStatsAttribution) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto target = q.begin()->first;

  // Reply arrives within the 400 ms round-1 window.
  w.engine.schedule_at(100 * sim::kMillisecond, [&] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(target, 1, 0, 0);
  });
  w.engine.run_until(2 * sim::kSecond);
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].messages_sent, 1u);
  EXPECT_EQ(stats[0].cells_requested, 1u);
  EXPECT_EQ(stats[0].replies_in_round, 1u);
  EXPECT_EQ(stats[0].cells_in_round, 1u);
  EXPECT_EQ(stats[0].replies_after_round, 0u);
}

TEST(Fetcher, LateReplyAttributedAfterRound) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  std::vector<net::NodeIndex> round1_targets;
  for (const auto& [node, cells] : q) round1_targets.push_back(node);

  // Reply from a round-1 target lands 500 ms later (past the 400 ms round-1
  // window but before the candidate pool exhausts and a new cycle begins).
  w.engine.schedule_at(500 * sim::kMillisecond, [&] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(round1_targets.front(), 1, 0, 0);
  });
  w.engine.run_until(600 * sim::kMillisecond);
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].replies_after_round, 1u);
  EXPECT_EQ(stats[0].cells_after_round, 1u);
}

TEST(Fetcher, MaxRoundsBoundsEffort) {
  World w;
  w.params.max_rounds = 3;
  w.table = std::make_unique<AssignmentTable>(w.params, w.assignments);
  auto f = std::make_shared<AdaptiveFetcher>(w.engine, w.params, *w.table,
                                             &w.view, 0, w.engine.rng_stream(9));
  const std::vector<net::CellId> needed{{7, 7}};  // nobody assigned
  Queries q;
  f->start(needed, {}, collect(q));
  w.engine.run_until(30 * sim::kSecond);
  EXPECT_LE(f->rounds_used(), 3u);
  EXPECT_FALSE(f->complete());
}

// ------------------------------------------------------------ hedging / RTO
//
// A PeerRtt seeded with a 25 ms prior yields RTO = 25 + 4*12.5 = 75 ms —
// well inside the 400 ms round-1 window, so the hedge machinery fires
// deterministically in these tests.

TEST(FetcherHedging, RtoExpiryHedgesToSecondCustodian) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  // Cell (1,5): exactly two custodians, nodes 2 and 3. Round 1 (k=1)
  // queries one; the RTO at 75 ms hedges to the other.
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  w.engine.run_until(200 * sim::kMillisecond);  // before round 2 at 400 ms
  EXPECT_EQ(f->hedges_sent(), 1u);
  EXPECT_EQ(q.size(), 2u) << "hedge must reach the second custodian";
  EXPECT_TRUE(f->was_queried(2));
  EXPECT_TRUE(f->was_queried(3));
  // The hedge target's own RTO also expires (nobody replies), but with both
  // custodians queried there is no third candidate to hedge to.
  EXPECT_EQ(f->rto_expirations(), 2u);
  EXPECT_EQ(f->hedge_wins(), 0u);
}

TEST(FetcherHedging, ReplyBeforeRtoSuppressesHedge) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto target = q.begin()->first;
  // The queried peer answers at 50 ms, beating the 75 ms RTO.
  w.engine.schedule_at(50 * sim::kMillisecond, [&, target] {
    const std::vector<net::CellId> got{{1, 5}};
    f->on_cells_obtained(got);
    f->on_reply(target, 1, 0, 0);
  });
  w.engine.run_until(sim::kSecond);
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->rto_expirations(), 0u);
  EXPECT_EQ(f->hedges_sent(), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FetcherHedging, HedgeWinCountedWhenHedgeBeatsSlowPeer) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto slow = q.begin()->first;
  // Run past the RTO so the hedge goes out, then answer from the hedge
  // target while the slow peer is still silent.
  w.engine.run_until(100 * sim::kMillisecond);
  ASSERT_EQ(f->hedges_sent(), 1u);
  ASSERT_EQ(q.size(), 2u);
  net::NodeIndex hedge_target = net::kInvalidNode;
  for (const auto& [node, cells] : q) {
    if (node != slow) hedge_target = node;
  }
  ASSERT_NE(hedge_target, net::kInvalidNode);
  const std::vector<net::CellId> got{{1, 5}};
  f->on_cells_obtained(got);
  f->on_reply(hedge_target, 1, 0, 0);
  EXPECT_EQ(f->hedge_wins(), 1u);
  EXPECT_TRUE(f->complete());
  // The slow peer's eventual reply is not a second win.
  f->on_reply(slow, 0, 1, 0);
  EXPECT_EQ(f->hedge_wins(), 1u);
}

TEST(FetcherHedging, LastResortLadderReachesExtraCustodians) {
  World w;
  w.params.hedging = true;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = w.make_fetcher(0);
  f->set_rtt(&rtt);
  f->set_last_resort([] { return std::vector<net::NodeIndex>{5}; });
  // Cell (2,2): node 4 is the only assigned custodian. Once it is queried
  // the scored rungs are empty, so the hedge falls through to the
  // last-resort hook (e.g. DHT-discovered holders).
  const std::vector<net::CellId> needed{{2, 2}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  ASSERT_EQ(q.begin()->first, 4u);
  w.engine.run_until(200 * sim::kMillisecond);
  EXPECT_EQ(f->hedges_sent(), 1u);
  EXPECT_TRUE(f->was_queried(5));
}

TEST(FetcherHedging, OffByDefaultKeepsCountersZeroAndQueriesIdentical) {
  // With params.hedging false (the default), attaching an estimator must
  // not change the query stream at all: same targets, same cells, and all
  // hedging counters pinned at zero.
  World plain;
  auto f_plain = plain.make_fetcher(0);
  Queries q_plain;
  const std::vector<net::CellId> needed{{1, 5}, {2, 2}};
  f_plain->start(needed, {}, collect(q_plain));
  plain.engine.run_until(sim::kSecond);

  World timed;
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f_timed = timed.make_fetcher(0);
  f_timed->set_rtt(&rtt);
  Queries q_timed;
  f_timed->start(needed, {}, collect(q_timed));
  timed.engine.run_until(sim::kSecond);

  EXPECT_EQ(q_plain, q_timed);
  EXPECT_EQ(f_timed->rto_expirations(), 0u);
  EXPECT_EQ(f_timed->hedges_sent(), 0u);
  EXPECT_EQ(f_timed->hedge_wins(), 0u);
}

TEST(FetcherHedging, HedgedPairChargesAndRedeemsSlowPeerExactlyOnce) {
  // The reputation contract under hedging: the RTO expiry itself charges
  // nothing; only the round deadline charges the silent peer, once; and the
  // peer's late reply redeems that single charge, once — replayed replies
  // must not redeem further.
  World w;
  w.params.hedging = true;
  PeerReputation rep(w.params);
  PeerRtt rtt;
  rtt.set_prior([](std::uint32_t) { return 25.0; });
  auto f = std::make_shared<AdaptiveFetcher>(w.engine, w.params, *w.table,
                                             &w.view, 0,
                                             w.engine.rng_stream(0), &rep);
  f->set_rtt(&rtt);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  ASSERT_EQ(q.size(), 1u);
  const auto slow = q.begin()->first;

  // The hedge target answers at 100 ms (after the 75 ms RTO fired).
  w.engine.schedule_at(100 * sim::kMillisecond, [&] {
    for (const auto& [node, cells] : q) {
      if (node == slow) continue;
      const std::vector<net::CellId> got{{1, 5}};
      f->on_cells_obtained(got);
      f->on_reply(node, 1, 0, 0);
    }
  });

  // Past the RTO but before the 400 ms round deadline: the expiry alone
  // must not have charged the slow peer.
  w.engine.run_until(300 * sim::kMillisecond);
  EXPECT_GE(f->rto_expirations(), 1u);
  EXPECT_EQ(f->hedge_wins(), 1u);
  EXPECT_EQ(rep.timeout_events(), 0u);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);

  // The round deadline passes: exactly one timeout charged, to the slow
  // peer only (the hedge target replied in time).
  w.engine.run_until(500 * sim::kMillisecond);
  EXPECT_EQ(rep.timeout_events(), 1u);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), w.params.rep_timeout_penalty);

  // The slow peer finally replies (late, duplicate data): the one charge is
  // redeemed...
  f->on_reply(slow, 0, 1, 0);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);
  EXPECT_EQ(rep.timeout_events(), 1u);
  // ...and a replayed late reply finds nothing left to redeem: the penalty
  // stays floored at zero instead of going negative (redemption is capped
  // by what was actually charged — exactly once per charged timeout).
  f->on_reply(slow, 0, 1, 0);
  EXPECT_DOUBLE_EQ(rep.penalty(slow), 0.0);
  EXPECT_EQ(rep.timeout_events(), 1u) << "replay must not charge either";
}

TEST(Fetcher, UnsolicitedReplyIgnored) {
  World w;
  auto f = w.make_fetcher(0);
  const std::vector<net::CellId> needed{{1, 5}};
  Queries q;
  f->start(needed, {}, collect(q));
  f->on_reply(/*from=*/5, 3, 1, 0);  // node 5 was never queried
  const auto& stats = f->round_stats();
  ASSERT_GE(stats.size(), 1u);
  EXPECT_EQ(stats[0].replies_in_round + stats[0].replies_after_round, 0u);
}

TEST(CandidateRanking, PopOrderMatchesFullSort) {
  // Differential check against the full sort the ranking replaces:
  // decreasing score, then increasing mix64(node ^ salt). Scores come from a
  // handful of values, so most comparisons are ties.
  util::Xoshiro256 rng(0x4ea9);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t salt = rng();
    std::vector<CandidateRanking::Entry> entries;
    std::set<net::NodeIndex> used;
    const auto count = rng.uniform(200);
    const double scores[] = {0.0, 1.0, 3.0, 10'000.0, 10'003.5, 0.25};
    while (entries.size() < count) {
      const auto node = static_cast<net::NodeIndex>(rng.uniform(5000));
      if (!used.insert(node).second) continue;
      entries.push_back({scores[rng.uniform(trial % 2 == 0 ? 2 : 6)],
                         util::mix64(node ^ salt), node});
    }
    auto sorted = entries;
    std::sort(sorted.begin(), sorted.end(), [salt](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return util::mix64(a.node ^ salt) < util::mix64(b.node ^ salt);
    });
    CandidateRanking ranking(std::move(entries));
    for (const auto& e : sorted) ASSERT_EQ(ranking.pop(), e.node);
    EXPECT_EQ(ranking.pop(), net::kInvalidNode);
  }
}

}  // namespace
}  // namespace pandas::core
