#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "core/params.h"
#include "core/view.h"
#include "net/messages.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "util/bitmap.h"
#include "util/cell_counts.h"
#include "util/prng.h"

/// Adaptive fetching (paper §7, Algorithm 1).
///
/// One fetcher instance drives BOTH consolidation and sampling for a slot:
/// the input cell set F is the union of the node's missing assigned cells
/// and its 73 random samples. Fetching proceeds in rounds; round i uses
/// timeout t_i (400, 200, then 100 ms) and per-cell redundancy k_i (1, 2, 4,
/// 6, 8, then 10): cautious while the slot is young, aggressive as the 4 s
/// deadline nears.
///
/// Each round: (1) SCORE candidate peers by how many cells of interest they
/// are assigned, with an overwhelming bonus (cb_boost) per missing cell the
/// builder's consolidation-boost map says was seeded to them; (2) PLAN
/// greedily, highest score first, until every missing cell is covered by
/// k_i planned queries or candidates run out; (3) EXECUTE the queries
/// asynchronously and sleep t_i. A peer is queried at most once per slot.
///
/// With a PeerReputation attached, the greedy scoring also folds in peer
/// history: scores are multiplied by the peer's reputation weight, greylisted
/// peers are skipped outright, and a queried peer that stays silent past its
/// round deadline is reported as a timeout (late replies then redeem it).
///
/// With `params.hedging` on (off by default — the paper's schedule exactly),
/// every query also arms a per-peer RTO timer from the shared estimator
/// (core/rtt.h). An RTO expiring inside the round budget sends a hedged
/// duplicate query for the peer's still-missing cells to the next-best
/// candidate, walking a degradation ladder: scored direct peers →
/// consolidation-boost recipients (both via the normal candidate machinery,
/// which ranks boost holders first) → a last-resort provider hook
/// (DHT-discovered custodians). Hedges are capped by the remaining slot
/// deadline and by hedge_max_per_query, back off exponentially (Karn), and
/// never double-charge reputation: the RTO expiry itself charges nothing —
/// only the round deadline does, once, and a late reply redeems it once.
namespace pandas::core {

class PeerReputation;
class PeerRtt;

/// Per-round telemetry matching the rows of the paper's Table 1.
struct FetchRoundStats {
  std::uint32_t messages_sent = 0;
  std::uint32_t cells_requested = 0;
  std::uint32_t replies_in_round = 0;
  std::uint32_t replies_after_round = 0;
  std::uint32_t cells_in_round = 0;
  std::uint32_t cells_after_round = 0;
  std::uint32_t duplicates = 0;
  std::uint32_t reconstructed = 0;
  /// Cells still missing when the round's timeout expired.
  std::uint64_t remaining_after = 0;
};

/// Scored fetch candidates, handed out lazily in rank order: decreasing
/// score, ties broken by a salted key fixed once per ranking (lower wins).
/// Planning sends far fewer queries than there are candidates, so a heap
/// popped on demand replaces a full sort. With distinct nodes the order is
/// strict (the fetcher's key, mix64(node ^ salt), is a bijection of the
/// node index), so the pop order is exactly the sorted order.
class CandidateRanking {
 public:
  struct Entry {
    double score = 0.0;
    std::uint64_t tie = 0;
    net::NodeIndex node = 0;
  };
  explicit CandidateRanking(std::vector<Entry> entries);
  /// Next candidate in rank order, or kInvalidNode once exhausted.
  net::NodeIndex pop();

 private:
  /// Heap order: true when `a` ranks below `b`.
  static bool ranks_below(const Entry& a, const Entry& b);

  std::vector<Entry> heap_;
};

/// Hold AdaptiveFetcher in a std::shared_ptr: its round timers keep weak
/// references, so a fetcher abandoned at a slot boundary simply stops.
class AdaptiveFetcher : public std::enable_shared_from_this<AdaptiveFetcher> {
 public:
  /// `round` is the 1-based fetch round issuing the query; `redraw` marks
  /// immediate replacement queries after a corrupt reply. Both feed the
  /// query's causal metadata (obs/causal.h) so deadline attribution can
  /// distinguish round-timeout waits from corrupt-redraw waits.
  using SendQueryFn =
      std::function<void(net::NodeIndex target, std::vector<net::CellId> cells,
                         std::uint32_t round, bool redraw)>;

  /// `reputation` (optional, may outlive slots) enables history-aware
  /// candidate scoring; nullptr preserves the paper's memoryless scoring.
  AdaptiveFetcher(sim::Engine& engine, const ProtocolParams& params,
                  const AssignmentTable& assignment, const View* view,
                  net::NodeIndex self, util::Xoshiro256 rng,
                  PeerReputation* reputation = nullptr);

  /// Begins fetching the given cells. `boost` is the builder's CB map for
  /// this node's lines (may be empty). Idempotent per slot: only the first
  /// call starts rounds.
  void start(std::span<const net::CellId> needed, net::BoostMap boost,
             SendQueryFn send);

  /// Notifies the fetcher that cells became held locally (seed receipt,
  /// query replies, or erasure reconstruction) — they leave F.
  void on_cells_obtained(std::span<const net::CellId> cells);

  /// Installs a consolidation-boost map after start() — used when the seed
  /// message arrives late (after the fallback timer already launched the
  /// fetch); subsequent rounds then benefit from it.
  void update_boost(net::BoostMap boost) {
    if (boost_.empty() && !boost.empty()) boost_ = std::move(boost);
  }

  /// Adds further cells to F mid-fetch (the owner tops up a line whose
  /// outstanding requests no longer cover its reconstruction deficit — e.g.
  /// when the initially chosen cells turn out not to exist anywhere yet).
  void add_needed(std::span<const net::CellId> cells);

  /// Invoked at the start of every round; the returned cells join F.
  using TopUpFn = std::function<std::vector<net::CellId>()>;
  void set_topup(TopUpFn fn) { topup_ = std::move(fn); }

  /// Observability sink (nullptr = off); rounds emit round-start events.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Shared per-peer RTO estimator (core/rtt.h), owned by the node so it
  /// outlives slots. When set, query→reply times feed it (Karn's rule:
  /// buffered replies and re-queried peers are never sampled); when
  /// `params.hedging` is also on, RTO timers arm per query. nullptr = off.
  void set_rtt(PeerRtt* rtt) { rtt_ = rtt; }

  /// Last rung of the hedging degradation ladder: extra candidate nodes
  /// (e.g. DHT-discovered custodians) consulted only when scored peers and
  /// boost recipients are exhausted.
  using LastResortFn = std::function<std::vector<net::NodeIndex>()>;
  void set_last_resort(LastResortFn fn) { last_resort_ = std::move(fn); }

  /// Number of cells of `line` currently in F.
  [[nodiscard]] std::uint32_t outstanding_in_line(net::LineRef line,
                                                  std::uint32_t n) const;
  /// True if the cell is currently in F.
  [[nodiscard]] bool is_outstanding(net::CellId cell) const;

  /// Attribution hook for Table 1: a reply from `from` delivered `new_cells`
  /// fresh cells, `duplicates` already-held ones, and triggered
  /// `reconstructed` recoveries. `buffered` marks replies served from the
  /// peer's buffered-query path — they measure consolidation wait, not
  /// network RTT, so they never feed the estimator.
  void on_reply(net::NodeIndex from, std::uint32_t new_cells,
                std::uint32_t duplicates, std::uint32_t reconstructed,
                bool buffered = false);

  /// A reply from `from` carried cells whose proofs failed verification.
  /// Unlike silence, a forged reply is a positive signal: the coverage those
  /// queries were credited is released and replacement queries for the
  /// still-missing cells go out immediately instead of waiting for the
  /// round deadline.
  void on_corrupt_reply(net::NodeIndex from,
                        std::span<const net::CellId> cells);

  [[nodiscard]] bool complete() const noexcept { return outstanding_ == 0; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return outstanding_; }
  /// |F| when start() was called (denominator of Table 1's coverage row).
  [[nodiscard]] std::uint64_t initial_outstanding() const noexcept {
    return initial_outstanding_;
  }
  [[nodiscard]] std::uint32_t rounds_used() const noexcept { return round_; }
  [[nodiscard]] const std::vector<FetchRoundStats>& round_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] bool was_queried(net::NodeIndex n) const {
    return queried_round(n) != 0;
  }
  /// Hedging counters (0 unless params.hedging).
  [[nodiscard]] std::uint32_t rto_expirations() const noexcept {
    return rto_expirations_;
  }
  [[nodiscard]] std::uint32_t hedges_sent() const noexcept {
    return hedges_sent_;
  }
  [[nodiscard]] std::uint32_t hedge_wins() const noexcept {
    return hedge_wins_;
  }

 private:
  using MissingMap = std::vector<std::pair<std::uint16_t, util::Bitmap512>>;

  void run_round();
  /// Gathers and scores candidates, then ranks them. Shared by round
  /// planning, corrupt redraws and hedges.
  CandidateRanking rank_candidates(std::uint32_t k);
  void gather_candidates(std::uint32_t k, std::vector<net::NodeIndex>& out);
  /// Scores each node by its cells of interest plus cb_boost per missing
  /// cell seeded to it; nodes with no cell of interest are dropped.
  void score_candidates(const std::vector<net::NodeIndex>& nodes,
                        std::vector<CandidateRanking::Entry>& out);
  /// Fills `out` with `node`'s cells of interest (assignment ∩ F), sorted.
  void materialize_interest(net::NodeIndex node,
                            std::vector<net::CellId>& out) const;
  /// Fills `out` with the cells of F the consolidation-boost map declares
  /// as seeded to `node` — cells it can serve immediately — in boost order.
  void materialize_seeded(net::NodeIndex node,
                          std::vector<net::CellId>& out) const;
  /// Position of `line` in its MissingMap, or -1 when none of its cells is
  /// in F. O(1) through the dense line_slot_ table.
  [[nodiscard]] int line_slot(net::LineRef line) const {
    if (line.index >= util::Bitmap512::kCapacity) return -1;
    const std::size_t i = line.kind == net::LineRef::Kind::kRow
                              ? line.index
                              : util::Bitmap512::kCapacity + line.index;
    return static_cast<int>(line_slot_[i]) - 1;
  }
  [[nodiscard]] const util::Bitmap512* find_line(net::LineRef line) const;
  [[nodiscard]] util::Bitmap512* find_line(net::LineRef line) {
    return const_cast<util::Bitmap512*>(std::as_const(*this).find_line(line));
  }
  /// Merges the lines set in `added` (none already present) into `map` as
  /// empty bitmaps, keeping it sorted and exactly sized, and re-indexes
  /// line_slot_ (rows at offset 0, columns at Bitmap512::kCapacity).
  void merge_lines(MissingMap& map, const util::Bitmap512& added,
                   std::size_t base);
  /// Clears one cell from both indexes; returns true if it was outstanding.
  bool clear_cell(net::CellId cell);
  FetchRoundStats& stats_for_round(std::uint32_t round);

  /// Round in which `peer` was queried during the current fetch cycle, or 0.
  /// query_round_ keeps the round of each peer's latest query, and the round
  /// that starts a new cycle planned no query: entries below
  /// cycle_start_round_ belong to earlier cycles, so raising it retires them
  /// without a clearing pass.
  [[nodiscard]] std::uint32_t queried_round(net::NodeIndex peer) const {
    if (peer >= query_round_.size()) return 0;
    const std::uint32_t r = query_round_[peer];
    return r != 0 && r >= cycle_start_round_ ? r : 0;
  }
  [[nodiscard]] bool replied(net::NodeIndex peer) const {
    return peer < replied_.size() && replied_[peer];
  }
  void set_replied(net::NodeIndex peer, bool value);

  /// Charges round timeouts for peers queried in `round` that never replied.
  void record_round_timeouts(std::uint32_t round);

  /// Sends one query in the current round: round stats, Karn/RTT
  /// bookkeeping, the RTO timer (when `round_end` leaves room), then the
  /// send hook. Callers account coverage.
  void dispatch(net::NodeIndex target, std::vector<net::CellId> cells,
                sim::Time round_end, bool redraw);
  /// Deadline of the current round, or 0 (no RTO timer) before it is set.
  [[nodiscard]] sim::Time current_round_end() const {
    return round_ != 0 && round_ <= round_deadline_.size()
               ? round_deadline_[round_ - 1]
               : 0;
  }
  /// Bookkeeping common to every outgoing query: Karn retransmit marking
  /// and the send timestamp the RTT sample derives from (rtt_ set only).
  void note_query_sent(net::NodeIndex node,
                       const std::vector<net::CellId>& cells);
  /// Arms a hedging RTO timer for `peer`, provided the RTO lands inside
  /// both the round budget (`round_end`) and the slot deadline.
  void arm_rto(net::NodeIndex peer, std::uint32_t round, sim::Time round_end);
  void on_rto(net::NodeIndex peer, std::uint32_t round);

  sim::Engine& engine_;
  const ProtocolParams& params_;
  const AssignmentTable& assignment_;
  const View* view_;
  net::NodeIndex self_;
  util::Xoshiro256 rng_;
  PeerReputation* reputation_ = nullptr;

  SendQueryFn send_;
  net::BoostMap boost_;
  TopUpFn topup_;
  obs::TraceSink* trace_ = nullptr;

  /// F, indexed two ways: by row (canonical) and by column (mirror), each
  /// sorted by line index.
  MissingMap missing_rows_;
  MissingMap missing_cols_;
  /// Dense line -> 1 + MissingMap position (0 = no missing cell): rows,
  /// then columns, Bitmap512::kCapacity entries each. Rebuilt when lines
  /// join F.
  std::vector<std::uint16_t> line_slot_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t initial_outstanding_ = 0;

  bool started_ = false;
  bool rounds_active_ = false;
  std::uint32_t round_ = 0;
  std::uint32_t cycle_start_round_ = 0;  // round at which this cycle began
  std::uint32_t cycles_used_ = 1;
  std::vector<sim::Time> round_deadline_;  // index: round-1
  /// Per peer (dense NodeIndex): round of its latest query; see
  /// queried_round().
  std::vector<std::uint32_t> query_round_;
  bool cycle_queried_ = false;  ///< some peer was queried this cycle
  /// Per peer: replied to its outstanding query (re-querying in a later
  /// cycle clears it again), for round-timeout attribution.
  std::vector<bool> replied_;
  /// gather_candidates' de-duplication: a peer was judged in the current
  /// call iff its stamp equals seen_stamp_, so no per-call clearing is needed.
  std::vector<std::uint16_t> seen_;
  std::uint16_t seen_stamp_ = 0;
  /// Cumulative per-cell query count (queries planned so far this cycle,
  /// keyed by util::CellCounts::key). Redundancy targets are cumulative:
  /// round i tops every cell up to k_i total outstanding queries. Cells
  /// leave it as they leave F.
  util::CellCounts coverage_;
  std::vector<FetchRoundStats> stats_;

  /// ---- RTT / hedging state (inert when rtt_ == nullptr) ----
  PeerRtt* rtt_ = nullptr;
  LastResortFn last_resort_;
  sim::Time fetch_deadline_ = 0;  ///< start() time + params.deadline
  /// Send time of each peer's outstanding query (RTT sample base).
  std::unordered_map<net::NodeIndex, sim::Time> query_sent_at_;
  /// Cells each peer's outstanding query asked for (hedge work list).
  std::unordered_map<net::NodeIndex, std::vector<net::CellId>> query_cells_;
  /// Karn's rule: peers re-queried while a prior query was unanswered —
  /// their next reply is ambiguous and never sampled.
  std::unordered_set<net::NodeIndex> retransmitted_;
  /// Hedge target -> the slow peer it hedges (for hedge_wins accounting).
  std::unordered_map<net::NodeIndex, net::NodeIndex> hedge_of_;
  /// Slow peer -> hedges already sent for it this cycle.
  std::unordered_map<net::NodeIndex, std::uint32_t> hedges_for_;
  std::uint32_t rto_expirations_ = 0;
  std::uint32_t hedges_sent_ = 0;
  std::uint32_t hedge_wins_ = 0;
};

}  // namespace pandas::core
