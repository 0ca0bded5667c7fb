#include "core/fetcher.h"

#include <algorithm>

#include "core/reputation.h"
#include "core/rtt.h"

namespace pandas::core {

namespace {

std::uint32_t coverage_key(net::CellId cell) {
  return util::CellCounts::key(cell.row, cell.col);
}

}  // namespace

AdaptiveFetcher::AdaptiveFetcher(sim::Engine& engine, const ProtocolParams& params,
                                 const AssignmentTable& assignment,
                                 const View* view, net::NodeIndex self,
                                 util::Xoshiro256 rng, PeerReputation* reputation)
    : engine_(engine),
      params_(params),
      assignment_(assignment),
      view_(view),
      self_(self),
      rng_(rng),
      reputation_(reputation),
      line_slot_(2 * util::Bitmap512::kCapacity, 0),
      query_round_(assignment.node_count(), 0),
      replied_(assignment.node_count(), false),
      seen_(assignment.node_count(), 0) {}

const util::Bitmap512* AdaptiveFetcher::find_line(net::LineRef line) const {
  const int slot = line_slot(line);
  if (slot < 0) return nullptr;
  const MissingMap& map =
      line.kind == net::LineRef::Kind::kRow ? missing_rows_ : missing_cols_;
  return &map[static_cast<std::size_t>(slot)].second;
}

void AdaptiveFetcher::merge_lines(MissingMap& map, const util::Bitmap512& added,
                                  std::size_t base) {
  MissingMap merged;
  merged.reserve(map.size() + added.count());
  auto it = map.begin();
  added.for_each_set(util::Bitmap512::kCapacity, [&](std::uint32_t index) {
    for (; it != map.end() && it->first < index; ++it) merged.push_back(*it);
    merged.push_back({static_cast<std::uint16_t>(index), {}});
  });
  merged.insert(merged.end(), it, map.end());
  map = std::move(merged);
  for (std::size_t i = 0; i < map.size(); ++i) {
    line_slot_[base + map[i].first] = static_cast<std::uint16_t>(i + 1);
  }
}

void AdaptiveFetcher::add_needed(std::span<const net::CellId> cells) {
  // Lines new to F join each sorted map in one merge, so growing F costs
  // O(lines) per call rather than a shifted insert per new line.
  util::Bitmap512 new_rows;
  util::Bitmap512 new_cols;
  for (const auto cell : cells) {
    if (line_slot(net::LineRef::row(cell.row)) < 0) new_rows.set(cell.row);
    if (line_slot(net::LineRef::col(cell.col)) < 0) new_cols.set(cell.col);
  }
  if (new_rows.count() != 0) merge_lines(missing_rows_, new_rows, 0);
  if (new_cols.count() != 0) {
    merge_lines(missing_cols_, new_cols, util::Bitmap512::kCapacity);
  }
  for (const auto cell : cells) {
    auto& row = *find_line(net::LineRef::row(cell.row));
    if (row.test(cell.col)) continue;  // already in F
    row.set(cell.col);
    find_line(net::LineRef::col(cell.col))->set(cell.row);
    ++outstanding_;
  }
}

std::uint32_t AdaptiveFetcher::outstanding_in_line(net::LineRef line,
                                                   std::uint32_t n) const {
  const auto* bm = find_line(line);
  return bm == nullptr ? 0 : bm->count_prefix(n);
}

bool AdaptiveFetcher::is_outstanding(net::CellId cell) const {
  const auto* bm = find_line(net::LineRef::row(cell.row));
  return bm != nullptr && bm->test(cell.col);
}

void AdaptiveFetcher::start(std::span<const net::CellId> needed,
                            net::BoostMap boost, SendQueryFn send) {
  if (started_) return;
  started_ = true;
  fetch_deadline_ = engine_.now() + params_.deadline;
  send_ = std::move(send);
  boost_ = std::move(boost);
  add_needed(needed);
  initial_outstanding_ = outstanding_;
  if (outstanding_ == 0) return;
  rounds_active_ = true;
  run_round();
}

bool AdaptiveFetcher::clear_cell(net::CellId cell) {
  auto* row = find_line(net::LineRef::row(cell.row));
  if (row == nullptr || !row->test(cell.col)) return false;
  row->reset(cell.col);
  if (auto* col = find_line(net::LineRef::col(cell.col))) col->reset(cell.row);
  coverage_.erase(coverage_key(cell));
  --outstanding_;
  return true;
}

void AdaptiveFetcher::on_cells_obtained(std::span<const net::CellId> cells) {
  for (const auto cell : cells) clear_cell(cell);
}

FetchRoundStats& AdaptiveFetcher::stats_for_round(std::uint32_t round) {
  if (stats_.size() < round) stats_.resize(round);
  return stats_[round - 1];
}

void AdaptiveFetcher::set_replied(net::NodeIndex peer, bool value) {
  if (peer >= replied_.size()) replied_.resize(peer + 1, false);
  replied_[peer] = value;
}

void AdaptiveFetcher::on_reply(net::NodeIndex from, std::uint32_t new_cells,
                               std::uint32_t duplicates,
                               std::uint32_t reconstructed, bool buffered) {
  const std::uint32_t round = queried_round(from);
  if (round == 0) return;  // unsolicited
  // RTT sample for the estimator — first reply to a non-retransmitted query
  // only (Karn's rule), and never from the buffered-reply path (that
  // measures the peer's consolidation wait, not the network).
  if (rtt_ != nullptr && !buffered && !replied(from) &&
      retransmitted_.count(from) == 0) {
    const auto sit = query_sent_at_.find(from);
    if (sit != query_sent_at_.end()) {
      rtt_->sample(from, engine_.now() - sit->second);
    }
  }
  // A reply from a hedge target that beats the slow peer is a hedge win.
  const auto hit = hedge_of_.find(from);
  if (hit != hedge_of_.end()) {
    if (new_cells > 0 && !replied(hit->second)) {
      ++hedge_wins_;
      obs::emit(trace_, obs::EventType::kHedgeWin, engine_.now(), from,
                new_cells, hit->second);
    }
    hedge_of_.erase(hit);
  }
  set_replied(from, true);
  if (reputation_ != nullptr && new_cells > 0) reputation_->record_success(from);
  auto& st = stats_for_round(round);
  const bool in_round = round <= round_deadline_.size() &&
                        engine_.now() <= round_deadline_[round - 1];
  if (in_round) {
    st.replies_in_round += 1;
    st.cells_in_round += new_cells;
  } else {
    st.replies_after_round += 1;
    st.cells_after_round += new_cells;
    // The silence was already charged as a timeout at the round deadline;
    // the late reply proves the peer alive, so the charge is refunded.
    if (reputation_ != nullptr) reputation_->redeem_timeout(from);
  }
  st.duplicates += duplicates;
  st.reconstructed += reconstructed;
}

void AdaptiveFetcher::on_corrupt_reply(net::NodeIndex from,
                                       std::span<const net::CellId> cells) {
  if (!started_ || queried_round(from) == 0) return;
  set_replied(from, true);  // it did reply; the corrupt penalty is separate
  std::vector<net::CellId> need;
  for (const auto cell : cells) {
    if (!is_outstanding(cell)) continue;
    // Release the coverage the forged reply was credited with.
    coverage_.decrement(coverage_key(cell));
    need.push_back(cell);
  }
  if (need.empty() || !rounds_active_ || round_ == 0) return;

  // Immediate redraw: one replacement query per forged cell, planned over
  // the clean candidates only (the forger is already queried this cycle and
  // the reputation hit has demoted any accomplices).
  CandidateRanking ranking = rank_candidates(1);
  std::vector<net::CellId> interest;
  for (net::NodeIndex node; !need.empty() &&
                            (node = ranking.pop()) != net::kInvalidNode;) {
    materialize_interest(node, interest);
    std::vector<net::CellId> query_cells;
    for (const auto cell : interest) {
      const auto hit = std::find(need.begin(), need.end(), cell);
      if (hit == need.end()) continue;
      need.erase(hit);
      query_cells.push_back(cell);
    }
    if (query_cells.empty()) continue;
    for (const auto cell : query_cells) {
      coverage_.increment(coverage_key(cell));
    }
    dispatch(node, std::move(query_cells), current_round_end(),
             /*redraw=*/true);
  }
}

void AdaptiveFetcher::dispatch(net::NodeIndex target,
                               std::vector<net::CellId> cells,
                               sim::Time round_end, bool redraw) {
  auto& st = stats_for_round(round_);
  st.messages_sent += 1;
  st.cells_requested += static_cast<std::uint32_t>(cells.size());
  note_query_sent(target, cells);
  if (target >= query_round_.size()) query_round_.resize(target + 1, 0);
  query_round_[target] = round_;
  cycle_queried_ = true;
  set_replied(target, false);  // a fresh query must be answered anew
  arm_rto(target, round_, round_end);
  send_(target, std::move(cells), round_, redraw);
}

void AdaptiveFetcher::note_query_sent(net::NodeIndex node,
                                      const std::vector<net::CellId>& cells) {
  if (rtt_ == nullptr) return;
  if (query_sent_at_.count(node) != 0 && !replied(node)) {
    // Karn's rule: re-querying a peer whose prior query is still unanswered
    // makes the next reply ambiguous — it must never feed the estimator.
    retransmitted_.insert(node);
  } else {
    retransmitted_.erase(node);
  }
  query_sent_at_[node] = engine_.now();
  if (params_.hedging) query_cells_[node] = cells;
}

void AdaptiveFetcher::arm_rto(net::NodeIndex peer, std::uint32_t round,
                              sim::Time round_end) {
  if (!params_.hedging || rtt_ == nullptr) return;
  const sim::Time rto = rtt_->rto(peer);
  const sim::Time fire = engine_.now() + rto;
  // Hedge only when the RTO verdict lands inside the round budget (otherwise
  // the round deadline is the verdict) and the slot deadline still has room
  // for the duplicate to pay off.
  if (fire >= round_end || fire >= fetch_deadline_) return;
  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), rto,
                         [weak = weak_from_this(), peer, round]() {
                           if (const auto self = weak.lock()) {
                             self->on_rto(peer, round);
                           }
                         });
}

void AdaptiveFetcher::on_rto(net::NodeIndex peer, std::uint32_t round) {
  if (!rounds_active_ || !params_.hedging || rtt_ == nullptr) return;
  if (queried_round(peer) != round) return;  // stale timer
  if (replied(peer)) return;  // the reply beat the timer
  ++rto_expirations_;
  // Exponential backoff for this peer's future timers (Karn). Reputation is
  // deliberately NOT charged here: only the round deadline charges, once.
  rtt_->timeout(peer);
  obs::emit(trace_, obs::EventType::kRtoExpired, engine_.now(), peer, round,
            static_cast<std::int64_t>(rtt_->rto(peer)));

  auto& hedges = hedges_for_[peer];
  if (hedges >= params_.hedge_max_per_query) return;
  if (engine_.now() >= fetch_deadline_) return;

  // Cells the slow peer was asked for that are still missing.
  std::vector<net::CellId> need;
  const auto cit = query_cells_.find(peer);
  if (cit != query_cells_.end()) {
    for (const auto cell : cit->second) {
      if (is_outstanding(cell)) need.push_back(cell);
    }
  }
  if (need.empty()) return;

  // Degradation ladder, rungs 1+2: the normal candidate machinery — boost
  // recipients are gathered first and outscore plain custodians via
  // cb_boost, so "scored direct peers → consolidation-boost peers" falls
  // out of the existing ranking.
  net::NodeIndex target = net::kInvalidNode;
  std::vector<net::CellId> hedge_cells;
  CandidateRanking ranking = rank_candidates(1);
  std::vector<net::CellId> interest;
  for (net::NodeIndex node; (node = ranking.pop()) != net::kInvalidNode;) {
    materialize_interest(node, interest);
    std::vector<net::CellId> overlap;
    for (const auto cell : interest) {
      if (std::find(need.begin(), need.end(), cell) != need.end()) {
        overlap.push_back(cell);
      }
    }
    if (overlap.empty()) continue;
    target = node;
    hedge_cells = std::move(overlap);
    break;
  }
  // Rung 3: last-resort custodians (e.g. DHT-discovered). Deliberately not
  // view-filtered — reaching holders outside the view is their purpose.
  if (target == net::kInvalidNode && last_resort_) {
    for (const auto n : last_resort_()) {
      if (n == self_ || queried_round(n) != 0) continue;
      if (reputation_ != nullptr &&
          reputation_->greylisted(n, engine_.now())) {
        continue;
      }
      target = n;
      hedge_cells = need;
      break;
    }
  }
  if (target == net::kInvalidNode) return;

  ++hedges;
  ++hedges_sent_;
  for (const auto cell : hedge_cells) {
    coverage_.increment(coverage_key(cell));
  }
  hedge_of_[target] = peer;
  obs::emit(trace_, obs::EventType::kHedgeSent, engine_.now(), target,
            static_cast<std::int64_t>(hedge_cells.size()), peer);
  dispatch(target, std::move(hedge_cells), current_round_end(),
           /*redraw=*/true);
}

CandidateRanking::CandidateRanking(std::vector<Entry> entries)
    : heap_(std::move(entries)) {
  std::make_heap(heap_.begin(), heap_.end(), ranks_below);
}

bool CandidateRanking::ranks_below(const Entry& a, const Entry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.tie > b.tie;
}

net::NodeIndex CandidateRanking::pop() {
  if (heap_.empty()) return net::kInvalidNode;
  std::pop_heap(heap_.begin(), heap_.end(), ranks_below);
  const net::NodeIndex node = heap_.back().node;
  heap_.pop_back();
  return node;
}

CandidateRanking AdaptiveFetcher::rank_candidates(std::uint32_t k) {
  std::vector<net::NodeIndex> pool;
  gather_candidates(k, pool);
  std::vector<CandidateRanking::Entry> scored;
  score_candidates(pool, scored);
  // Ties are broken by a per-call random salt rather than node index: with
  // index order every fetcher in the network would converge on the same
  // lowest-index holders and overload their uplinks.
  const std::uint64_t salt = rng_();
  for (auto& e : scored) e.tie = util::mix64(e.node ^ salt);
  return CandidateRanking(std::move(scored));
}

void AdaptiveFetcher::gather_candidates(std::uint32_t k,
                                        std::vector<net::NodeIndex>& out) {
  if (++seen_stamp_ == 0) {  // wrapped: old stamps could alias
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_stamp_ = 1;
  }
  const std::uint32_t cap =
      params_.candidates_per_line == 0
          ? ~0u
          : std::max(params_.candidates_per_line, 3 * k);

  // Each node is judged once per call: a node appears on many lines of F,
  // and none of the filters can change within the call (a repeated
  // greylisted() query at the same instant answers the same).
  auto add = [&](net::NodeIndex n) {
    if (n >= seen_.size() || seen_[n] == seen_stamp_) return;
    seen_[n] = seen_stamp_;
    if (n == self_ || queried_round(n) != 0 ||
        (view_ != nullptr && !view_->contains(n))) {
      return;
    }
    if (reputation_ != nullptr && reputation_->greylisted(n, engine_.now())) {
      return;
    }
    out.push_back(n);
  };

  // Boosted candidates first: recipients of seeded cells we still miss.
  for (const auto& lb : boost_) {
    if (!lb) continue;
    const auto* missing = find_line(lb->line);
    if (missing == nullptr) continue;
    std::uint32_t taken = 0;
    lb->for_each_marked_recipient(*missing, [&](net::NodeIndex node) {
      add(node);
      return ++taken < cap;
    });
  }
  // Then, per line of interest, a random sample of assigned nodes.
  auto sample_line = [&](net::LineRef line) {
    const auto& pool = assignment_.assigned_to(line);
    if (pool.empty()) return;
    if (pool.size() <= cap) {
      for (const auto n : pool) add(n);
      return;
    }
    const auto picks =
        rng_.sample_distinct(static_cast<std::uint32_t>(pool.size()), cap);
    for (const auto i : picks) add(pool[i]);
  };
  for (const auto& entry : missing_rows_) {
    sample_line(net::LineRef::row(entry.first));
  }
  for (const auto& entry : missing_cols_) {
    sample_line(net::LineRef::col(entry.first));
  }
}

void AdaptiveFetcher::score_candidates(const std::vector<net::NodeIndex>& nodes,
                                       std::vector<CandidateRanking::Entry>& out) {
  // Scoring only needs |cells of interest| and the number of boosted seeded
  // cells; the cell lists themselves are built for the (far fewer)
  // candidates that get popped. Missing-cell counts per line come from one
  // dense table (rows, then columns) built once per call.
  const std::uint32_t n = params_.matrix_n;
  std::vector<std::uint32_t> missing_in(2 * util::Bitmap512::kCapacity, 0);
  for (const auto& [row, bm] : missing_rows_) {
    missing_in[row] = bm.count_prefix(n);
  }
  for (const auto& [col, bm] : missing_cols_) {
    missing_in[util::Bitmap512::kCapacity + col] = bm.count_prefix(n);
  }
  out.reserve(nodes.size());
  for (const auto node : nodes) {
    const AssignedLines& lines = assignment_.of(node);
    std::uint32_t interest = 0;
    for (const auto r : lines.rows) interest += missing_in[r];
    for (const auto c : lines.cols) {
      interest += missing_in[util::Bitmap512::kCapacity + c];
    }
    if (interest == 0) continue;
    // (Cells sitting at the intersection of two of the candidate's own lines
    // are counted twice; the bias is negligible for ranking.)
    double score = static_cast<double>(interest);

    // Consolidation-boost: +cb_boost per missing cell the builder declared
    // as seeded to this candidate (Algorithm 1, lines 7-9).
    std::uint32_t seeded = 0;
    for (const auto& lb : boost_) {
      if (!lb) continue;
      if (!assignment_.node_has_line(node, lb->line)) continue;
      if (const auto* missing = find_line(lb->line)) {
        seeded += lb->count_marked(node, *missing);
      }
    }
    score += params_.cb_boost * static_cast<double>(seeded);
    // Reputation demotes the whole score (boost included): a boosted holder
    // that previously served garbage loses ties to clean fallback peers.
    if (reputation_ != nullptr) score *= reputation_->weight(node);
    out.push_back({score, 0, node});
  }
}

void AdaptiveFetcher::materialize_seeded(net::NodeIndex node,
                                         std::vector<net::CellId>& out) const {
  out.clear();
  for (const auto& lb : boost_) {
    if (!lb) continue;
    if (!assignment_.node_has_line(node, lb->line)) continue;
    const auto* missing = find_line(lb->line);
    if (missing == nullptr) continue;
    const bool is_row = lb->line.kind == net::LineRef::Kind::kRow;
    lb->for_each_run_of(node, [&](std::uint16_t first, std::uint32_t len) {
      for (std::uint32_t pos = first; pos < first + len; ++pos) {
        if (!missing->test(pos)) continue;
        const auto p = static_cast<std::uint16_t>(pos);
        out.push_back(is_row ? net::CellId{lb->line.index, p}
                             : net::CellId{p, lb->line.index});
      }
    });
  }
}

void AdaptiveFetcher::materialize_interest(net::NodeIndex node,
                                           std::vector<net::CellId>& out) const {
  out.clear();
  const AssignedLines& lines = assignment_.of(node);
  for (const auto r : lines.rows) {
    if (const auto* bm = find_line(net::LineRef::row(r))) {
      bm->for_each_set(params_.matrix_n, [&](std::uint32_t col) {
        out.push_back({r, static_cast<std::uint16_t>(col)});
      });
    }
  }
  for (const auto c : lines.cols) {
    if (const auto* bm = find_line(net::LineRef::col(c))) {
      bm->for_each_set(params_.matrix_n, [&](std::uint32_t row) {
        out.push_back({static_cast<std::uint16_t>(row), c});
      });
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void AdaptiveFetcher::record_round_timeouts(std::uint32_t round) {
  if (reputation_ == nullptr || round == 0) return;
  // Ascending peer order (query_round_ is dense).
  for (net::NodeIndex peer = 0; peer < query_round_.size(); ++peer) {
    if (query_round_[peer] != round || replied(peer)) continue;
    if (reputation_->record_timeout(peer, engine_.now())) {
      obs::emit(trace_, obs::EventType::kPeerGreylisted, engine_.now(), peer);
    }
  }
}

void AdaptiveFetcher::run_round() {
  if (!rounds_active_) return;
  // The previous round's deadline just expired: queried peers that stayed
  // silent are charged a timeout (a late reply later redeems them).
  record_round_timeouts(round_);
  if (round_ > 0 && round_ <= stats_.size()) {
    stats_[round_ - 1].remaining_after = outstanding_;
  }
  if (topup_ && round_ > 0) {
    const auto extra = topup_();
    if (!extra.empty()) add_needed(extra);
  }
  if (outstanding_ == 0 || round_ >= params_.max_rounds) {
    rounds_active_ = false;
    return;
  }
  ++round_;
  obs::emit(trace_, obs::EventType::kRoundStart, engine_.now(), obs::kNoPeer,
            round_, static_cast<std::int64_t>(outstanding_));
  // Schedules are relative to the current fetch cycle: a re-invocation of
  // FETCH (after candidate exhaustion) restarts with cautious parameters.
  const std::uint32_t cycle_round = round_ - cycle_start_round_;
  const std::uint32_t k = params_.redundancy_for_round(cycle_round);
  const sim::Time timeout = params_.timeout_for_round(cycle_round);
  const sim::Time round_end = engine_.now() + timeout;

  CandidateRanking ranking = rank_candidates(k);

  // Greedy planning (Algorithm 1, lines 11-17): walk candidates by
  // decreasing score; each planned query asks a candidate for its cells of
  // interest that are still under the cumulative redundancy target k
  // (c_j.cells ∩ U). A cell leaves U once k queries (across all rounds so
  // far) cover it. U is kept as one bitmap per missing row and column
  // (aligned with missing_rows_ / missing_cols_), built once here and
  // cleared cell by cell as planning covers it, so a query is read straight
  // off its candidate's lines.
  const std::uint32_t n = params_.matrix_n;
  std::vector<util::Bitmap512> under_rows(missing_rows_.size());
  std::vector<util::Bitmap512> under_cols(missing_cols_.size());
  auto under_of = [&](net::LineRef line) -> util::Bitmap512* {
    const int slot = line_slot(line);
    if (slot < 0) return nullptr;
    auto& bits = line.kind == net::LineRef::Kind::kRow ? under_rows : under_cols;
    return &bits[static_cast<std::size_t>(slot)];
  };
  std::uint64_t under = 0;
  for (std::size_t i = 0; i < missing_rows_.size(); ++i) {
    const std::uint16_t row = missing_rows_[i].first;
    missing_rows_[i].second.for_each_set(n, [&](std::uint32_t col) {
      const net::CellId cell{row, static_cast<std::uint16_t>(col)};
      if (coverage_.get(coverage_key(cell)) >= k) return;
      under_rows[i].set(col);
      under_of(net::LineRef::col(cell.col))->set(row);
      ++under;
    });
  }

  std::vector<net::CellId> seeded;
  for (net::NodeIndex node;
       under != 0 && (node = ranking.pop()) != net::kInvalidNode;) {
    // A candidate none of whose lines still holds a cell under target gets
    // no query (its seeded cells lie on those lines too).
    const AssignedLines& lines = assignment_.of(node);
    const auto under_on = [&](net::LineRef line) {
      const auto* bits = under_of(line);
      return bits != nullptr && bits->any_in(0, n);
    };
    bool any_under = false;
    for (const auto r : lines.rows) {
      any_under = any_under || under_on(net::LineRef::row(r));
    }
    for (const auto c : lines.cols) {
      any_under = any_under || under_on(net::LineRef::col(c));
    }
    if (!any_under) continue;
    // Prefer the cells the boost map says this candidate was seeded (it can
    // serve them without waiting for its own consolidation); fall back to
    // its full set of cells of interest otherwise. F does not change during
    // planning, so materializing them now equals doing so at scoring time.
    std::vector<net::CellId> query_cells;
    materialize_seeded(node, seeded);
    for (const auto cell : seeded) {
      if (under_of(net::LineRef::row(cell.row))->test(cell.col)) {
        query_cells.push_back(cell);
      }
    }
    if (query_cells.empty()) {
      for (const auto r : lines.rows) {
        if (const auto* bits = under_of(net::LineRef::row(r))) {
          bits->for_each_set(n, [&](std::uint32_t col) {
            query_cells.push_back({r, static_cast<std::uint16_t>(col)});
          });
        }
      }
      for (const auto c : lines.cols) {
        if (const auto* bits = under_of(net::LineRef::col(c))) {
          bits->for_each_set(n, [&](std::uint32_t row) {
            query_cells.push_back({static_cast<std::uint16_t>(row), c});
          });
        }
      }
      std::sort(query_cells.begin(), query_cells.end());
      query_cells.erase(std::unique(query_cells.begin(), query_cells.end()),
                        query_cells.end());
    }
    for (const auto cell : query_cells) {
      if (coverage_.increment(coverage_key(cell)) != k) {
        continue;
      }
      under_of(net::LineRef::row(cell.row))->reset(cell.col);
      under_of(net::LineRef::col(cell.col))->reset(cell.row);
      --under;
    }
    dispatch(node, std::move(query_cells), round_end, /*redraw=*/false);
  }

  // Candidate pool exhausted while cells are still missing: begin a fresh
  // FETCH cycle (Algorithm 1 is re-invoked with C = V; the paper notes that
  // lagging nodes run multiple fetch cycles per slot). Cumulative coverage
  // restarts with the cycle.
  sim::Time next_round_in = timeout;
  auto& st = stats_for_round(round_);
  if (st.messages_sent == 0 && outstanding_ > 0 && cycle_queried_) {
    if (++cycles_used_ > params_.max_cycles) {
      // Give up on active querying; buffered queries at peers may still
      // deliver the rest of F as their holders consolidate.
      rounds_active_ = false;
      return;
    }
    // Raising cycle_start_round_ retires every earlier query_round_ entry.
    cycle_queried_ = false;
    coverage_.clear();
    hedges_for_.clear();  // a fresh cycle earns a fresh hedge budget
    cycle_start_round_ = round_;
    // Back off before the re-invocation: peers need time to consolidate
    // before re-querying them is useful.
    next_round_in = params_.first_round_timeout;
  }

  round_deadline_.push_back(round_end);
  engine_.schedule_in_as(sim::Engine::lane_of_actor(self_), next_round_in, [weak = weak_from_this()]() {
    if (const auto self = weak.lock()) self->run_round();
  });
}

}  // namespace pandas::core
