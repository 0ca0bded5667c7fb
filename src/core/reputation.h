#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/params.h"
#include "net/messages.h"
#include "sim/time.h"

/// Per-peer reputation for the fetch path (defensive hardening against the
/// Byzantine behaviors of §4.1).
///
/// PANDAS has no NACKs and no per-cell acknowledgements, so the only signals
/// a node gets about a peer are (a) a reply whose cells verify, (b) a reply
/// carrying corrupt cells, and (c) silence past a round deadline. This class
/// folds those into a penalty score per peer:
///
///   - corrupt reply:   +rep_corrupt_penalty   (strong: proof forgery is
///                                              never an accident)
///   - round timeout:   +rep_timeout_penalty   (weak: loss and overload also
///                                              cause silence)
///   - useful reply:    -rep_success_credit    (floor 0)
///
/// The fetcher multiplies a candidate's score by
/// `1 / (1 + rep_weight_scale * penalty)`, so demoted peers lose ties
/// against clean ones but remain reachable when they are the only holders.
/// Once the penalty reaches `rep_greylist_threshold` the peer is greylisted:
/// skipped entirely for `rep_greylist_duration`, after which the penalty is
/// halved (repeat offenders re-greylist quickly, transient victims recover).
///
/// State persists across slots — that is the point: an adversary that burned
/// a requester in slot s is deprioritized in slot s+1.
namespace pandas::core {

class PeerReputation {
 public:
  explicit PeerReputation(const ProtocolParams& params) : params_(&params) {}

  /// Records a reply with at least one corrupt cell. Returns true if this
  /// event newly greylisted the peer (callers emit the trace event).
  bool record_corrupt(net::NodeIndex peer, sim::Time now) {
    ++corrupt_events_;
    return penalize(peer, params_->rep_corrupt_penalty, now);
  }

  /// Records a round deadline passing with no reply from a queried peer.
  /// Returns true if this event newly greylisted the peer.
  bool record_timeout(net::NodeIndex peer, sim::Time now) {
    ++timeout_events_;
    ++peers_[peer].charged_timeouts;
    return penalize(peer, params_->rep_timeout_penalty, now);
  }

  /// Records a useful (verified, non-empty) reply.
  void record_success(net::NodeIndex peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    it->second.penalty -= params_->rep_success_credit;
    if (it->second.penalty < 0.0) it->second.penalty = 0.0;
  }

  /// Refunds one charged timeout: the peer was not dead, it was consolidating
  /// and served the buffered query after the round deadline — legitimate
  /// protocol behavior that must not erode its standing.
  void redeem_timeout(net::NodeIndex peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.charged_timeouts == 0) return;
    --it->second.charged_timeouts;
    it->second.penalty -= params_->rep_timeout_penalty;
    if (it->second.penalty < 0.0) it->second.penalty = 0.0;
  }

  /// True while the peer is serving a greylist term. Expiry is lazy: the
  /// first query after the term halves the penalty and clears the flag.
  [[nodiscard]] bool greylisted(net::NodeIndex peer, sim::Time now) {
    if (open_terms_ == 0) return false;  // common: no term is open
    auto it = peers_.find(peer);
    if (it == peers_.end() || it->second.greylisted_until == 0) return false;
    if (now >= it->second.greylisted_until) {
      it->second.greylisted_until = 0;
      it->second.penalty *= 0.5;
      --open_terms_;
      return false;
    }
    return true;
  }

  /// Candidate score multiplier in (0, 1].
  [[nodiscard]] double weight(net::NodeIndex peer) const {
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return 1.0;
    return 1.0 / (1.0 + params_->rep_weight_scale * it->second.penalty);
  }

  [[nodiscard]] double penalty(net::NodeIndex peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() ? 0.0 : it->second.penalty;
  }

  /// Lifetime count of greylisting events (a peer re-offending counts again).
  [[nodiscard]] std::uint64_t greylist_events() const noexcept {
    return greylist_events_;
  }
  [[nodiscard]] std::uint64_t corrupt_events() const noexcept {
    return corrupt_events_;
  }
  [[nodiscard]] std::uint64_t timeout_events() const noexcept {
    return timeout_events_;
  }

 private:
  struct Entry {
    double penalty = 0.0;
    /// 0 = not greylisted (sim::Time 0 is before any slot activity).
    sim::Time greylisted_until = 0;
    /// Timeouts charged and not yet redeemed by a late reply.
    std::uint32_t charged_timeouts = 0;
  };

  bool penalize(net::NodeIndex peer, double amount, sim::Time now) {
    Entry& e = peers_[peer];
    e.penalty += amount;
    if (e.greylisted_until == 0 && e.penalty >= params_->rep_greylist_threshold) {
      e.greylisted_until = now + params_->rep_greylist_duration;
      ++greylist_events_;
      ++open_terms_;
      return true;
    }
    return false;
  }

  const ProtocolParams* params_;
  std::unordered_map<net::NodeIndex, Entry> peers_;
  std::uint64_t greylist_events_ = 0;
  /// Greylist terms not yet lazily expired (entries with greylisted_until
  /// set), so greylisted() skips the lookup while there are none.
  std::uint64_t open_terms_ = 0;
  std::uint64_t corrupt_events_ = 0;
  std::uint64_t timeout_events_ = 0;
};

}  // namespace pandas::core
