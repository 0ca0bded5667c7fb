#include "net/codec.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace pandas::net {

namespace {

/// Message type tags (stable wire identifiers, independent of the variant's
/// alternative order).
enum class Tag : std::uint8_t {
  kSeed = 1,
  kCellQuery = 2,
  kCellReply = 3,
  kGossipData = 4,
  kGossipIHave = 5,
  kGossipIWant = 6,
  kGossipGraft = 7,
  kGossipPrune = 8,
  kDhtFindNode = 9,
  kDhtNodes = 10,
  kDhtStore = 11,
  kDhtStoreAck = 12,
  kDhtFindValue = 13,
  kDhtValue = 14,
};

/// Hard cap on decoded sequence lengths: bounds allocations from hostile
/// datagrams (a real datagram cannot carry more than ~16 M entries anyway).
constexpr std::uint32_t kMaxSeq = 1u << 24;

/// Byte-producing writer. SizeWriter below implements the same interface;
/// the one EncodeVisitor drives both, so encoded_size() can never drift
/// from encode().
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void cells(const std::vector<CellId>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto c : v) u32(c.packed());
  }
  void ids(const std::vector<std::uint64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto id : v) u64(id);
  }
  void nodes(const std::vector<NodeIndex>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto n : v) u32(n);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Counting twin of Writer: tallies the bytes encode() would produce.
class SizeWriter {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void bytes(std::span<const std::uint8_t> b) { size_ += b.size(); }
  void cells(const std::vector<CellId>& v) { size_ += 4 + v.size() * 4; }
  void ids(const std::vector<std::uint64_t>& v) { size_ += 4 + v.size() * 8; }
  void nodes(const std::vector<NodeIndex>& v) { size_ += 4 + v.size() * 4; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(uN(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(uN(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uN(4)); }
  std::uint64_t u64() { return uN(8); }

  bool bytes(std::span<std::uint8_t> out) {
    if (!ensure(out.size())) return false;
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return true;
  }

  bool cells(std::vector<CellId>& out) {
    const auto count = u32();
    if (!ok_ || count > kMaxSeq || !ensure(static_cast<std::size_t>(count) * 4)) {
      return fail();
    }
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(CellId::unpack(u32()));
    return ok_;
  }

  bool ids(std::vector<std::uint64_t>& out) {
    const auto count = u32();
    if (!ok_ || count > kMaxSeq || !ensure(static_cast<std::size_t>(count) * 8)) {
      return fail();
    }
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(u64());
    return ok_;
  }

  bool nodes(std::vector<NodeIndex>& out) {
    const auto count = u32();
    if (!ok_ || count > kMaxSeq || !ensure(static_cast<std::size_t>(count) * 4)) {
      return fail();
    }
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(u32());
    return ok_;
  }

 private:
  std::uint64_t uN(std::size_t n) {
    if (!ensure(n)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }
  bool ensure(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) return fail();
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Proof-tag vectors must pair with their cells: either one tag per cell or
/// none at all (proofs stripped). Anything else is a malformed datagram.
bool tags_well_formed(const std::vector<std::uint64_t>& tags,
                      const std::vector<CellId>& cells) noexcept {
  return tags.empty() || tags.size() == cells.size();
}

template <typename W>
void put_node_id(W& w, const crypto::NodeId& id) { w.bytes(id.bytes); }

bool get_node_id(Reader& r, crypto::NodeId& id) { return r.bytes(id.bytes); }

/// Causal metadata (obs/causal.h). The CauseId's slot is the message's own
/// slot, so only (origin, seq) ride the wire; hop times are sim::Time
/// microseconds encoded as two's-complement u64.
template <typename W>
void put_cause(W& w, const obs::CauseId& c) {
  w.u32(c.origin);
  w.u32(c.seq);
}

void get_cause(Reader& r, obs::CauseId& c, std::uint64_t slot) {
  c.origin = r.u32();
  c.seq = r.u32();
  c.slot = slot;
}

template <typename W>
void put_hop(W& w, const obs::HopTiming& h) {
  w.u64(static_cast<std::uint64_t>(h.sent));
  w.u64(static_cast<std::uint64_t>(h.uplink_wait));
  w.u64(static_cast<std::uint64_t>(h.uplink_tx));
  w.u64(static_cast<std::uint64_t>(h.propagation));
  w.u64(static_cast<std::uint64_t>(h.downlink_wait));
  w.u64(static_cast<std::uint64_t>(h.downlink_rx));
  w.u64(static_cast<std::uint64_t>(h.delivered));
}

void get_hop(Reader& r, obs::HopTiming& h) {
  h.sent = static_cast<sim::Time>(r.u64());
  h.uplink_wait = static_cast<sim::Time>(r.u64());
  h.uplink_tx = static_cast<sim::Time>(r.u64());
  h.propagation = static_cast<sim::Time>(r.u64());
  h.downlink_wait = static_cast<sim::Time>(r.u64());
  h.downlink_rx = static_cast<sim::Time>(r.u64());
  h.delivered = static_cast<sim::Time>(r.u64());
}

/// Boost maps travel as runs: per line, (node u32, first u16, len u16) for
/// each maximal stretch of consecutive positions seeded to one node. The
/// builder seeds contiguous parcels, so this is ~8 B per parcel instead of
/// 6 B per cell — a redundant-policy seed's map then fits one datagram.
template <typename W>
void put_boost(W& w, const BoostMap& boost) {
  std::uint32_t lines = 0;
  for (const auto& lb : boost) {
    if (lb) ++lines;
  }
  w.u32(lines);
  for (const auto& lb : boost) {
    if (!lb) continue;
    w.u16(lb->line.packed());
    std::uint32_t runs = 0;
    for (std::size_t i = 0; i < lb->entries.size(); i = lb->run_end(i)) ++runs;
    w.u32(runs);
    for (std::size_t i = 0; i < lb->entries.size();) {
      const std::size_t end = lb->run_end(i);
      w.u32(lb->entries[i].first);
      w.u16(lb->entries[i].second);
      w.u16(static_cast<std::uint16_t>(end - i));
      i = end;
    }
  }
}

/// Inverse of put_boost. Runs must be canonical — non-empty, inside one
/// line (Bitmap512::kCapacity positions, the largest matrix), sorted by
/// (node, first) and maximal (a node's next run starts past a gap) — so
/// every accepted map re-encodes to the same bytes.
bool get_boost(Reader& r, BoostMap& boost) {
  const auto lines = r.u32();
  if (!r.ok() || lines > 4096) return false;
  boost.reserve(lines);
  for (std::uint32_t l = 0; l < lines; ++l) {
    auto lb = std::make_shared<LineBoost>();
    const auto packed = r.u16();
    lb->line.kind = (packed & 0x8000) ? LineRef::Kind::kCol : LineRef::Kind::kRow;
    lb->line.index = static_cast<std::uint16_t>(packed & 0x7fff);
    const auto runs = r.u32();
    if (!r.ok() || runs > kMaxSeq) return false;
    NodeIndex prev_node = 0;
    std::uint32_t prev_end = 0;  // one past the previous run's last position
    for (std::uint32_t i = 0; i < runs; ++i) {
      const auto node = r.u32();
      const std::uint32_t first = r.u16();
      const std::uint32_t len = r.u16();
      if (!r.ok() || len == 0 || first + len > util::Bitmap512::kCapacity) {
        return false;
      }
      if (i > 0 && (node < prev_node || (node == prev_node && first <= prev_end))) {
        return false;  // out of order, overlapping or not maximal
      }
      if (lb->entries.size() + len > kMaxSeq) return false;
      for (std::uint32_t pos = first; pos < first + len; ++pos) {
        lb->entries.emplace_back(node, static_cast<std::uint16_t>(pos));
      }
      prev_node = node;
      prev_end = first + len;
    }
    lb->finalize();
    boost.push_back(std::move(lb));
  }
  return r.ok();
}

template <typename W>
struct EncodeVisitor {
  W& w;

  void operator()(const SeedMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kSeed));
    w.u64(m.slot);
    w.cells(m.cells);
    w.ids(m.tags);
    put_boost(w, m.boost);
    put_cause(w, m.cause);
  }
  void operator()(const CellQueryMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kCellQuery));
    w.u64(m.slot);
    w.cells(m.cells);
    put_cause(w, m.cause);
    w.u32(m.round);
    w.u8(m.redraw ? 1 : 0);
  }
  void operator()(const CellReplyMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kCellReply));
    w.u64(m.slot);
    w.cells(m.cells);
    w.ids(m.tags);
    put_cause(w, m.cause);
    put_cause(w, m.parent);
    w.u32(m.round);
    w.u8(m.redraw ? 1 : 0);
    w.u8(m.buffered ? 1 : 0);
    put_hop(w, m.query_hop);
  }
  void operator()(const GossipDataMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kGossipData));
    w.u64(m.topic);
    w.u64(m.msg_id);
    w.u64(m.slot);
    w.cells(m.cells);
    w.u32(m.extra_bytes);
    w.u32(m.hops);
  }
  void operator()(const GossipIHaveMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kGossipIHave));
    w.u64(m.topic);
    w.ids(m.msg_ids);
  }
  void operator()(const GossipIWantMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kGossipIWant));
    w.ids(m.msg_ids);
  }
  void operator()(const GossipGraftMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kGossipGraft));
    w.u64(m.topic);
  }
  void operator()(const GossipPruneMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kGossipPrune));
    w.u64(m.topic);
  }
  void operator()(const DhtFindNodeMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtFindNode));
    w.u64(m.rpc_id);
    put_node_id(w, m.target);
  }
  void operator()(const DhtNodesMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtNodes));
    w.u64(m.rpc_id);
    w.nodes(m.nodes);
  }
  void operator()(const DhtStoreMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtStore));
    w.u64(m.rpc_id);
    put_node_id(w, m.key);
    w.cells(m.cells);
  }
  void operator()(const DhtStoreAckMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtStoreAck));
    w.u64(m.rpc_id);
  }
  void operator()(const DhtFindValueMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtFindValue));
    w.u64(m.rpc_id);
    put_node_id(w, m.key);
  }
  void operator()(const DhtValueMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kDhtValue));
    w.u64(m.rpc_id);
    w.u8(m.found ? 1 : 0);
    w.cells(m.cells);
    w.nodes(m.closer);
  }
};

/// encoded_size() for a concrete alternative (no variant re-wrap needed).
template <typename T>
std::size_t sized(const T& m) {
  SizeWriter w;
  EncodeVisitor<SizeWriter>{w}(m);
  return w.size();
}

template <typename T>
inline constexpr bool kFragmentable =
    std::is_same_v<T, SeedMsg> || std::is_same_v<T, CellReplyMsg> ||
    std::is_same_v<T, GossipDataMsg> || std::is_same_v<T, DhtStoreMsg> ||
    std::is_same_v<T, DhtValueMsg>;

template <typename T>
inline constexpr bool kTagged =
    std::is_same_v<T, SeedMsg> || std::is_same_v<T, CellReplyMsg>;

/// Splits one cell-carrying message (see header contract). `m` is consumed.
template <typename T>
void fragment_cells(T&& m, const DatagramBudget& budget,
                    std::vector<Message>& out) {
  // Tags are sliced alongside their cells only when the vectors pair up;
  // a malformed (mismatched) tag vector is dropped, as decode() would
  // reject it anyway.
  const bool slice_tags = [&] {
    if constexpr (kTagged<T>) {
      return !m.tags.empty() && m.tags.size() == m.cells.size();
    } else {
      return false;
    }
  }();
  const std::size_t per_cell_encoded = 4 + (slice_tags ? 8 : 0);
  // Charge at least the actual encoded bytes, so every fragment's encode()
  // provably fits max_bytes whenever its fixed header does.
  const std::size_t charged = std::max(per_cell_encoded, budget.cell_cost);

  const std::size_t total = sized(m);
  const std::size_t fixed = total - m.cells.size() * 4 -
                            [&]() -> std::size_t {
                              if constexpr (kTagged<T>) return m.tags.size() * 8;
                              return 0;
                            }();
  if (m.cells.size() <= budget.max_cells &&
      fixed + m.cells.size() * charged <= budget.max_bytes) {
    out.emplace_back(std::move(m));
    return;
  }

  const auto all = std::move(m.cells);
  std::vector<std::uint64_t> all_tags;
  if constexpr (kTagged<T>) {
    all_tags = std::move(m.tags);
    m.tags.clear();
  }
  m.cells.clear();

  std::size_t base = 0;
  bool first = true;
  while (first || base < all.size()) {
    T part = m;  // header fields; boost only until the first emission
    if constexpr (std::is_same_v<T, SeedMsg>) {
      if (!first) part.boost.clear();
    }
    const std::size_t overhead = sized(part);
    std::size_t cap =
        overhead < budget.max_bytes ? (budget.max_bytes - overhead) / charged : 0;
    cap = std::min(cap, budget.max_cells);
    if (cap == 0) {
      if constexpr (std::is_same_v<T, SeedMsg>) {
        // A boost map so large it fills the whole datagram: emit it alone
        // and let the cells follow in boost-free fragments. (Run encoding
        // keeps a redundant-policy map near 8 B per seeded parcel, far
        // below the limit; the transport still accounts for any fragment
        // that ends up over it.)
        if (first && !part.boost.empty() && base < all.size()) {
          out.emplace_back(std::move(part));
          first = false;
          continue;
        }
      }
      cap = 1;  // forward progress under pathological budgets
    }
    const std::size_t take = std::min(all.size() - base, cap);
    part.cells.assign(all.begin() + static_cast<std::ptrdiff_t>(base),
                      all.begin() + static_cast<std::ptrdiff_t>(base + take));
    if constexpr (kTagged<T>) {
      if (slice_tags) {
        part.tags.assign(all_tags.begin() + static_cast<std::ptrdiff_t>(base),
                         all_tags.begin() + static_cast<std::ptrdiff_t>(base + take));
      }
    }
    out.emplace_back(std::move(part));
    base += take;
    first = false;
  }
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  Writer w;
  std::visit(EncodeVisitor<Writer>{w}, msg);
  return w.take();
}

std::size_t encoded_size(const Message& msg) {
  SizeWriter w;
  std::visit(EncodeVisitor<SizeWriter>{w}, msg);
  return w.size();
}

std::vector<Message> fragment_to_budget(Message msg,
                                        const DatagramBudget& budget) {
  std::vector<Message> out;
  std::visit(
      [&](auto& m) {
        using T = std::remove_cvref_t<decltype(m)>;
        if constexpr (kFragmentable<T>) {
          fragment_cells(std::move(m), budget, out);
        } else {
          out.emplace_back(std::move(m));
        }
      },
      msg);
  return out;
}

std::optional<Message> decode(std::span<const std::uint8_t> data) {
  Reader r(data);
  const auto tag = r.u8();
  if (!r.ok()) return std::nullopt;

  std::optional<Message> out;
  switch (static_cast<Tag>(tag)) {
    case Tag::kSeed: {
      SeedMsg m;
      m.slot = r.u64();
      if (!r.cells(m.cells) || !r.ids(m.tags) ||
          !tags_well_formed(m.tags, m.cells) || !get_boost(r, m.boost)) {
        return std::nullopt;
      }
      get_cause(r, m.cause, m.slot);
      out = std::move(m);
      break;
    }
    case Tag::kCellQuery: {
      CellQueryMsg m;
      m.slot = r.u64();
      if (!r.cells(m.cells)) return std::nullopt;
      get_cause(r, m.cause, m.slot);
      m.round = r.u32();
      m.redraw = r.u8() != 0;
      out = std::move(m);
      break;
    }
    case Tag::kCellReply: {
      CellReplyMsg m;
      m.slot = r.u64();
      if (!r.cells(m.cells) || !r.ids(m.tags) ||
          !tags_well_formed(m.tags, m.cells)) {
        return std::nullopt;
      }
      get_cause(r, m.cause, m.slot);
      get_cause(r, m.parent, m.slot);
      m.round = r.u32();
      m.redraw = r.u8() != 0;
      m.buffered = r.u8() != 0;
      get_hop(r, m.query_hop);
      out = std::move(m);
      break;
    }
    case Tag::kGossipData: {
      GossipDataMsg m;
      m.topic = r.u64();
      m.msg_id = r.u64();
      m.slot = r.u64();
      if (!r.cells(m.cells)) return std::nullopt;
      m.extra_bytes = r.u32();
      m.hops = r.u32();
      out = std::move(m);
      break;
    }
    case Tag::kGossipIHave: {
      GossipIHaveMsg m;
      m.topic = r.u64();
      if (!r.ids(m.msg_ids)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kGossipIWant: {
      GossipIWantMsg m;
      if (!r.ids(m.msg_ids)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kGossipGraft: {
      GossipGraftMsg m;
      m.topic = r.u64();
      out = std::move(m);
      break;
    }
    case Tag::kGossipPrune: {
      GossipPruneMsg m;
      m.topic = r.u64();
      out = std::move(m);
      break;
    }
    case Tag::kDhtFindNode: {
      DhtFindNodeMsg m;
      m.rpc_id = r.u64();
      if (!get_node_id(r, m.target)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kDhtNodes: {
      DhtNodesMsg m;
      m.rpc_id = r.u64();
      if (!r.nodes(m.nodes)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kDhtStore: {
      DhtStoreMsg m;
      m.rpc_id = r.u64();
      if (!get_node_id(r, m.key) || !r.cells(m.cells)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kDhtStoreAck: {
      DhtStoreAckMsg m;
      m.rpc_id = r.u64();
      out = std::move(m);
      break;
    }
    case Tag::kDhtFindValue: {
      DhtFindValueMsg m;
      m.rpc_id = r.u64();
      if (!get_node_id(r, m.key)) return std::nullopt;
      out = std::move(m);
      break;
    }
    case Tag::kDhtValue: {
      DhtValueMsg m;
      m.rpc_id = r.u64();
      m.found = r.u8() != 0;
      if (!r.cells(m.cells) || !r.nodes(m.closer)) return std::nullopt;
      out = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return out;
}

}  // namespace pandas::net
