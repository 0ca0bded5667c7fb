// perfbench: one workload of the repository benchmark, run through the public
// harness (harness::PandasExperiment / harness::GossipDasExperiment) in this
// single serial process (sim_threads = 1). Prints one JSON object holding
// every metric with its unit, the deterministic outputs that must repeat
// exactly at a fixed seed, and the result of each output check.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]
//   perfbench --list
//
// A workload is a fixed set of instances: independent fixtures whose seeds
// derive from --seed, each run for its slots. Several instances average out
// how much one seed's topology and fault draw change the work. Before
// measuring, the first instance's fixture is built several times: setup_s is
// the median construction time.
//
// --trace 0 runs the instance set as many times as the --seconds budget buys
// at the set's nominal duration (at least once); every repetition must
// reproduce the same deterministic outputs.
// --trace 1 runs the first instance twice, untraced and then traced. The
// traced run measures the layers from outside: it times calls into
// sim::Topology and the AssignmentTable constructor, and re-registers every
// node's transport handler around PandasNode::handle_message. Nothing inside
// src/ is instrumented. The untraced twin gives the tracing overhead and
// must produce the same deterministic outputs.
//
// perfbench/run.py builds this binary, runs it and checks its outputs
// against earlier runs at the same seed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "baselines/gossip_das.h"
#include "core/assignment.h"
#include "harness/args.h"
#include "harness/baseline_experiments.h"
#include "harness/experiment.h"
#include "sim/topology.h"

namespace {

using namespace pandas;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------- workloads

enum class Kind { kPandas, kGossipDas };

struct Size {
  std::uint32_t nodes;
  std::uint32_t slots;
  std::uint32_t instances;
  /// Nominal wall seconds of one instance set on a 4-core x86_64 host. The
  /// --seconds budget buys floor(budget / set_s) sets (at least one), so the
  /// work a run does is a function of its arguments, never of the host.
  double set_s;
};

struct Workload {
  const char* name;
  Kind kind;
  bool faults;  // PANDAS: fail-silent, churn, partition and burst loss
  Size full;
  Size tiny;  // same code path at a size the self-test can afford
};

// PANDAS runs the Fig 13 fixture: redundant r=8 seeding, block gossip off.
// Below ~400 nodes, and at 400 nodes under faults or hedging, a few correct
// nodes per slot stay unsampled on some seeds; at 600 nodes none do, so no
// operation fails.
constexpr Workload kWorkloads[] = {
    {"pandas-fig13-n600", Kind::kPandas, false, {600, 1, 2, 40}, {120, 1, 2, 2}},
    {"pandas-chaos-n600", Kind::kPandas, true, {600, 1, 2, 42}, {120, 1, 2, 2}},
    {"gossipdas-n600", Kind::kGossipDas, false, {600, 1, 3, 16},
     {100, 1, 2, 1}},
};

/// GossipSub-DAS node links. At the default 25 Mbps the baseline leaves
/// over a third of its nodes unsampled at slot end (EXPERIMENTS.md, Fig 12).
/// At 100 Mbps every node samples, but the share within 4 s swings by ±10 %
/// from seed to seed; at 200 Mbps every node samples within 4 s.
constexpr double kGossipNodeBps = 200e6;

/// Fixture constructions before measuring; setup_s is the median over these
/// and the measured instances' own constructions.
constexpr int kSetupSamples = 5;
constexpr double kMaxSets = 32;
constexpr double kDeadlineMs = 4000.0;

std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t k,
                            const Size& size) {
  return seed * size.instances + k;
}

harness::PandasConfig pandas_config(const Workload& w, const Size& s,
                                    std::uint64_t seed) {
  harness::PandasConfig cfg;
  cfg.net.nodes = s.nodes;
  cfg.net.seed = seed;
  cfg.net.sim_threads = 1;
  cfg.slots = s.slots;
  cfg.policy = core::SeedingPolicy::redundant(8);
  cfg.block_gossip = false;
  if (w.faults) {
    cfg.faults.dead_fraction = 0.10;
    cfg.faults.churn_fraction = 0.10;
    cfg.faults.partition_fraction = 0.05;
    cfg.faults.burst_fraction = 0.10;
  }
  return cfg;
}

harness::GossipDasConfig gossip_config(const Size& s, std::uint64_t seed) {
  harness::GossipDasConfig cfg;
  cfg.net.nodes = s.nodes;
  cfg.net.seed = seed;
  cfg.net.sim_threads = 1;
  cfg.net.transport.node_up_bps = kGossipNodeBps;
  cfg.net.transport.node_down_bps = kGossipNodeBps;
  cfg.slots = s.slots;
  return cfg;
}

harness::NetworkConfig network_config(const Workload& w, const Size& s,
                                      std::uint64_t seed) {
  return w.kind == Kind::kPandas ? pandas_config(w, s, seed).net
                                 : gossip_config(s, seed).net;
}

// ----------------------------------------------------------------- tally

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

using Values = std::vector<std::pair<std::string, double>>;

double value_of(const Values& vs, const std::string& name) {
  for (const auto& [k, v] : vs) {
    if (k == name) return v;
  }
  return 0.0;
}

/// What one or more instances produced. Timings are wall-clock; everything
/// else is a function of the seeds.
struct Tally {
  std::vector<double> constructions;  // fixture constructor wall times
  double slot_wall_s = 0;             // wall time inside the slots
  double sim_s = 0;                   // simulated time covered by the slots
  double handle_s = 0;  // traced: inside PandasNode::handle_message
  std::uint64_t instances = 0, slots = 0, records = 0, misses = 0;
  util::Samples sampling, custody, gossip_msgs, gossip_mb;
  double node_mb = 0;  // PANDAS: correct nodes' transport MB, both ways
  Values sums;         // deterministic counters, summed over instances
  Values peaks;        // deterministic high-water marks, max over instances
  std::vector<Check> checks;

  void add(const std::string& name, double v) {
    for (auto& [k, x] : sums) {
      if (k == name) {
        x += v;
        return;
      }
    }
    sums.emplace_back(name, v);
  }
  void peak(const std::string& name, double v) {
    for (auto& [k, x] : peaks) {
      if (k == name) {
        x = std::max(x, v);
        return;
      }
    }
    peaks.emplace_back(name, v);
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    for (auto& c : checks) {
      if (c.name == name) {
        if (c.ok && !ok) c = {name, ok, detail};
        return;
      }
    }
    checks.push_back({name, ok, detail});
  }
  [[nodiscard]] double sum(const std::string& name) const {
    return value_of(sums, name);
  }

  void merge(const Tally& o) {
    constructions.insert(constructions.end(), o.constructions.begin(),
                         o.constructions.end());
    slot_wall_s += o.slot_wall_s;
    sim_s += o.sim_s;
    handle_s += o.handle_s;
    instances += o.instances;
    slots += o.slots;
    records += o.records;
    misses += o.misses;
    sampling.merge(o.sampling);
    custody.merge(o.custody);
    gossip_msgs.merge(o.gossip_msgs);
    gossip_mb.merge(o.gossip_mb);
    node_mb += o.node_mb;
    for (const auto& [k, v] : o.sums) add(k, v);
    for (const auto& [k, v] : o.peaks) peak(k, v);
    for (const auto& c : o.checks) check(c.name, c.ok, c.detail);
  }
};

/// Sampling-latency tail: the highest percentile of the ladder with at least
/// ten samples ranked above it (falls back to the median on tiny sample
/// sets). Counting by rank, not by value, makes the choice a function of the
/// sample count alone, so every seed of a workload reports the same
/// percentile.
struct Tail {
  double percentile = 50.0;
  double value_ms = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(const util::Samples& s) {
  Tail t;
  if (s.empty()) return t;
  const std::size_t last = s.count() - 1;
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples::percentile interpolates between ranks lo and lo + 1.
    const auto lo = static_cast<std::size_t>(p / 100.0 *
                                             static_cast<double>(last));
    t = {p, s.percentile(p), last - lo};
    if (t.beyond >= 10) break;
  }
  return t;
}

double p50(const util::Samples& s) {
  return s.empty() ? 0.0 : s.percentile(50.0);
}

/// The deterministic outputs of a tally, in a fixed order: the protocol
/// metrics, then every counter. These must repeat exactly at a fixed seed.
Values exact_outputs(const Tally& t, Kind kind) {
  const Tail tail = tail_of(t.sampling);
  const double met = t.sampling.fraction_below(kDeadlineMs) *
                     static_cast<double>(t.sampling.count());
  const double records = static_cast<double>(t.records);
  Values v = {
      {"sampling_p50_ms", p50(t.sampling)},
      {"sampling_tail_ms", tail.value_ms},
      {"sampling_tail_percentile", tail.percentile},
      {"sampling_tail_beyond", static_cast<double>(tail.beyond)},
      {"deadline_met_frac", ratio(met, records)},
      {"traffic_mb_per_node", kind == Kind::kPandas
                                  ? ratio(t.node_mb, records)
                                  : (t.gossip_mb.empty() ? 0.0
                                                         : t.gossip_mb.mean())},
      {"records", records},
      {"sampling_misses", static_cast<double>(t.misses)},
  };
  v.insert(v.end(), t.sums.begin(), t.sums.end());
  v.insert(v.end(), t.peaks.begin(), t.peaks.end());
  const double allocs = t.sum("alloc.total");
  v.emplace_back("alloc.per_event", ratio(allocs, t.sum("sim.events")));
  v.emplace_back("alloc.per_slot", ratio(allocs, static_cast<double>(t.slots)));
  if (kind == Kind::kPandas) {
    v.emplace_back("core.fetcher.useful_ratio",
                   ratio(t.sum("core.fetcher.cells_obtained"),
                         t.sum("core.fetcher.cells_requested")));
  } else {
    v.emplace_back("gossip.msgs_per_node",
                   t.gossip_msgs.empty() ? 0.0 : t.gossip_msgs.mean());
    v.emplace_back("baselines.custody_p50_ms", p50(t.custody));
  }
  return v;
}

// ------------------------------------------------------------- instances

void tally_engine(Tally& t, const sim::ParallelEngine& eng,
                  std::uint64_t events, std::uint64_t allocs) {
  t.add("sim.events", static_cast<double>(events));
  t.add("alloc.total", static_cast<double>(allocs));
  t.peak("sim.peak_queue_depth",
         static_cast<double>(eng.merged_profile().peak_queue_depth));
  t.peak("sim.scheduler_allocs", static_cast<double>(eng.scheduler_allocs()));
}

Tally run_pandas(const Workload& w, const Size& size, std::uint64_t seed,
                 bool traced) {
  Tally t;
  const auto cfg = pandas_config(w, size, seed);
  auto t0 = Clock::now();
  harness::PandasExperiment ex(cfg);
  t.constructions.push_back(since(t0));

  const std::uint32_t n = cfg.net.nodes;
  std::vector<bool> correct(n);
  std::uint64_t correct_nodes = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    correct[i] = !ex.fault_plan().of(i).faulty();
    correct_nodes += correct[i] ? 1 : 0;
  }

  // Traced: wrap each node's dispatch. With block gossip off the harness's
  // own handler is exactly `node(i).handle_message(from, msg)`, so the
  // wrapper changes nothing but the timing.
  std::uint64_t messages = 0;
  std::uint64_t handle_allocs = 0;
  if (traced) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ex.transport().set_handler(
          i, [&ex, &t, &messages, &handle_allocs, i](net::NodeIndex from,
                                                     net::Message&& msg) {
            const std::uint64_t a0 = perfbench::allocations();
            const auto h0 = Clock::now();
            ex.node(i).handle_message(from, msg);
            t.handle_s += since(h0);
            handle_allocs += perfbench::allocations() - a0;
            messages += 1;
          });
    }
  }

  auto& eng = ex.parallel_engine();
  eng.set_profiling(true);
  const std::uint64_t events0 = eng.executed();
  std::uint64_t allocs = 0;

  harness::PandasResults res;
  double queries = 0, requested = 0, obtained = 0, duplicates = 0;
  for (std::uint32_t s = 0; s < cfg.slots; ++s) {
    const std::uint64_t a0 = perfbench::allocations();
    t0 = Clock::now();
    ex.run_slot(s, res);
    t.slot_wall_s += since(t0);
    allocs += perfbench::allocations() - a0;
    // Fetchers are per slot: read them before the next begin_slot().
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!correct[i]) continue;
      const auto* f = ex.node(i).fetcher();
      if (f == nullptr) continue;
      for (const auto& st : f->round_stats()) {
        queries += st.messages_sent;
        requested += st.cells_requested;
        obtained += st.cells_in_round + st.cells_after_round;
        duplicates += st.duplicates;
      }
    }
  }
  t.instances = 1;
  t.slots = cfg.slots;
  t.sim_s = cfg.slots * sim::to_ms(cfg.slot_duration) / 1000.0;
  t.records = res.records;
  t.misses = res.sampling_misses;
  t.sampling = res.sampling_ms;
  tally_engine(t, eng, eng.executed() - events0, allocs);

  double greylisted = 0, timeouts = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!correct[i]) continue;
    greylisted += static_cast<double>(ex.node(i).reputation().greylist_events());
    timeouts += static_cast<double>(ex.node(i).reputation().timeout_events());
    const auto& st = ex.transport().stats(i);
    t.node_mb += static_cast<double>(st.bytes_sent + st.bytes_received) / 1e6;
  }

  // Transport totals and per-class message conservation:
  // sent = received + lost + to_dead + in_flight, in_flight >= 0, and every
  // message still in flight holds at least one pending engine event.
  const auto totals = ex.transport().typed_totals();
  net::TypedTrafficStats::Class all;
  std::int64_t in_flight = 0;
  bool conserved = true;
  std::string remainder;
  for (std::size_t c = 0; c < net::kMsgClassCount; ++c) {
    const auto& k = totals.by_class[c];
    const auto left = static_cast<std::int64_t>(k.msgs_sent) -
                      static_cast<std::int64_t>(k.msgs_received) -
                      static_cast<std::int64_t>(k.msgs_lost) -
                      static_cast<std::int64_t>(k.msgs_to_dead);
    if (left < 0) conserved = false;
    if (left != 0) {
      remainder += std::string(net::msg_class_name(
                       static_cast<net::MsgClass>(c))) +
                   " in_flight=" + std::to_string(left) + " ";
    }
    in_flight += left;
    all.msgs_sent += k.msgs_sent;
    all.bytes_sent += k.bytes_sent;
    all.cells_sent += k.cells_sent;
    all.cells_received += k.cells_received;
    all.msgs_lost += k.msgs_lost;
    all.cells_lost += k.cells_lost;
    all.msgs_to_dead += k.msgs_to_dead;
  }
  const auto pending = static_cast<std::int64_t>(eng.pending());
  t.check("message_conservation", conserved && in_flight <= pending,
          (remainder.empty() ? std::string("in_flight=0 ") : remainder) +
              "pending_events=" + std::to_string(pending));
  t.add("net.msgs_sent", static_cast<double>(all.msgs_sent));
  t.add("net.mb_sent", static_cast<double>(all.bytes_sent) / 1e6);
  t.add("net.cells_sent", static_cast<double>(all.cells_sent));
  t.add("net.cells_received", static_cast<double>(all.cells_received));
  t.add("net.msgs_lost", static_cast<double>(all.msgs_lost));
  t.add("net.cells_lost", static_cast<double>(all.cells_lost));
  t.add("net.msgs_to_dead", static_cast<double>(all.msgs_to_dead));
  t.add("net.msgs_in_flight", static_cast<double>(in_flight));

  t.add("core.fetcher.queries", queries);
  t.add("core.fetcher.cells_requested", requested);
  t.add("core.fetcher.cells_obtained", obtained);
  t.add("core.fetcher.duplicates", duplicates);
  t.add("core.reputation.greylisted", greylisted);
  t.add("core.reputation.timeouts", timeouts);
  t.add("cells_corrupt_accepted",
        static_cast<double>(res.cells_corrupt_accepted));
  if (traced) {
    t.add("core.node.messages", static_cast<double>(messages));
    t.add("core.node.allocs", static_cast<double>(handle_allocs));
  }

  t.check("no_corrupt_cells_accepted", res.cells_corrupt_accepted == 0,
          std::to_string(res.cells_corrupt_accepted) + " accepted, " +
              std::to_string(res.cells_corrupt_rejected) + " rejected");
  t.check("records_equal_correct_nodes_times_slots",
          res.records == correct_nodes * cfg.slots,
          std::to_string(res.records) + " records, " +
              std::to_string(correct_nodes) + " correct nodes x " +
              std::to_string(cfg.slots) + " slots");
  return t;
}

/// GossipSub-DAS. The harness exposes neither its transport nor its nodes'
/// dispatch, so the node and transport layers are not measured here.
Tally run_gossipdas(const Size& size, std::uint64_t seed) {
  Tally t;
  const auto cfg = gossip_config(size, seed);
  auto t0 = Clock::now();
  harness::GossipDasExperiment ex(cfg);
  t.constructions.push_back(since(t0));

  auto& eng = ex.parallel_engine();
  eng.set_profiling(true);
  const std::uint64_t events0 = eng.executed();
  const std::uint64_t a0 = perfbench::allocations();
  t0 = Clock::now();
  const auto res = ex.run();
  t.slot_wall_s = since(t0);
  const std::uint64_t allocs = perfbench::allocations() - a0;

  t.instances = 1;
  t.slots = cfg.slots;
  t.sim_s = cfg.slots * sim::to_ms(sim::kSlotDuration) / 1000.0;
  t.records = res.records;
  t.misses = res.sampling_misses;
  t.sampling = res.sampling_ms;
  t.custody = res.custody_ms;
  t.gossip_msgs = res.messages;
  t.gossip_mb = res.traffic_mb;
  tally_engine(t, eng, eng.executed() - events0, allocs);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(cfg.net.nodes) * cfg.slots;
  t.check("records_equal_correct_nodes_times_slots", res.records == expected,
          std::to_string(res.records) + " records, " +
              std::to_string(cfg.net.nodes) + " nodes x " +
              std::to_string(cfg.slots) + " slots");
  return t;
}

Tally run_instance(const Workload& w, const Size& size, std::uint64_t seed,
                   bool traced) {
  return w.kind == Kind::kPandas ? run_pandas(w, size, seed, traced)
                                 : run_gossipdas(size, seed);
}

/// Setup-only construction (no slots run), for the setup_s median.
double construct_once(const Workload& w, const Size& size, std::uint64_t seed) {
  const auto t0 = Clock::now();
  if (w.kind == Kind::kPandas) {
    harness::PandasExperiment ex(pandas_config(w, size, seed));
    return since(t0);
  }
  harness::GossipDasExperiment ex(gossip_config(size, seed));
  return since(t0);
}

/// Setup components, timed by calling each layer's public functions on the
/// workload's config: topology generation, the best-vertex draw that places
/// the seeding node, and the epoch assignment table.
struct SetupParts {
  double generate_s;
  double best_vertices_s;
  double assignment_s;
};

SetupParts time_setup_parts(const Workload& w, const harness::NetworkConfig& net) {
  SetupParts p{};
  auto t0 = Clock::now();
  const auto topo = sim::Topology::generate(net.topology, net.seed);
  p.generate_s = since(t0);
  t0 = Clock::now();
  const auto best = topo.best_vertices(net.builder_best_fraction);
  p.best_vertices_s = since(t0);
  if (best.empty()) std::fprintf(stderr, "perfbench: empty best-vertex set\n");

  const auto dir = net::Directory::create(net.nodes);
  const core::ProtocolParams params;
  const auto epoch = core::epoch_seed(net.seed, 0);
  t0 = Clock::now();
  if (w.kind == Kind::kPandas) {
    const core::AssignmentTable table(params, dir, epoch);
  } else {
    const core::AssignmentTable table(
        params, baselines::unit_assignments(params, dir, epoch));
  }
  p.assignment_s = since(t0);
  return p;
}

// ------------------------------------------------------------------ JSON

void json_str(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void json_num(double v) { std::printf("%.17g", v); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void json_values(const Values& vs) {
  std::printf("{");
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) std::printf(", ");
    json_str(vs[i].first);
    std::printf(": ");
    json_num(vs[i].second);
  }
  std::printf("}");
}

void json_metrics(const std::vector<Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) std::printf(", ");
    json_str(ms[i].name);
    std::printf(": {\"value\": ");
    json_num(ms[i].value);
    std::printf(", \"unit\": ");
    json_str(ms[i].unit);
    std::printf("}");
  }
  std::printf("}");
}

/// Compares two output lists on their common keys; returns the first
/// differing key, or "" when they agree.
std::string first_difference(const Values& a, const Values& b) {
  for (const auto& [k, v] : a) {
    for (const auto& [k2, v2] : b) {
      if (k == k2 && v != v2) return k;
    }
  }
  return "";
}

std::vector<Metric> end_to_end_metrics(const Values& exact, double setup_s,
                                       double wall_per_sim_s,
                                       double peak_rss_mb) {
  return {
      {"setup_s", setup_s, "s"},
      {"wall_per_sim_s", wall_per_sim_s, "s/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sampling_p50_ms", value_of(exact, "sampling_p50_ms"), "ms"},
      {"sampling_tail_ms", value_of(exact, "sampling_tail_ms"), "ms"},
      {"deadline_met_frac", value_of(exact, "deadline_met_frac"), "fraction"},
      {"traffic_mb_per_node", value_of(exact, "traffic_mb_per_node"), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Tally& t, const Values& exact,
                                      double setup_s, const SetupParts& parts,
                                      double overhead) {
  const auto x = [&exact](const char* k) { return value_of(exact, k); };
  const double msgs = x("core.node.messages");
  const double unattributed = t.slot_wall_s - t.handle_s;
  std::vector<Metric> m = {
      {"trace.setup_s", setup_s, "s"},
      {"sim.topology_generate_s", parts.generate_s, "s"},
      {"sim.topology_best_vertices_s", parts.best_vertices_s, "s"},
      {"core.assignment_build_s", parts.assignment_s, "s"},
      {"harness.setup_other_s",
       setup_s - parts.generate_s - parts.best_vertices_s - parts.assignment_s,
       "s"},
      {"trace.slot_wall_s", t.slot_wall_s, "s"},
      {"core.node.handle_s", t.handle_s, "s"},
      {"core.node.handle_share", ratio(t.handle_s, t.slot_wall_s), "fraction"},
      {"core.node.messages", msgs, "count"},
      {"core.node.us_per_message", ratio(t.handle_s * 1e6, msgs), "us"},
      {"core.node.allocs_per_message", ratio(x("core.node.allocs"), msgs),
       "count"},
      {"unattributed_s", unattributed, "s"},
      {"unattributed_share", ratio(unattributed, t.slot_wall_s), "fraction"},
      {"trace.overhead_frac", overhead, "fraction"},
      {"sim.events", x("sim.events"), "count"},
      {"sim.events_per_s", ratio(x("sim.events"), t.slot_wall_s), "1/s"},
      {"sim.peak_queue_depth", x("sim.peak_queue_depth"), "count"},
      {"sim.scheduler_allocs", x("sim.scheduler_allocs"), "count"},
      {"alloc.per_event", x("alloc.per_event"), "count"},
      {"alloc.per_slot", x("alloc.per_slot"), "count"},
  };
  for (const char* k :
       {"net.msgs_sent", "net.cells_sent", "net.cells_received",
        "net.msgs_lost", "net.cells_lost", "net.msgs_to_dead",
        "net.msgs_in_flight", "core.fetcher.queries",
        "core.fetcher.cells_requested", "core.fetcher.duplicates",
        "core.reputation.greylisted", "core.reputation.timeouts"}) {
    m.push_back({k, x(k), "count"});
  }
  m.push_back({"net.mb_sent", x("net.mb_sent"), "MB"});
  m.push_back({"core.fetcher.useful_ratio", x("core.fetcher.useful_ratio"),
               "fraction"});
  m.push_back({"gossip.msgs_per_node", x("gossip.msgs_per_node"), "count"});
  m.push_back({"baselines.custody_p50_ms", x("baselines.custody_p50_ms"),
               "ms"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Args args(argc, argv);
  if (args.has("--list")) {
    for (const auto& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  const std::string name = args.get_str("--workload", "");
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads) {
    if (name == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (see --list)\n",
                 name.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const auto seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
  const double budget = args.get_double("--seconds", 10.0);
  const bool trace = args.get_int("--trace", 0) != 0;
  const bool tiny = args.get_str("--size", "full") == "tiny";
  const Size size = tiny ? w.tiny : w.full;
  const std::uint64_t seed0 = instance_seed(seed, 0, size);

  // Set-up: repeated constructions of the first instance's fixture (and,
  // traced, of its components; each part's median is kept).
  std::vector<double> setups;
  std::vector<double> gen, best, assign;
  for (int k = 0; k < kSetupSamples; ++k) {
    setups.push_back(construct_once(w, size, seed0));
    if (trace) {
      const auto p = time_setup_parts(w, network_config(w, size, seed0));
      gen.push_back(p.generate_s);
      best.push_back(p.best_vertices_s);
      assign.push_back(p.assignment_s);
    }
  }

  const auto measure_start = Clock::now();
  std::vector<Tally> runs;  // instance sets (untraced), or untraced + traced
  double peak_rss_mb = 0;
  if (!trace) {
    const double sets = std::clamp(std::floor(budget / size.set_s), 1.0, kMaxSets);
    while (static_cast<double>(runs.size()) < sets) {
      Tally set;
      for (std::uint32_t k = 0; k < size.instances; ++k) {
        set.merge(run_instance(w, size, instance_seed(seed, k, size), false));
      }
      runs.push_back(std::move(set));
      if (runs.size() == 1) {
        // Peak RSS after a fixed amount of work: the set-up constructions
        // and the first instance set.
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      }
    }
  } else {
    runs.push_back(run_instance(w, size, seed0, false));
    runs.push_back(run_instance(w, size, seed0, true));
  }
  const double measured_s = since(measure_start);

  // Checks: each run's own, plus exact agreement between runs.
  const Tally& shown = runs.back();
  const Values exact = exact_outputs(shown, w.kind);
  std::vector<Check> checks = runs.front().checks;
  std::string diverged;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    for (const auto& c : runs[i].checks) {
      for (auto& mine : checks) {
        if (mine.name == c.name && mine.ok && !c.ok) mine = c;
      }
    }
    if (diverged.empty()) {
      const auto k = first_difference(exact_outputs(runs[i - 1], w.kind),
                                      exact_outputs(runs[i], w.kind));
      if (!k.empty()) {
        diverged = k + " differs between runs " + std::to_string(i - 1) +
                   " and " + std::to_string(i);
      }
    }
  }
  checks.push_back({"sampling_samples_present", !shown.sampling.empty(),
                    std::to_string(shown.sampling.count()) + " samples"});
  checks.push_back({trace ? "traced_matches_untraced" : "repetitions_identical",
                    diverged.empty(),
                    diverged.empty()
                        ? std::to_string(runs.size()) + " run(s) agree"
                        : diverged});

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> wall_per_sim;
  for (const auto& r : runs) {
    attempted += r.records;
    failed += r.misses;
    setups.insert(setups.end(), r.constructions.begin(), r.constructions.end());
    wall_per_sim.push_back(ratio(r.slot_wall_s, r.sim_s));
  }
  const double setup_s = median(setups);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = end_to_end_metrics(exact, setup_s, median(wall_per_sim),
                                 peak_rss_mb);
  } else {
    const SetupParts parts{median(gen), median(best), median(assign)};
    const double overhead =
        ratio(runs[1].slot_wall_s, runs[0].slot_wall_s) - 1.0;
    metrics = per_layer_metrics(runs[1], exact, setup_s, parts, overhead);
  }

  const Tail tail = tail_of(shown.sampling);
  std::printf("{\"workload\": ");
  json_str(w.name);
  std::printf(", \"size\": ");
  json_str(tiny ? "tiny" : "full");
  std::printf(
      ", \"seed\": %llu, \"trace\": %d, \"nodes\": %u, \"slots\": %u, "
      "\"instances\": %llu, \"runs\": %zu, \"measured_s\": ",
      static_cast<unsigned long long>(seed), trace ? 1 : 0, size.nodes,
      size.slots, static_cast<unsigned long long>(shown.instances),
      runs.size());
  json_num(measured_s);
  std::printf(", \"manifest\": {\"build_type\": ");
  json_str(PERFBENCH_BUILD_TYPE);
  std::printf(", \"cxx_flags\": ");
  json_str(PERFBENCH_CXX_FLAGS);
  std::printf(", \"compiler\": ");
  json_str(PERFBENCH_COMPILER);
  std::printf(", \"sim_threads\": 1, \"hardware_threads\": %u}",
              std::thread::hardware_concurrency());
  std::printf(", \"tail\": {\"percentile\": ");
  json_num(tail.percentile);
  std::printf(", \"samples\": %zu, \"beyond\": %zu}", shown.sampling.count(),
              tail.beyond);
  if (trace) {
    // Layers this workload does not run or expose are reported as 0.
    std::printf(", \"not_applicable\": [%s]",
                w.kind == Kind::kGossipDas
                    ? "\"core.node.*\", \"net.*\", \"core.fetcher.*\", "
                      "\"core.reputation.*\""
                    : "\"gossip.*\", \"baselines.*\"");
  }
  std::printf(", \"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf(", \"checks\": [");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) std::printf(", ");
    std::printf("{\"name\": ");
    json_str(checks[i].name);
    std::printf(", \"ok\": %s, \"detail\": ", checks[i].ok ? "true" : "false");
    json_str(checks[i].detail);
    std::printf("}");
  }
  std::printf("], \"exact\": ");
  json_values(exact);
  std::printf(", \"metrics\": ");
  json_metrics(metrics);
  std::printf("}\n");
  return 0;
}
