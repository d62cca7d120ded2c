// fabric-grid: a 4x4 grid TransportFabric carrying six concurrent
// conversations that cross the shared central relays. Every hop link is
// a GHM DataLink under loss, duplication and reordering without crashes.
// The only workload where custody queues, routing and many hop links
// matter.
//
// Round i: build the fabric (hop links seeded from (seed, i)), run
// kWarmTicks ticks with messages flowing (set-up), then keep offering
// until kRoundMessages per conversation have been offered (measured),
// then tick on until every one has arrived (the drain, untimed). After
// the drain every offered message must have arrived exactly once with
// its payload intact, and both the end-to-end and the per-hop checkers
// must be clean.
#include <memory>

#include "adversary/adversaries.h"
#include "checks.h"
#include "core/ghm.h"
#include "probes.h"
#include "transport/fabric.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr s2d::NodeId kGridSide = 4;
constexpr std::pair<s2d::NodeId, s2d::NodeId> kConversations[] = {
    {0, 15}, {15, 0}, {3, 12}, {12, 3}, {1, 14}, {8, 7}};
constexpr std::size_t kSessions = std::size(kConversations);
constexpr std::uint64_t kRoundMessages = 500;  // per conversation
constexpr std::uint64_t kWarmTicks = 300;
// Cap on the offering phase and on the drain of a round. A healthy round
// offers its messages in about 10 000 ticks; a first hop that never
// confirms would otherwise keep the offering phase going forever.
constexpr std::uint64_t kDrainTicks = 200000;
constexpr std::size_t kPayloadBytes = 32;
constexpr std::uint64_t kProbeMessages = 60;
constexpr std::uint64_t kSampleEvery = 8;  // traced: 1 tick in 8 module-timed
constexpr std::uint64_t kHopFaultSalt = 0x686f7066617574ULL;

/// Traced-run instruments of one fabric.
struct FabricProbes {
  LayerTimes lt;
  CallTimes link_builds;
};

std::unique_ptr<s2d::TransportFabric> build_fabric(
    std::uint64_t seed, FabricProbes* probes,
    std::vector<std::unique_ptr<s2d::CoverageSink>>* coverage_sinks,
    s2d::CoverageMap* coverage) {
  const s2d::HopLinkBuilder links = [seed, probes, coverage_sinks, coverage](
                                        std::uint32_t L,
                                        std::unique_ptr<s2d::Adversary> adv) {
    const auto t0 = Clock::now();
    auto pair = s2d::make_ghm(s2d::GrowthPolicy::geometric(kEpsilon), seed + L);
    s2d::OwnedPtr<s2d::ITransmitter> tm(std::move(pair.tm));
    s2d::OwnedPtr<s2d::IReceiver> rm(std::move(pair.rm));
    if (probes != nullptr) {
      tm = s2d::OwnedPtr<s2d::ITransmitter>(
          std::make_unique<ProbeTm>(std::move(tm), &probes->lt));
      rm = s2d::OwnedPtr<s2d::IReceiver>(
          std::make_unique<ProbeRm>(std::move(rm), &probes->lt));
    }
    s2d::DataLinkConfig cfg;
    cfg.retry_every = kRetryEvery;
    cfg.keep_trace = false;
    cfg.collect_deliveries = true;
    s2d::DataLink link(std::move(tm), std::move(rm), std::move(adv), cfg);
    if (coverage_sinks != nullptr) {
      coverage_sinks->push_back(std::make_unique<s2d::CoverageSink>(coverage));
      link.bus().attach(coverage_sinks->back().get());
    }
    if (probes != nullptr) probes->link_builds.add_since(t0);
    return link;
  };
  const s2d::HopAdversaryBuilder faults =
      [seed, probes](std::uint32_t L) -> std::unique_ptr<s2d::Adversary> {
    auto adv = std::make_unique<s2d::RandomFaultAdversary>(
        s2d::FaultProfile::chaos(0.05), s2d::Rng(seed).fork(kHopFaultSalt + L));
    if (probes == nullptr) return adv;
    return std::make_unique<ProbeAdversary>(
        s2d::OwnedPtr<s2d::Adversary>(std::move(adv)), &probes->lt);
  };
  auto fabric = std::make_unique<s2d::TransportFabric>(
      s2d::NetworkGraph::grid(kGridSide, kGridSide), links, faults);
  for (const auto& [src, dst] : kConversations) fabric->add_session(src, dst);
  return fabric;
}

/// Offers each conversation's next message whenever its source is ready,
/// ticks the fabric, and feeds every arrival to the ledger.
class Feeder {
 public:
  Feeder(s2d::TransportFabric& fabric, FabricLedger& ledger,
         std::uint64_t messages, LayerTimes* lt)
      : fabric_(fabric), ledger_(ledger), messages_(messages), lt_(lt) {
    for (auto& s : sessions_) {
      s.offered_at.resize(messages + 1);
      s.offered_tick.resize(messages + 1);
    }
  }

  void tick() {
    const auto now = Clock::now();
    for (std::size_t s = 0; s < kSessions; ++s) {
      Conv& c = sessions_[s];
      if (c.next <= messages_ && fabric_.tm_ready(s + 1)) {
        s2d::Message m;
        ledger_.offer(s, c.next, m);
        c.offered_at[c.next] = now;
        c.offered_tick[c.next] = ticks;
        fabric_.offer(s + 1, std::move(m));
        ++c.next;
        ++offered;
      }
    }
    // Traced: module calls are timed on one tick in kSampleEvery, the
    // whole tick on the others, so neither timing includes the other.
    if (lt_ != nullptr && ticks % kSampleEvery == 0) {
      lt_->sampling = true;
      fabric_.step();
      lt_->sampling = false;
    } else if (lt_ != nullptr) {
      const auto t0 = Clock::now();
      fabric_.step();
      step_ns += ns_between(t0, Clock::now());
      ++timed_steps;
    } else {
      fabric_.step();
    }
    ++ticks;
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (const s2d::Message& m : fabric_.take_delivered(s + 1)) {
        if (!ledger_.delivered(s, m)) continue;
        ++arrived;
        const Conv& c = sessions_[s];
        if (measuring && c.offered_at[m.id] >= measure_start) {
          latency_ms.push_back(seconds_between(c.offered_at[m.id], Clock::now()) * 1e3);
          e2e_ticks.push_back(static_cast<double>(ticks - c.offered_tick[m.id]));
        }
        if (measuring) ++arrived_measured;
      }
    }
  }

  [[nodiscard]] bool all_offered() const {
    for (const Conv& c : sessions_) {
      if (c.next <= messages_) return false;
    }
    return true;
  }

  std::uint64_t ticks = 0;
  std::uint64_t offered = 0;
  std::uint64_t arrived = 0;
  std::uint64_t arrived_measured = 0;
  bool measuring = false;
  Clock::time_point measure_start{};
  std::vector<double> latency_ms;
  std::vector<double> e2e_ticks;
  double step_ns = 0.0;
  std::uint64_t timed_steps = 0;

 private:
  struct Conv {
    std::uint64_t next = 1;
    std::vector<Clock::time_point> offered_at;
    std::vector<std::uint64_t> offered_tick;
  };
  s2d::TransportFabric& fabric_;
  FabricLedger& ledger_;
  std::uint64_t messages_;
  LayerTimes* lt_;
  Conv sessions_[kSessions];
};

struct Pass {
  RoundStats rs;
  std::uint64_t all_arrived = 0;
  std::vector<double> e2e_ticks;  // round 0
  std::uint64_t link_steps = 0;
  std::uint64_t hop_forwards = 0;
  std::uint64_t hop_oks = 0;
  std::uint64_t custody_high_water = 0;
  FabricProbes probes;
  double step_ns = 0.0;
  std::uint64_t timed_steps = 0;
  std::vector<s2d::Event> forwards;  // traced: kHopForward events
  std::uint64_t forward_seed = 0;
  // VmHWM at the end of round 0's offering phase. The drain's length
  // depends on the seed's slowest messages, and every hop link's history
  // grows on every tick of it, so the peak after the whole round moved by
  // a tenth between seeds.
  std::uint64_t peak_rss_offered = 0;
};

/// Collects the fabric's kHopForward events for the custody replay.
class ForwardSink final : public s2d::EventSink {
 public:
  explicit ForwardSink(std::vector<s2d::Event>* out) : out_(out) {}
  void on_event(const s2d::Event& ev) override {
    if (ev.kind == s2d::EventKind::kHopForward && out_->size() < 100000) {
      out_->push_back(ev);
    }
  }

 private:
  std::vector<s2d::Event>* out_;
};

void run_pass(const RunArgs& args, double seconds, bool traced, Pass& p,
              Result& r) {
  (void)run_rounds(seconds, 3, [&](int i) {
    const std::uint64_t seed =
        round_seed(args.seed, static_cast<std::uint64_t>(i));
    const auto t_setup = Clock::now();
    auto fabric = build_fabric(seed, traced ? &p.probes : nullptr, nullptr, nullptr);
    ForwardSink forward_sink(&p.forwards);
    if (traced && i == 0) {
      fabric->bus().attach(&forward_sink);
      p.forward_seed = seed;
    }
    FabricLedger ledger(seed, kPayloadBytes, kSessions);
    Feeder d(*fabric, ledger, kRoundMessages, traced ? &p.probes.lt : nullptr);
    while (d.ticks < kWarmTicks) d.tick();
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    d.measuring = true;
    d.measure_start = t0;
    while (!d.all_offered() && d.ticks < kWarmTicks + kDrainTicks) d.tick();
    const auto t1 = Clock::now();
    const double cpu = cpu_seconds() - cpu0;
    if (i == 0) p.peak_rss_offered = peak_rss_bytes();
    const std::uint64_t arrived_in_window = d.arrived_measured;
    // The drain is checked but not timed: how long the last few messages
    // of a round take depends on where the round stops, not on speed.
    // Their latencies still count.
    for (std::uint64_t t = 0; d.arrived < d.offered && t < kDrainTicks; ++t) {
      d.tick();
    }
    const double measured = seconds_between(t0, t1);
    p.rs.add(seconds_between(t_setup, t0), measured,
             static_cast<double>(arrived_in_window), cpu, 1.0, d.latency_ms);
    if (traced && i == 0) fabric->bus().detach(&forward_sink);

    ledger.finish();
    constexpr std::uint64_t kOffers = kSessions * kRoundMessages;
    r.attempted += kOffers;
    r.failed += ledger.failed() + (kOffers - d.offered);
    if (d.offered < kOffers) {
      r.note("fabric round " + std::to_string(i) + ": " +
             std::to_string(kOffers - d.offered) + " messages never offered");
    }
    if (!ledger.first_error().empty()) {
      r.note("fabric round " + std::to_string(i) + ": " + ledger.first_error());
    }
    if (!fabric->all_clean()) r.fail("fabric: an end-to-end checker is not clean");
    if (!fabric->links_clean()) r.fail("fabric: a hop-link checker is not clean");

    p.all_arrived += d.arrived;
    if (i == 0) p.e2e_ticks = d.e2e_ticks;
    for (std::uint32_t L = 0; L < fabric->link_count(); ++L) {
      p.link_steps += fabric->link(L).steps_taken();
      p.hop_oks += fabric->link(L).stats().oks;
    }
    p.hop_forwards += fabric->counters().fabric().hop_forwards;
    p.custody_high_water = std::max(p.custody_high_water, fabric->custody_high_water());
    p.step_ns += d.step_ns;
    p.timed_steps += d.timed_steps;
    return measured;
  });
}

/// Untimed probe: a short round with a coverage sink on every hop link.
std::uint64_t probe_coverage(const RunArgs& args, Result& r) {
  const std::uint64_t seed = round_seed(args.seed, 0);
  s2d::CoverageMap map;
  std::vector<std::unique_ptr<s2d::CoverageSink>> sinks;
  auto fabric = build_fabric(seed, nullptr, &sinks, &map);
  s2d::CoverageSink fabric_sink(&map);
  fabric->bus().attach(&fabric_sink);
  FabricLedger ledger(seed, kPayloadBytes, kSessions);
  Feeder d(*fabric, ledger, kProbeMessages, nullptr);
  while ((d.arrived < d.offered || !d.all_offered()) && d.ticks < kDrainTicks) {
    d.tick();
  }
  ledger.finish();
  if (ledger.failed() != 0) r.fail("fabric probe: " + ledger.first_error());
  fabric->bus().detach(&fabric_sink);
  return map.popcount();
}

/// Replays the recorded hop forwards through wrap_custody/unwrap_custody.
void replay_custody(const Pass& p, Result& r) {
  if (p.forwards.empty()) return;
  std::vector<std::string> payloads(p.forwards.size());
  for (std::size_t i = 0; i < p.forwards.size(); ++i) {
    const s2d::Event& ev = p.forwards[i];
    ledger_payload(payloads[i], mix64(p.forward_seed + (ev.value - 1)), ev.msg,
                   kPayloadBytes);
  }
  std::vector<s2d::Bytes> wires(p.forwards.size());
  std::vector<double> wrap;
  std::vector<double> unwrap;
  std::uint64_t bad = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < p.forwards.size(); ++i) {
      const s2d::Event& ev = p.forwards[i];
      wires[i] = s2d::TransportFabric::wrap_custody(ev.value, ev.msg, ev.aux,
                                                    payloads[i]);
    }
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < p.forwards.size(); ++i) {
      const auto c = s2d::TransportFabric::unwrap_custody(wires[i]);
      if (!c || c->msg != p.forwards[i].msg || c->payload != payloads[i]) ++bad;
    }
    const auto t2 = Clock::now();
    const auto n = static_cast<double>(p.forwards.size());
    wrap.push_back(ns_between(t0, t1) / n);
    unwrap.push_back(ns_between(t1, t2) / n);
  }
  if (bad != 0) r.fail("custody records did not round-trip");
  r.metrics["transport.custody_wrap_ns"] = median(wrap);
  r.metrics["transport.custody_unwrap_ns"] = median(unwrap);
}

}  // namespace

Result run_fabric_grid(const RunArgs& args) {
  Result r;
  const std::uint64_t rss0 = rss_bytes();
  Pass p;
  run_pass(args, args.trace ? args.seconds / 2 : args.seconds, false, p, r);
  if (!args.trace) {
    const std::uint64_t coverage = probe_coverage(args, r);
    const auto peak = static_cast<double>(p.peak_rss_offered);
    constexpr double kHopLinks = 2.0 * 2 * kGridSide * (kGridSide - 1);
    p.rs.report(r);
    r.metrics["peak_rss_bytes"] = peak;
    r.metrics["rss_bytes_per_session"] = (peak - static_cast<double>(rss0)) / kHopLinks;
    r.metrics["coverage_bits"] = static_cast<double>(coverage);
    return r;
  }

  const auto all = static_cast<double>(p.all_arrived);
  r.metrics["transport.link_steps_per_msg"] =
      ratio(static_cast<double>(p.link_steps), all);
  r.metrics["transport.hop_forwards_per_msg"] =
      ratio(static_cast<double>(p.hop_forwards), all);
  r.metrics["transport.e2e_ticks_p50"] = quantile(p.e2e_ticks, 0.5);
  r.metrics["transport.e2e_ticks_p99"] = quantile(p.e2e_ticks, 0.99);
  r.metrics["transport.custody_high_water_bytes"] =
      static_cast<double>(p.custody_high_water);

  Pass t;
  run_pass(args, args.seconds / 2, true, t, r);
  report_module_layers(t.probes.lt, static_cast<double>(t.hop_oks), r);
  r.metrics["transport.step_us"] =
      ratio(t.step_ns - static_cast<double>(t.timed_steps) * timer_cost_ns(),
            static_cast<double>(t.timed_steps)) * 1e-3;
  r.metrics["transport.link_build_us"] = t.probes.link_builds.us_per_call();
  replay_custody(t, r);
  r.metrics["trace.overhead_ratio"] =
      ratio(median(p.rs.msgs_per_s), median(t.rs.msgs_per_s));
  return r;
}

}  // namespace pb
