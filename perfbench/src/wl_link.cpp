// link-chaos: one GHM DataLink under RandomFaultAdversary chaos with a
// small crash rate — the protocol hot path (codec, modules, channel
// history, executor, adversary, checker) on a long-lived link whose
// channel history and payload arena grow for the whole round. It
// continues E15's ghm/chaos cell, run for seconds instead of 0.1 s.
//
// Round i: a fresh link seeded from (seed, i) carries kWarmMessages
// (set-up) and then kRoundMessages (measured), one at a time, each run
// to its OK or to the crash^T that aborts it. An aborted message is a
// legal outcome (§2.6), not a failure; a message that breaks a ledger
// property or exhausts its step budget is.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "adversary/adversaries.h"
#include "checks.h"
#include "core/ghm.h"
#include "link/checker.h"
#include "link/datalink.h"
#include "probes.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr std::size_t kPayloadBytes = 32;
constexpr std::uint64_t kWarmMessages = 20000;
constexpr std::uint64_t kRoundMessages = 300000;
constexpr std::uint64_t kProbeMessages = 50000;
constexpr std::uint64_t kStepBudget = 1000000;  // per message
constexpr std::uint64_t kSampleEvery = 16;      // traced: 1 step in 16 timed
constexpr std::uint64_t kAdversarySalt = 0x6c696e6b616476ULL;

s2d::FaultProfile chaos_profile() {
  s2d::FaultProfile p = s2d::FaultProfile::chaos(0.05);
  p.crash_t = 1e-4;
  p.crash_r = 1e-4;
  return p;
}

s2d::DataLink build_link(std::uint64_t seed, LayerTimes* lt,
                         bool keep_trace) {
  auto pair = s2d::make_ghm(s2d::GrowthPolicy::geometric(kEpsilon), seed);
  s2d::OwnedPtr<s2d::ITransmitter> tm(std::move(pair.tm));
  s2d::OwnedPtr<s2d::IReceiver> rm(std::move(pair.rm));
  s2d::OwnedPtr<s2d::Adversary> adv(std::make_unique<s2d::RandomFaultAdversary>(
      chaos_profile(), s2d::Rng(seed).fork(kAdversarySalt)));
  if (lt != nullptr) {
    tm = s2d::OwnedPtr<s2d::ITransmitter>(
        std::make_unique<ProbeTm>(std::move(tm), lt));
    rm = s2d::OwnedPtr<s2d::IReceiver>(std::make_unique<ProbeRm>(std::move(rm), lt));
    adv = s2d::OwnedPtr<s2d::Adversary>(
        std::make_unique<ProbeAdversary>(std::move(adv), lt));
  }
  s2d::DataLinkConfig cfg;
  cfg.retry_every = kRetryEvery;
  cfg.keep_trace = keep_trace;
  cfg.record_packet_events = keep_trace;
  cfg.collect_deliveries = true;
  return s2d::DataLink(std::move(tm), std::move(rm), std::move(adv), cfg);
}

/// Offers messages one at a time and runs each to its outcome, feeding
/// every delivery, crash^R and OK to the ledger.
class Feeder {
 public:
  Feeder(s2d::DataLink& link, DeliveryLedger& ledger, LayerTimes* lt)
      : link_(link), ledger_(ledger), lt_(lt) {
    latency_ms.reserve(kRoundMessages);
    steps_per_ok.reserve(kRoundMessages);
  }

  /// Returns false if a message stalled (the link cannot take another).
  bool run(std::uint64_t messages, bool measured) {
    for (std::uint64_t i = 0; i < messages; ++i) {
      const std::uint64_t id = next_id_++;
      ledger_.offer(id, msg_);
      const auto offered_at = Clock::now();
      const std::uint64_t steps_before = link_.steps_taken();
      link_.offer(msg_);
      ++offered;
      for (;;) {
        step();
        if (link_.last_step_crashed_r()) ledger_.crash_r();
        if (link_.counters().deliveries() != deliveries_seen_) drain();
        if (link_.last_step_completed_ok()) {
          ledger_.ok(id);
          ++completed;
          if (measured) {
            latency_ms.push_back(seconds_between(offered_at, Clock::now()) * 1e3);
            steps_per_ok.push_back(
                static_cast<double>(link_.steps_taken() - steps_before));
          }
          break;
        }
        if (link_.last_step_crashed_t()) {
          ++aborted;
          break;
        }
        if (link_.steps_taken() - steps_before >= kStepBudget) {
          ++stalled;
          return false;
        }
      }
    }
    return true;
  }

  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t stalled = 0;
  std::vector<double> latency_ms;
  std::vector<double> steps_per_ok;
  double sampled_step_ns = 0.0;
  std::uint64_t sampled_steps = 0;

 private:
  void step() {
    if (lt_ != nullptr && ++step_counter_ % kSampleEvery == 0) {
      lt_->sampling = true;
      const auto t0 = Clock::now();
      link_.step();
      sampled_step_ns += ns_between(t0, Clock::now());
      lt_->sampling = false;
      ++sampled_steps;
    } else {
      link_.step();
    }
  }
  void drain() {
    for (const s2d::Message& d : link_.take_delivered()) ledger_.delivered(d);
    deliveries_seen_ = link_.counters().deliveries();
  }

  s2d::DataLink& link_;
  DeliveryLedger& ledger_;
  LayerTimes* lt_;
  s2d::Message msg_;
  std::uint64_t next_id_ = 1;
  std::uint64_t deliveries_seen_ = 0;
  std::uint64_t step_counter_ = 0;
};

/// What one pass (untraced or traced) measured.
struct Pass {
  RoundStats rs;
  std::uint64_t all_completed = 0;
  std::uint64_t steps = 0;  // measured phase
  std::uint64_t allocs = 0;  // measured phase, when counting
  std::vector<double> steps_per_ok;  // round 0
  // Whole-round counters (last round for the storage figures).
  std::uint64_t rejects = 0;
  std::uint64_t epoch_extensions = 0;
  std::uint64_t state_bits_max = 0;
  double stored_per_msg = 0.0;
  double dedup_ratio = 0.0;
  std::uint64_t arena_reserved = 0;
  // Traced pass only.
  LayerTimes lt;
  double sampled_step_ns = 0.0;
  std::uint64_t sampled_steps = 0;
};

Pass run_pass(const RunArgs& args, double seconds, bool traced,
              bool count_allocs, Result& r) {
  Pass p;
  p.rs.peak_rss_round0 = run_rounds(seconds, 3, [&](int i) {
    const std::uint64_t seed = round_seed(args.seed, static_cast<std::uint64_t>(i));
    const auto t_setup = Clock::now();
    s2d::DataLink link = build_link(seed, traced ? &p.lt : nullptr, false);
    DeliveryLedger ledger(seed, kPayloadBytes);
    Feeder d(link, ledger, traced ? &p.lt : nullptr);
    bool ok = d.run(kWarmMessages, false);
    const auto t0 = Clock::now();

    const double cpu0 = cpu_seconds();
    const std::uint64_t steps0 = link.steps_taken();
    const std::uint64_t completed0 = d.completed;
    if (count_allocs) set_alloc_counting(true);
    const std::uint64_t allocs0 = alloc_count();
    ok = ok && d.run(kRoundMessages, true);
    const std::uint64_t allocs1 = alloc_count();
    set_alloc_counting(false);
    const auto t1 = Clock::now();
    const double measured = seconds_between(t0, t1);
    p.rs.add(seconds_between(t_setup, t0), measured,
             static_cast<double>(d.completed - completed0),
             cpu_seconds() - cpu0, 1.0, d.latency_ms);
    p.allocs += allocs1 - allocs0;
    p.steps += link.steps_taken() - steps0;
    p.all_completed += d.completed;

    r.attempted += d.offered;
    r.failed += ledger.failed() + d.stalled;
    if (!ok) r.fail("link round " + std::to_string(i) + ": a message stalled");
    if (!ledger.first_error().empty()) {
      r.note("link round " + std::to_string(i) + ": " + ledger.first_error());
    }
    if (link.checker().violations().safety_total() != 0 &&
        ledger.failed() == 0) {
      r.fail("the link's checker flagged a violation the ledger did not see");
    }
    if (i == 0) p.steps_per_ok = d.steps_per_ok;

    const s2d::CounterSink& c = link.counters();
    p.rejects += c.protocol(s2d::Side::kTm).rejects +
                 c.protocol(s2d::Side::kRm).rejects;
    p.epoch_extensions += c.protocol(s2d::Side::kTm).epoch_extensions +
                          c.protocol(s2d::Side::kRm).epoch_extensions;
    p.state_bits_max = std::max({p.state_bits_max, c.link().max_tm_state_bits,
                                 c.link().max_rm_state_bits});
    const double stored = static_cast<double>(link.tr_channel().bytes_stored() +
                                              link.rt_channel().bytes_stored());
    p.stored_per_msg = ratio(stored, static_cast<double>(d.offered));
    p.dedup_ratio = ratio(stored, static_cast<double>(link.tr_channel().bytes_sent() +
                                                      link.rt_channel().bytes_sent()));
    p.arena_reserved = link.tr_channel().bytes_reserved();

    if (traced) {
      p.sampled_step_ns += d.sampled_step_ns;
      p.sampled_steps += d.sampled_steps;
    }
    return measured;
  });
  return p;
}

/// Untimed probe: the first kProbeMessages of round 0 again, keeping the
/// full trace (every packet event) and a recording sink (event counts,
/// coverage) on the link's bus. A fresh TraceChecker fed the recorded
/// trace must agree with the link's own online checker.
struct Probe {
  std::uint64_t coverage_bits = 0;
  double events_per_step = 0.0;
  double coverage_sink_ns = 0.0;
  double checker_ns_per_event = 0.0;
  double trace_events_per_step = 0.0;
};

Probe run_probe(const RunArgs& args, Result& r) {
  const std::uint64_t seed = round_seed(args.seed, 0);
  s2d::DataLink link = build_link(seed, nullptr, true);
  s2d::CoverageMap map;
  RecordingSink sink(&map);
  link.bus().attach(&sink);
  DeliveryLedger ledger(seed, kPayloadBytes);
  Feeder d(link, ledger, nullptr);
  if (!d.run(kProbeMessages, false) || ledger.failed() != 0) {
    r.fail("link probe: " + ledger.first_error());
  }
  link.bus().detach(&sink);
  Probe p;
  const auto steps = static_cast<double>(link.steps_taken());
  p.coverage_bits = map.popcount();
  p.events_per_step = ratio(static_cast<double>(sink.events), steps);
  p.coverage_sink_ns = coverage_sink_ns_per_event(sink.kept);

  const s2d::Trace& trace = link.trace();
  std::vector<double> per_event;
  for (int rep = 0; rep < 5; ++rep) {
    s2d::TraceChecker fresh;
    const auto t0 = Clock::now();
    fresh.check(trace);
    per_event.push_back(ratio(ns_between(t0, Clock::now()),
                              static_cast<double>(trace.size())));
    const s2d::TraceChecker& own = link.checker();
    const auto a = fresh.violations();
    const auto b = own.violations();
    if (a.causality != b.causality || a.order != b.order ||
        a.duplication != b.duplication || a.replay != b.replay ||
        a.axiom != b.axiom || fresh.deliveries() != own.deliveries() ||
        fresh.oks() != own.oks() || fresh.sends() != own.sends()) {
      r.fail("a fresh TraceChecker fed the recorded trace disagrees with "
             "the link's own checker");
    }
  }
  p.checker_ns_per_event = median(per_event);
  p.trace_events_per_step = ratio(static_cast<double>(trace.size()), steps);
  return p;
}

}  // namespace

Result run_link_chaos(const RunArgs& args) {
  Result r;
  const std::uint64_t rss0 = rss_bytes();
  const Pass p = run_pass(args, args.trace ? args.seconds / 2 : args.seconds,
                          false, args.trace, r);
  const Probe probe = run_probe(args, r);
  if (!args.trace) {
    const auto peak = static_cast<double>(p.rs.peak_rss_round0);
    p.rs.report(r);
    r.metrics["peak_rss_bytes"] = peak;
    r.metrics["rss_bytes_per_session"] = peak - static_cast<double>(rss0);
    r.metrics["coverage_bits"] = static_cast<double>(probe.coverage_bits);
    return r;
  }

  const double all = static_cast<double>(p.all_completed);
  r.metrics["link.allocs_per_step"] =
      ratio(static_cast<double>(p.allocs), static_cast<double>(p.steps));
  r.metrics["core.rejects_per_msg"] = ratio(static_cast<double>(p.rejects), all);
  r.metrics["core.epoch_extensions_per_kmsg"] =
      ratio(1e3 * static_cast<double>(p.epoch_extensions), all);
  r.metrics["core.steps_per_ok_p50"] = quantile(p.steps_per_ok, 0.5);
  r.metrics["core.steps_per_ok_p99"] = quantile(p.steps_per_ok, 0.99);
  r.metrics["core.state_bits_max"] = static_cast<double>(p.state_bits_max);
  r.metrics["link.channel_bytes_stored_per_msg"] = p.stored_per_msg;
  r.metrics["link.channel_dedup_ratio"] = p.dedup_ratio;
  r.metrics["link.arena_bytes_reserved"] = static_cast<double>(p.arena_reserved);
  r.metrics["obs.events_per_step"] = probe.events_per_step;
  r.metrics["obs.coverage_sink_ns_per_event"] = probe.coverage_sink_ns;

  const Pass t = run_pass(args, args.seconds / 2, true, false, r);
  report_module_layers(t.lt, static_cast<double>(t.all_completed), r);
  const double tc = timer_cost_ns();
  const auto steps = static_cast<double>(t.sampled_steps);
  const auto children = static_cast<double>(t.lt.tm_sampled + t.lt.rm_sampled +
                                            t.lt.adv_sampled);
  const double step_ns =
      ratio(t.sampled_step_ns - tc * (steps + 2.0 * children), steps);
  const double tm = ratio(t.lt.tm_ns - tc * static_cast<double>(t.lt.tm_sampled), steps);
  const double rm = ratio(t.lt.rm_ns - tc * static_cast<double>(t.lt.rm_sampled), steps);
  const double adv =
      ratio(t.lt.adv_ns - tc * static_cast<double>(t.lt.adv_sampled), steps);
  // The online checker sees every trace event, recorded or not.
  const double checker_per_event = probe.checker_ns_per_event;
  const double checker = checker_per_event * probe.trace_events_per_step;
  const double self = step_ns - tm - rm - adv;
  r.metrics["link.step_ns"] = step_ns;
  r.metrics["link.executor_self_ns"] = self;
  r.metrics["link.checker_ns_per_event"] = checker_per_event;
  r.metrics["link.share_tm"] = ratio(tm, step_ns);
  r.metrics["link.share_rm"] = ratio(rm, step_ns);
  r.metrics["link.share_adversary"] = ratio(adv, step_ns);
  r.metrics["link.share_checker"] = ratio(checker, step_ns);
  r.metrics["link.share_unattributed"] = ratio(self - checker, step_ns);
  r.metrics["trace.overhead_ratio"] =
      ratio(median(p.rs.msgs_per_s), median(t.rs.msgs_per_s));
  char line[256];
  std::snprintf(line, sizeof(line),
                "link-chaos step %.1f ns: tm %.1f%%, rm %.1f%%, adversary "
                "%.1f%%, checker %.1f%%, unattributed %.1f%%",
                step_ns, 100 * ratio(tm, step_ns), 100 * ratio(rm, step_ns),
                100 * ratio(adv, step_ns), 100 * ratio(checker, step_ns),
                100 * ratio(self - checker, step_ns));
  r.note(line);
  return r;
}

}  // namespace pb
