// wire-udp: a TM and an RM wire session on one EventLoop over loopback
// UDP (not a real link) under a mild seeded impairment. The only
// workload that exercises sockets, timers and the event loop; the
// simulator layers are negligible here. The benchmark drives
// EventLoop::poll_once itself.
//
// Round i: bind both stations (seeded from (seed, i)) and run
// kRoundMessages messages; set-up lasts until the first kWarmOks OKs, the
// measured window from there to the last OK. The benchmark's own sinks
// on the two session buses time each message from send_msg to OK and
// record every delivery id on the RM side.
#include <memory>

#include "checks.h"
#include "core/ghm.h"
#include "net/loop.h"
#include "net/session.h"
#include "probes.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr std::uint64_t kRoundMessages = 800;
constexpr std::uint64_t kWarmOks = 20;
constexpr std::size_t kPayloadBytes = 16;

s2d::ImpairConfig mild_impairment(std::uint64_t seed) {
  s2d::ImpairConfig c;
  c.drop = 0.02;
  c.dup = 0.01;
  c.hold = 0.02;
  c.seed = seed;
  return c;
}

/// TM-bus sink: send_msg -> OK latency and the measured window.
class TmSink final : public s2d::EventSink {
 public:
  explicit TmSink(s2d::CoverageMap* coverage) : coverage_(coverage) {
    offered_at_.resize(kRoundMessages + 1);
  }
  void on_event(const s2d::Event& ev) override {
    coverage_.on_event(ev);
    if (ev.kind == s2d::EventKind::kSendMsg && ev.msg <= kRoundMessages) {
      offered_at_[ev.msg] = Clock::now();
    } else if (ev.kind == s2d::EventKind::kOk && ev.msg <= kRoundMessages) {
      const auto now = Clock::now();
      ++oks;
      if (measuring) {
        latency_ms.push_back(seconds_between(offered_at_[ev.msg], now) * 1e3);
      }
      if (oks == kWarmOks) {
        measuring = true;
        t0 = now;
        cpu0 = cpu_seconds();
      }
      if (oks == kRoundMessages) {
        measuring = false;
        t1 = now;
        cpu1 = cpu_seconds();
      }
    }
  }

  std::uint64_t oks = 0;
  bool measuring = false;
  Clock::time_point t0{};
  Clock::time_point t1{};
  double cpu0 = 0.0;
  double cpu1 = 0.0;
  std::vector<double> latency_ms;

 private:
  s2d::CoverageSink coverage_;
  std::vector<Clock::time_point> offered_at_;
};

/// RM-bus sink: every receive_msg id, once-only.
class RmSink final : public s2d::EventSink {
 public:
  explicit RmSink(s2d::CoverageMap* coverage) : coverage_(coverage) {}
  void on_event(const s2d::Event& ev) override {
    coverage_.on_event(ev);
    if (ev.kind == s2d::EventKind::kReceiveMsg) once.insert(ev.msg);
  }
  OnceSet once;

 private:
  s2d::CoverageSink coverage_;
};

struct Pass {
  RoundStats rs;
  double measured_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t measured_msgs = 0;
  std::uint64_t all_msgs = 0;
  std::vector<double> coverage_bits;
  double round0_rss = 0.0;  // RSS growth over round 0, live stations
  std::uint64_t polls = 0;  // measured window
  std::uint64_t all_polls = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t impair_events = 0;
  LayerTimes lt;
  double poll_ns = 0.0;
};

void run_pass(const RunArgs& args, double seconds, bool traced, Pass& p,
              Result& r) {
  p.rs.peak_rss_round0 = run_rounds(seconds, 3, [&](int i) {
    const std::uint64_t seed =
        round_seed(args.seed, static_cast<std::uint64_t>(i));
    const std::uint64_t rss_before = rss_bytes();
    const auto t_setup = Clock::now();
    const s2d::GrowthPolicy policy = s2d::GrowthPolicy::geometric(kEpsilon);
    auto tm_half = s2d::make_ghm(policy, seed);
    auto rm_half = s2d::make_ghm(policy, seed);
    std::unique_ptr<s2d::ITransmitter> tm_mod = std::move(tm_half.tm);
    std::unique_ptr<s2d::IReceiver> rm_mod = std::move(rm_half.rm);
    if (traced) {
      p.lt.sampling = true;  // wire calls are few: time every one
      tm_mod = std::make_unique<ProbeTm>(
          s2d::OwnedPtr<s2d::ITransmitter>(std::move(tm_mod)), &p.lt);
      rm_mod = std::make_unique<ProbeRm>(
          s2d::OwnedPtr<s2d::IReceiver>(std::move(rm_mod)), &p.lt);
    }

    s2d::WireSessionConfig cfg;
    cfg.messages = kRoundMessages;
    cfg.payload_bytes = kPayloadBytes;
    cfg.payload_seed = seed;
    cfg.retry_interval = std::chrono::milliseconds(2);
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.linger = std::chrono::milliseconds(100);
    cfg.time_limit = std::chrono::milliseconds(30000);
    s2d::WireChannelConfig tm_net;
    s2d::WireChannelConfig rm_net;
    tm_net.bind = s2d::UdpAddress::loopback(0);
    rm_net.bind = s2d::UdpAddress::loopback(0);
    tm_net.impair = mild_impairment(seed);
    rm_net.impair = mild_impairment(seed + 1);

    s2d::TmWireSession tm(std::move(tm_mod), tm_net, cfg);
    s2d::RmWireSession rm(std::move(rm_mod), rm_net, cfg);
    tm.channel().set_peer(rm.channel().local_address());
    rm.channel().set_peer(tm.channel().local_address());
    s2d::CoverageMap coverage;
    TmSink tm_sink(&coverage);
    RmSink rm_sink(&coverage);
    tm.bus().attach(&tm_sink);
    rm.bus().attach(&rm_sink);

    s2d::EventLoop loop;
    const auto maybe_stop = [&] {
      if (tm.done() && rm.done()) loop.stop();
    };
    tm.set_on_done(maybe_stop);
    rm.set_on_done(maybe_stop);
    tm.start(loop);
    rm.start(loop);
    while (!loop.stopped()) {
      const bool in_window = tm_sink.measuring;
      if (traced) {
        const auto t0 = Clock::now();
        loop.poll_once(std::chrono::milliseconds(100));
        p.poll_ns += ns_between(t0, Clock::now());
      } else {
        loop.poll_once(std::chrono::milliseconds(100));
      }
      if (in_window) ++p.polls;
      ++p.all_polls;
    }
    tm.bus().detach(&tm_sink);
    rm.bus().detach(&rm_sink);
    if (i == 0) {
      p.round0_rss =
          static_cast<double>(rss_bytes()) - static_cast<double>(rss_before);
    }

    r.attempted += kRoundMessages;
    const std::string err = check_wire(kRoundMessages, tm.completed(),
                                       rm_sink.once.distinct(),
                                       rm_sink.once.duplicates());
    const bool clean = tm.succeeded() && rm.succeeded();
    if (!err.empty() || !clean) {
      r.failed += kRoundMessages - std::min(kRoundMessages, tm.completed()) +
                  rm_sink.once.duplicates();
      r.note("wire round " + std::to_string(i) + ": " +
             (err.empty() ? "a session reported a violation or timed out" : err));
    }
    if (tm_sink.oks < kRoundMessages) {  // no measured window
      return seconds_between(t_setup, Clock::now());
    }

    const double measured = seconds_between(tm_sink.t0, tm_sink.t1);
    p.rs.add(seconds_between(t_setup, tm_sink.t0), measured,
             static_cast<double>(kRoundMessages - kWarmOks),
             tm_sink.cpu1 - tm_sink.cpu0, 1.0, tm_sink.latency_ms);
    p.measured_s += measured;
    p.cpu_s += tm_sink.cpu1 - tm_sink.cpu0;
    p.measured_msgs += kRoundMessages - kWarmOks;
    p.all_msgs += kRoundMessages;
    p.coverage_bits.push_back(static_cast<double>(coverage.popcount()));
    p.datagrams += tm.channel().tx_datagrams() + rm.channel().tx_datagrams();
    p.timer_fires += tm.counters().wire().timer_fires +
                     rm.counters().wire().timer_fires +
                     rm.counters().link().retries;
    const auto& ti = tm.channel().impair_stats();
    const auto& ri = rm.channel().impair_stats();
    p.impair_events += ti.dropped + ti.duplicated + ti.held + ri.dropped +
                       ri.duplicated + ri.held;
    return measured;
  });
}

}  // namespace

Result run_wire_udp(const RunArgs& args) {
  Result r;
  Pass p;
  run_pass(args, args.trace ? args.seconds / 2 : args.seconds, false, p, r);
  const auto msgs = static_cast<double>(p.measured_msgs);
  if (!args.trace) {
    const auto peak = static_cast<double>(p.rs.peak_rss_round0);
    p.rs.report(r);
    r.metrics["peak_rss_bytes"] = peak;
    r.metrics["rss_bytes_per_session"] = p.round0_rss;
    r.metrics["coverage_bits"] = median(p.coverage_bits);
    return r;
  }

  const auto all = static_cast<double>(p.all_msgs);
  r.metrics["net.polls_per_msg"] = ratio(static_cast<double>(p.polls), msgs);
  r.metrics["net.cpu_share"] = ratio(p.cpu_s, p.measured_s);
  r.metrics["net.datagrams_per_msg"] = ratio(static_cast<double>(p.datagrams), all);
  r.metrics["net.timer_fires_per_msg"] = ratio(static_cast<double>(p.timer_fires), all);
  r.metrics["net.impair_events_per_msg"] =
      ratio(static_cast<double>(p.impair_events), all);

  Pass t;
  run_pass(args, args.seconds / 2, true, t, r);
  report_module_layers(t.lt, static_cast<double>(t.all_msgs), r);
  r.metrics["net.poll_us"] =
      ratio(t.poll_ns - static_cast<double>(t.all_polls) * timer_cost_ns(),
            static_cast<double>(t.all_polls)) * 1e-3;
  r.metrics["trace.overhead_ratio"] =
      ratio(median(p.rs.msgs_per_s), median(t.rs.msgs_per_s));
  return r;
}

}  // namespace pb
