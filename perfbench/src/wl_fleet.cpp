// fleet-1e5: 10^5 concurrent GHM sessions on the slab engine with two
// shards. Slab scheduling and per-session construction dominate and each
// session's history stays small: the link layers of link-chaos used as
// many short lives instead of one long one.
//
// Round i builds every session (set-up: the SlabShard constructors, run
// in parallel up to the all-sessions-live rendezvous) and then runs them
// all to completion, exactly as run_fleet_slab does; the benchmark drives
// the public SlabShard API itself so the two phases are timed apart.
// Sessions come from the program's make_ghm_fleet_factory with the
// program's FleetConfig defaults (64 steps per scheduler visit) and
// exp_fleet's 16 messages per session. For the message latencies,
// kLatencyPer100 sessions in 100 are built without the
// shard-shared observability block — as a standalone link is, so their
// counters still reach the report — and carry a MsgLatencySink on their
// own bus.
#include <atomic>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/ghm.h"
#include "fleet/fleet.h"
#include "fleet/slab.h"
#include "probes.h"
#include "util/parallel.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr std::uint64_t kSessions = 100000;
constexpr unsigned kShards = 2;
constexpr std::uint64_t kMessagesPerSession = 16;
// Sessions with a latency sink per 100 (indices 0..9 of each hundred, five
// per shard). About 1.2% of messages wait out a scheduler round, so p99
// sits just inside that group and moves with its sampled share: with 2
// sessions in 100 the per-round p99 ranged from 150 to 510 ms within one
// run, with 10 from 226 to 364 ms.
constexpr std::uint64_t kLatencyPer100 = 10;
constexpr std::uint64_t kLatencySinks = kSessions / 100 * kLatencyPer100;
constexpr std::uint64_t kCheckSessions = 2000;
constexpr std::uint64_t kExtraSetups = 6;  // set-up-only builds per run

s2d::GhmFleetOptions fleet_options() {
  s2d::GhmFleetOptions o;
  o.epsilon = kEpsilon;
  o.faults = s2d::FaultProfile::chaos(0.05);
  o.retry_every = kRetryEvery;
  return o;
}

/// make_ghm_fleet_factory, with a latency sink on the sampled sessions
/// when `sinks` is set (kLatencySinks of them) and every call timed when
/// `times` is.
s2d::SessionFactory make_factory(std::vector<MsgLatencySink>* sinks,
                                 CallTimes* times) {
  s2d::SessionFactory plain = s2d::make_ghm_fleet_factory(fleet_options());
  return [plain, sinks, times](const s2d::SessionSpec& spec) {
    const auto t0 = times != nullptr ? Clock::now() : Clock::time_point{};
    std::unique_ptr<s2d::DataLink> link;
    if (sinks != nullptr && spec.shared != nullptr &&
        spec.index % 100 < kLatencyPer100) {
      s2d::DataLinkShared own_obs = *spec.shared;
      own_obs.obs = nullptr;
      s2d::SessionSpec sampled = spec;
      sampled.shared = &own_obs;
      link = plain(sampled);
      link->bus().attach(
          &(*sinks)[spec.index / 100 * kLatencyPer100 + spec.index % 100]);
    } else {
      link = plain(spec);
    }
    if (times != nullptr) times->add_since(t0);
    return link;
  };
}

s2d::FleetConfig fleet_config(std::uint64_t root_seed, std::uint64_t sessions,
                              unsigned threads) {
  s2d::FleetConfig cfg;
  cfg.sessions = sessions;
  cfg.threads = threads;
  cfg.root_seed = root_seed;
  cfg.workload.messages = kMessagesPerSession;
  cfg.workload.payload_bytes = 32;
  cfg.engine = s2d::FleetEngine::kSlab;
  return cfg;
}

struct FleetRound {
  double build_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  s2d::FleetReport report;
  std::uint64_t rss_live = 0;
  std::uint64_t build_allocs = 0;
  std::uint64_t arena_bytes = 0;
  s2d::Samples batch_us;
};

/// Builds every session of `cfg` on kShards threads and tears the fleet
/// down unrun: one more set-up sample per call.
double build_only(const s2d::FleetConfig& cfg, const s2d::SessionFactory& factory) {
  std::vector<std::unique_ptr<s2d::SlabShard>> shards(kShards);
  const auto t0 = Clock::now();
  s2d::parallel_shards(kShards, [&](unsigned shard) {
    shards[shard] = std::make_unique<s2d::SlabShard>(cfg, factory, shard, kShards);
  });
  return seconds_between(t0, Clock::now());
}

/// One fleet run, phase-timed; mirrors run_fleet_slab.
FleetRound fleet_round(const s2d::FleetConfig& cfg,
                       const s2d::SessionFactory& factory, bool count_allocs) {
  FleetRound out;
  // Outlives every stepping thread (see run_fleet_slab).
  std::vector<std::unique_ptr<s2d::SlabShard>> shards(kShards);
  std::atomic<unsigned> built{0};
  Clock::time_point t_live{};
  double cpu_live = 0.0;
  std::uint64_t allocs0 = 0;

  const auto t0 = Clock::now();
  if (count_allocs) {
    allocs0 = alloc_count();
    set_alloc_counting(true);
  }
  s2d::parallel_shards(kShards, [&](unsigned shard) {
    try {
      shards[shard] =
          std::make_unique<s2d::SlabShard>(cfg, factory, shard, kShards);
    } catch (...) {
      built.fetch_add(1, std::memory_order_acq_rel);
      throw;
    }
    if (built.fetch_add(1, std::memory_order_acq_rel) + 1 == kShards) {
      // Every session is live: the end of set-up.
      set_alloc_counting(false);
      out.build_allocs = alloc_count() - allocs0;
      t_live = Clock::now();
      cpu_live = cpu_seconds();
      out.rss_live = rss_bytes();
    } else {
      while (built.load(std::memory_order_acquire) < kShards) {
        std::this_thread::yield();
      }
    }
    shards[shard]->run_to_completion();
  });
  const auto t1 = Clock::now();
  out.run_cpu_s = cpu_seconds() - cpu_live;
  out.build_s = seconds_between(t0, t_live);
  out.run_s = seconds_between(t_live, t1);
  for (const auto& shard : shards) {
    out.report.merge(shard->partial());
    out.arena_bytes += shard->arena_bytes_reserved();
    out.batch_us.merge(shard->batch_latency_us());
  }
  out.report.canonicalize();
  return out;
}

struct Pass {
  RoundStats rs;
  std::uint64_t completed = 0;
  std::uint64_t sessions = 0;
  std::vector<double> batch_us;
  std::vector<double> steps_per_ok;
  std::uint64_t build_allocs = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t rss_live = 0;
  std::uint64_t state_bits_max = 0;
  std::uint64_t packets = 0;
  CallTimes times;
};

void run_pass(const RunArgs& args, double seconds, bool traced, Pass& p,
              Result& r) {
  std::vector<MsgLatencySink> sinks(kLatencySinks);
  const s2d::SessionFactory factory =
      make_factory(&sinks, traced ? &p.times : nullptr);
  p.rs.peak_rss_round0 = run_rounds(seconds, 3, [&](int i) {
    const s2d::FleetConfig cfg =
        fleet_config(round_seed(args.seed, static_cast<std::uint64_t>(i)), kSessions, kShards);
    FleetRound fr = fleet_round(cfg, factory, traced);
    const s2d::FleetReport& rep = fr.report;
    r.attempted += rep.offered;
    r.failed += rep.stalled + rep.violations.safety_total();
    const std::string err =
        check_fleet_totals(rep.offered, rep.completed, rep.aborted,
                           rep.stalled, rep.violations.safety_total());
    if (!err.empty()) {
      // Stalls and violations are counted in `failed`; anything else
      // means the totals themselves are inconsistent.
      const std::string what = "fleet round " + std::to_string(i) + ": " + err;
      if (rep.stalled + rep.violations.safety_total() != 0) {
        r.note(what);
      } else {
        r.fail(what);
      }
    }
    if (rep.sessions != kSessions) r.fail("fleet round lost sessions");
    std::vector<double> latency_ms;
    for (MsgLatencySink& sink : sinks) {
      latency_ms.insert(latency_ms.end(), sink.latency_ms.begin(),
                        sink.latency_ms.end());
      sink.latency_ms.clear();
    }
    p.rs.add(fr.build_s, fr.run_s, static_cast<double>(rep.completed),
             fr.run_cpu_s, static_cast<double>(rep.sessions), latency_ms);
    p.completed += rep.completed;
    p.sessions += rep.sessions;
    p.build_allocs += fr.build_allocs;
    if (i == 0) {
      p.arena_bytes = fr.arena_bytes;
      p.rss_live = fr.rss_live;
    }
    p.state_bits_max = std::max({p.state_bits_max, rep.link.max_tm_state_bits,
                                 rep.link.max_rm_state_bits});
    p.packets += rep.tr_packets + rep.rt_packets;
    const auto& b = fr.batch_us.values();
    p.batch_us.insert(p.batch_us.end(), b.begin(), b.end());
    if (i == 0) p.steps_per_ok = rep.steps_per_ok.values();
    return fr.run_s;
  });
  if (!traced) {
    // A round gives one set-up sample; these give setup_s a median over
    // more than the few rounds that fit a run.
    for (std::uint64_t k = 0; k < kExtraSetups; ++k) {
      p.rs.setup_s.push_back(build_only(
          fleet_config(round_seed(args.seed, 1000 + k), kSessions, kShards), factory));
    }
  }
}

/// Untimed check: a smaller fleet run by the slab engine at two shards
/// with the latency sinks as timed, at one shard without them, and
/// serially through run_workload outside the slab engine must agree. The
/// serial run also yields the protocol counters and the coverage bits.
struct Check {
  std::uint64_t coverage_bits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t epoch_extensions = 0;
  std::uint64_t completed = 0;
};

Check run_check(const RunArgs& args, Result& r) {
  std::vector<MsgLatencySink> sinks(kLatencySinks);
  const s2d::SessionFactory sampled = make_factory(&sinks, nullptr);
  const s2d::SessionFactory factory = make_factory(nullptr, nullptr);
  const std::uint64_t root = round_seed(args.seed, 0x636865636bULL);
  const s2d::FleetConfig two = fleet_config(root, kCheckSessions, 2);
  const s2d::FleetConfig one = fleet_config(root, kCheckSessions, 1);
  const std::string fp2 = s2d::run_fleet(two, sampled).report.fingerprint();
  const std::string fp1 = s2d::run_fleet(one, factory).report.fingerprint();

  Check c;
  s2d::CoverageMap map;
  s2d::FleetReport serial;
  for (std::uint64_t i = 0; i < kCheckSessions; ++i) {
    const s2d::SessionSpec spec{i, s2d::fleet_session_seed(root, i)};
    const std::unique_ptr<s2d::DataLink> link = factory(spec);
    s2d::CoverageSink sink(&map);
    link->bus().attach(&sink);
    serial.add(s2d::run_workload(*link, two.workload,
                                 spec.rng(s2d::kFleetWorkloadSalt)));
    link->bus().detach(&sink);
    const s2d::CounterSink& cs = link->counters();
    c.rejects += cs.protocol(s2d::Side::kTm).rejects +
                 cs.protocol(s2d::Side::kRm).rejects;
    c.epoch_extensions += cs.protocol(s2d::Side::kTm).epoch_extensions +
                          cs.protocol(s2d::Side::kRm).epoch_extensions;
  }
  serial.canonicalize();
  c.completed = serial.completed;
  c.coverage_bits = map.popcount();
  const std::string err =
      check_fleet_fingerprints(fp2, fp1, serial.fingerprint());
  if (!err.empty()) r.fail(err);
  return c;
}

}  // namespace

Result run_fleet(const RunArgs& args) {
  Result r;
  const std::uint64_t rss0 = rss_bytes();
  Pass p;
  run_pass(args, args.trace ? args.seconds / 2 : args.seconds, false, p, r);
  const Check c = run_check(args, r);
  const auto completed = static_cast<double>(p.completed);
  if (!args.trace) {
    const auto peak = static_cast<double>(p.rs.peak_rss_round0);
    p.rs.report(r);
    r.metrics["peak_rss_bytes"] = peak;
    r.metrics["rss_bytes_per_session"] =
        (peak - static_cast<double>(rss0)) / static_cast<double>(kSessions);
    r.metrics["coverage_bits"] = static_cast<double>(c.coverage_bits);
    return r;
  }

  const auto sessions = static_cast<double>(kSessions);
  r.metrics["core.pkts_per_ok"] = ratio(static_cast<double>(p.packets), completed);
  r.metrics["core.rejects_per_msg"] =
      ratio(static_cast<double>(c.rejects), static_cast<double>(c.completed));
  r.metrics["core.epoch_extensions_per_kmsg"] =
      ratio(1e3 * static_cast<double>(c.epoch_extensions),
            static_cast<double>(c.completed));
  r.metrics["core.steps_per_ok_p50"] = quantile(p.steps_per_ok, 0.5);
  r.metrics["core.steps_per_ok_p99"] = quantile(p.steps_per_ok, 0.99);
  r.metrics["core.state_bits_max"] = static_cast<double>(p.state_bits_max);
  r.metrics["fleet.batch_us_p50"] = quantile(p.batch_us, 0.5);
  r.metrics["fleet.batch_us_p99"] = quantile(p.batch_us, 0.99);
  r.metrics["fleet.arena_bytes_per_session"] =
      static_cast<double>(p.arena_bytes) / sessions;
  r.metrics["fleet.rss_live_bytes_per_session"] =
      (static_cast<double>(p.rss_live) - static_cast<double>(rss0)) / sessions;

  Pass t;
  run_pass(args, args.seconds / 2, true, t, r);
  r.metrics["fleet.build_us_per_session"] = t.times.us_per_call();
  r.metrics["fleet.allocs_per_session"] =
      ratio(static_cast<double>(t.build_allocs), static_cast<double>(t.sessions));
  // Per-session wall time: set-up plus run.
  const auto per_session = [](const Pass& x) {
    return median(x.rs.setup_s) / static_cast<double>(kSessions) +
           ratio(1.0, median(x.rs.scripts_per_s));
  };
  r.metrics["trace.overhead_ratio"] = ratio(per_session(t), per_session(p));
  return r;
}

}  // namespace pb
