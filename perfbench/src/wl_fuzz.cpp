// fuzz-ghm: run_fuzz in coverage mode on GHM with two shards. Every
// script builds a fresh system and every event flows through a
// CoverageSink, so construction, bus sinks and mutation dominate. The
// schedules are generated decision scripts, not RandomFaultAdversary.
//
// The system is the registry's "ghm" composition (make_ghm +
// script_link_config) at the benchmark's ε, run with the program's
// FuzzerConfig defaults apart from the script count, depth, seed, shards
// and mode. Round i: a warm-up run_fuzz of kWarmScripts scripts (set-up),
// then one of kRoundScripts scripts (measured), both seeded from (seed,
// i), then, untimed, kLatencyScripts scripts of that round through
// fuzz_script with a bus sink that times each message from send_msg to
// OK. Every script must be violation-free, and round 0's report
// fingerprint must be identical at one and two shards.
#include <memory>

#include "checks.h"
#include "core/ghm.h"
#include "fleet/fleet.h"
#include "harness/fuzzer.h"
#include "probes.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr std::uint64_t kRoundScripts = 2048;
constexpr std::uint64_t kWarmScripts = 256;
constexpr std::uint32_t kDepth = 100;
constexpr unsigned kShards = 2;
constexpr std::uint64_t kReplayScripts = 256;
constexpr std::uint64_t kLatencyScripts = 256;

/// The registry's "ghm" system; with `builds`, every construction is
/// timed, and with `lt`, the modules and the adversary are decorated.
s2d::SeededSystem make_system(CallTimes* builds, LayerTimes* lt) {
  auto policy = std::make_shared<const s2d::GrowthPolicy>(
      s2d::GrowthPolicy::geometric(kEpsilon));
  return [policy, builds, lt](std::uint64_t seed) {
    return s2d::AdversaryLinkFactory(
        [policy, builds, lt, seed](std::unique_ptr<s2d::Adversary> adv) {
          const auto t0 = Clock::now();
          auto pair = s2d::make_ghm(*policy, seed);
          s2d::OwnedPtr<s2d::ITransmitter> tm(std::move(pair.tm));
          s2d::OwnedPtr<s2d::IReceiver> rm(std::move(pair.rm));
          s2d::OwnedPtr<s2d::Adversary> a(std::move(adv));
          if (lt != nullptr) {
            tm = s2d::OwnedPtr<s2d::ITransmitter>(
                std::make_unique<ProbeTm>(std::move(tm), lt));
            rm = s2d::OwnedPtr<s2d::IReceiver>(
                std::make_unique<ProbeRm>(std::move(rm), lt));
            a = s2d::OwnedPtr<s2d::Adversary>(
                std::make_unique<ProbeAdversary>(std::move(a), lt));
          }
          s2d::DataLink link(std::move(tm), std::move(rm), std::move(a),
                             s2d::script_link_config(false));
          if (builds != nullptr) builds->add_since(t0);
          return link;
        });
  };
}

s2d::FuzzerConfig fuzz_config(std::uint64_t root_seed, std::uint64_t scripts,
                              unsigned threads) {
  s2d::FuzzerConfig cfg;
  cfg.scripts = scripts;
  cfg.depth = kDepth;
  cfg.root_seed = root_seed;
  cfg.threads = threads;
  cfg.mode = s2d::FuzzMode::kCoverage;
  return cfg;
}

/// Untimed: the first kLatencyScripts generated scripts of a round run one
/// by one through fuzz_script, each with a fresh MsgLatencySink on its
/// link's bus; every message's send_msg-to-OK time in ms.
std::vector<double> message_latencies(const s2d::SeededSystem& system,
                                      std::uint64_t root_seed) {
  const s2d::FuzzerConfig cfg = fuzz_config(root_seed, kLatencyScripts, 1);
  std::vector<double> ms;
  for (std::uint64_t i = 0; i < kLatencyScripts; ++i) {
    const std::uint64_t seed = s2d::fleet_session_seed(root_seed, i);
    MsgLatencySink sink;
    (void)s2d::fuzz_script(system(seed), seed, cfg, &sink);
    ms.insert(ms.end(), sink.latency_ms.begin(), sink.latency_ms.end());
  }
  return ms;
}

struct Pass {
  RoundStats rs;
  std::uint64_t scripts = 0;
  std::uint64_t steps = 0;
  std::vector<double> coverage_bits;
  std::vector<double> corpus_kept;
  std::string round0_fingerprint;
  CallTimes builds;
};

void run_pass(const RunArgs& args, double seconds, bool traced, Pass& p,
              Result& r) {
  const s2d::SeededSystem system =
      make_system(traced ? &p.builds : nullptr, nullptr);
  p.rs.peak_rss_round0 = run_rounds(seconds, 3, [&](int i) {
    const std::uint64_t seed = round_seed(args.seed, static_cast<std::uint64_t>(i));
    const auto t_setup = Clock::now();
    const s2d::FuzzReport warm =
        s2d::run_fuzz(system, fuzz_config(mix64(seed), kWarmScripts, kShards));
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    const s2d::FuzzReport rep =
        s2d::run_fuzz(system, fuzz_config(seed, kRoundScripts, kShards));
    const auto t1 = Clock::now();
    const double cpu = cpu_seconds() - cpu0;
    const double measured = seconds_between(t0, t1);
    p.rs.add(seconds_between(t_setup, t0), measured,
             static_cast<double>(rep.oks_total), cpu,
             static_cast<double>(rep.scripts), message_latencies(system, seed));

    r.attempted += warm.scripts + rep.scripts;
    r.failed += warm.violating_scripts + rep.violating_scripts;
    if (rep.scripts != kRoundScripts) r.fail("run_fuzz ran fewer scripts than asked");
    if (i == 0) p.round0_fingerprint = rep.fingerprint();
    p.scripts += rep.scripts;
    p.steps += rep.steps_total;
    p.coverage_bits.push_back(static_cast<double>(rep.coverage_bits));
    p.corpus_kept.push_back(static_cast<double>(rep.corpus_kept));
    return measured;
  });

  // Round 0 again at one shard: the report must not depend on sharding.
  const s2d::FuzzReport one = s2d::run_fuzz(
      system, fuzz_config(round_seed(args.seed, 0), kRoundScripts, 1));
  const std::string err =
      check_fuzz(one.violating_scripts, p.round0_fingerprint, one.fingerprint());
  if (!err.empty()) r.fail(err);
}

/// Untimed replays for the per-layer costs: kReplayScripts scripts run
/// single-threaded through decorated modules and a recording sink, then
/// their packets through the codec, their events through a fresh
/// CoverageSink and their decision scripts through mutate_script.
void replay_layers(const RunArgs& args, Result& r) {
  LayerTimes lt;
  lt.sampling = true;
  const s2d::SeededSystem system = make_system(nullptr, &lt);
  const s2d::FuzzerConfig cfg = fuzz_config(round_seed(args.seed, 0), 1, 1);
  RecordingSink sink;
  std::vector<std::vector<s2d::Decision>> scripts;
  std::uint64_t oks = 0;
  for (std::uint64_t i = 0; i < kReplayScripts; ++i) {
    const std::uint64_t seed = s2d::fleet_session_seed(cfg.root_seed, i);
    const s2d::FuzzRun run = s2d::fuzz_script(system(seed), seed, cfg, &sink);
    oks += run.oks;
    scripts.push_back(run.script);
  }
  report_module_layers(lt, static_cast<double>(oks), r);
  r.metrics["obs.coverage_sink_ns_per_event"] = coverage_sink_ns_per_event(sink.kept);

  std::vector<double> per_call;
  s2d::Rng rng(cfg.root_seed);
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t total = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      for (std::size_t op = 0; op < s2d::kMutationOpCount; ++op) {
        total += s2d::mutate_script(scripts[i], scripts[(i + 1) % scripts.size()],
                                    static_cast<s2d::MutationOp>(op), rng,
                                    cfg.weights, kDepth)
                     .size();
      }
    }
    const auto n = static_cast<double>(scripts.size() * s2d::kMutationOpCount);
    per_call.push_back(ns_between(t0, Clock::now()) / n);
    if (total == 0) r.fail("mutate_script produced empty scripts");
  }
  r.metrics["harness.mutate_ns"] = median(per_call);
}

}  // namespace

Result run_fuzz_ghm(const RunArgs& args) {
  Result r;
  const std::uint64_t rss0 = rss_bytes();
  Pass p;
  run_pass(args, args.trace ? args.seconds / 2 : args.seconds, false, p, r);
  const auto scripts = static_cast<double>(p.scripts);
  if (!args.trace) {
    const auto peak = static_cast<double>(p.rs.peak_rss_round0);
    p.rs.report(r);
    r.metrics["peak_rss_bytes"] = peak;
    r.metrics["rss_bytes_per_session"] = (peak - static_cast<double>(rss0)) / kShards;
    r.metrics["coverage_bits"] = median(p.coverage_bits);
    return r;
  }

  r.metrics["harness.steps_per_script"] = ratio(static_cast<double>(p.steps), scripts);
  r.metrics["harness.corpus_kept"] = median(p.corpus_kept);
  replay_layers(args, r);

  Pass t;
  run_pass(args, args.seconds / 2, true, t, r);
  r.metrics["harness.build_us_per_script"] = t.builds.us_per_call();
  r.metrics["trace.overhead_ratio"] =
      ratio(median(p.rs.scripts_per_s), median(t.rs.scripts_per_s));
  return r;
}

}  // namespace pb
