// s2d_perfbench: the whole-stack benchmark binary.
//
//   s2d_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   s2d_perfbench --selftest
//
// Prints human-readable notes ("# ..." lines), then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A per-layer metric reads 0 on a workload that does not
// exercise its layer. perfbench/run.py builds this binary and is the
// intended entry point.
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <new>
#include <string>

#include "common.h"
#include "workloads.h"

#if !defined(__OPTIMIZE__)
#define S2D_PB_UNOPTIMISED 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define S2D_PB_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define S2D_PB_SANITIZED 1
#endif
#endif

// ---------------------------------------------------------------------------
// Allocation counting: replaces the global allocation functions; counts
// only while enabled (traced runs), so untraced runs pay one branch.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}
void* counted_aligned_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace

namespace pb {
void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace pb

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py verifies every result against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"msgs_per_s", "1/s"},
    {"peak_rss_bytes", "bytes"},
    {"rss_bytes_per_session", "bytes"},
    {"msg_latency_p50_ms", "ms"},
    {"msg_latency_p99_ms", "ms"},
    {"cpu_ms_per_msg", "ms"},
    {"scripts_per_s", "1/s"},
    {"coverage_bits", "count"},
};

constexpr MetricDef kPerLayer[] = {
    {"util.codec_encode_ns", "ns"},
    {"util.codec_decode_ns", "ns"},
    {"util.pkt_bytes_mean", "bytes"},
    {"core.tm_ns_per_call", "ns"},
    {"core.rm_ns_per_call", "ns"},
    {"core.pkts_per_ok", "count"},
    {"core.rejects_per_msg", "count"},
    {"core.epoch_extensions_per_kmsg", "count"},
    {"core.steps_per_ok_p50", "steps"},
    {"core.steps_per_ok_p99", "steps"},
    {"core.state_bits_max", "bits"},
    {"link.step_ns", "ns"},
    {"link.executor_self_ns", "ns"},
    {"link.checker_ns_per_event", "ns"},
    {"link.allocs_per_step", "count"},
    {"link.channel_bytes_stored_per_msg", "bytes"},
    {"link.channel_dedup_ratio", "ratio"},
    {"link.arena_bytes_reserved", "bytes"},
    {"link.share_tm", "ratio"},
    {"link.share_rm", "ratio"},
    {"link.share_adversary", "ratio"},
    {"link.share_checker", "ratio"},
    {"link.share_unattributed", "ratio"},
    {"adversary.ns_per_decision", "ns"},
    {"adversary.delivery_share", "ratio"},
    {"obs.events_per_step", "count"},
    {"obs.coverage_sink_ns_per_event", "ns"},
    {"fleet.build_us_per_session", "us"},
    {"fleet.allocs_per_session", "count"},
    {"fleet.batch_us_p50", "us"},
    {"fleet.batch_us_p99", "us"},
    {"fleet.arena_bytes_per_session", "bytes"},
    {"fleet.rss_live_bytes_per_session", "bytes"},
    {"transport.step_us", "us"},
    {"transport.link_steps_per_msg", "steps"},
    {"transport.hop_forwards_per_msg", "count"},
    {"transport.custody_wrap_ns", "ns"},
    {"transport.custody_unwrap_ns", "ns"},
    {"transport.e2e_ticks_p50", "ticks"},
    {"transport.e2e_ticks_p99", "ticks"},
    {"transport.custody_high_water_bytes", "bytes"},
    {"transport.link_build_us", "us"},
    {"net.polls_per_msg", "count"},
    {"net.poll_us", "us"},
    {"net.cpu_share", "ratio"},
    {"net.datagrams_per_msg", "count"},
    {"net.timer_fires_per_msg", "count"},
    {"net.impair_events_per_msg", "count"},
    {"harness.build_us_per_script", "us"},
    {"harness.steps_per_script", "steps"},
    {"harness.mutate_ns", "ns"},
    {"harness.corpus_kept", "count"},
    {"trace.overhead_ratio", "ratio"},
};

const std::pair<const char*, std::function<Result(const RunArgs&)>> kWorkloads[] = {
    {"link-chaos", run_link_chaos},
    {"fleet-1e5", run_fleet},
    {"fabric-grid", run_fabric_grid},
    {"wire-udp", run_wire_udp},
    {"fuzz-ghm", run_fuzz_ghm},
};

int usage(const char* why) {
  std::cerr << "s2d_perfbench: " << why << "\n"
            << "usage: s2d_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
            << "       s2d_perfbench --selftest\n"
            << "workloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.first;
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

void print_result(const Result& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    double v = it != r.metrics.end() ? it->second : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run_main(int argc, char** argv) {
  std::string workload;
  RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, args.seed)) return usage("--seed wants an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 3600) {
        return usage("--seconds wants an integer in 1..3600");
      }
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("--trace wants 0 or 1");
      args.trace = n == 1;
      have_trace = true;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }

#if defined(S2D_PB_UNOPTIMISED) || defined(S2D_PB_SANITIZED)
  std::cerr << "s2d_perfbench: refusing to time an unoptimised or sanitizer "
               "build (build type " S2D_PERFBENCH_BUILD_TYPE ")\n";
  return 3;
#endif

  if (selftest) {
    const auto failures = run_selftest();
    for (const auto& f : failures) std::cout << "# SELFTEST FAILED: " << f << "\n";
    std::cout << "# selftest: " << (failures.empty() ? "every check rejected its "
                                                       "tampered input"
                                                     : "FAILED")
              << std::endl;
    return failures.empty() ? 0 : 1;
  }
  if (!have_seed || !have_seconds || !have_trace || workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  for (const auto& w : kWorkloads) {
    if (workload != w.first) continue;
    // Every run first proves its checks are not vacuous.
    const auto failures = run_selftest();
    Result r = w.second(args);
    for (const auto& f : failures) r.fail("selftest: " + f);
    if (args.trace) {
      r.note(workload + " tracing overhead: traced/untraced time per operation = " +
             std::to_string(r.metrics["trace.overhead_ratio"]));
    }
    for (const auto& n : r.notes) std::cout << "# " << n << "\n";
    print_result(r, args.trace);
    return 0;
  }
  return usage(("unknown workload " + workload).c_str());
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "s2d_perfbench: " << e.what() << "\n";
    return 1;
  }
}
