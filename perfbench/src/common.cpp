#include "common.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace pb {

double cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() noexcept {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and would
  // report the launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kib);
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
}

double timer_cost_ns() {
  static const double cost = [] {
    std::vector<double> per_call;
    for (int rep = 0; rep < 21; ++rep) {
      constexpr int kCalls = 2000;
      const auto t0 = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        volatile auto t = Clock::now();
        (void)t;
      }
      per_call.push_back(ns_between(t0, Clock::now()) / kCalls);
    }
    return median(per_call);
  }();
  return cost;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void ledger_payload(std::string& out, std::uint64_t seed, std::uint64_t id,
                    std::size_t bytes) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  out.resize(bytes);
  std::uint64_t state = mix64(seed ^ mix64(id));
  for (std::size_t i = 0; i < bytes; i += 8) {
    state = mix64(state);
    std::uint64_t word = state;
    for (std::size_t j = i; j < std::min(bytes, i + 8); ++j) {
      out[j] = kAlphabet[word & 63];
      word >>= 8;
    }
  }
}

void RoundStats::add(double setup, double measured, double msgs, double cpu,
                     double systems, const std::vector<double>& latency_ms) {
  setup_s.push_back(setup);
  msgs_per_s.push_back(ratio(msgs, measured));
  cpu_ms_per_msg.push_back(ratio(cpu * 1e3, msgs));
  scripts_per_s.push_back(ratio(systems, measured));
  latency_p50_ms.push_back(quantile(latency_ms, 0.5));
  latency_p99_ms.push_back(quantile(latency_ms, 0.99));
}

void RoundStats::report(Result& r) const {
  r.metrics["setup_s"] = median(setup_s);
  r.metrics["msgs_per_s"] = median(msgs_per_s);
  r.metrics["cpu_ms_per_msg"] = median(cpu_ms_per_msg);
  r.metrics["scripts_per_s"] = median(scripts_per_s);
  r.metrics["msg_latency_p50_ms"] = median(latency_p50_ms);
  r.metrics["msg_latency_p99_ms"] = median(latency_p99_ms);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu rounds; setup_s %.6g..%.6g; msgs_per_s %.6g..%.6g",
                setup_s.size(), quantile(setup_s, 0.0), quantile(setup_s, 1.0),
                quantile(msgs_per_s, 0.0), quantile(msgs_per_s, 1.0));
  r.note(line);
}

}  // namespace pb
