// Shared plumbing of the whole-stack benchmark: clocks, process
// resource probes, quantiles, the benchmark's own payload generator and
// the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds.
[[nodiscard]] double cpu_seconds() noexcept;
/// Resident set size now, and its high-water mark, in bytes.
[[nodiscard]] std::uint64_t rss_bytes() noexcept;
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

/// Cost of one steady_clock::now() call in ns (calibrated once); the
/// traced run subtracts it from every timed interval.
[[nodiscard]] double timer_cost_ns();

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// SplitMix64 finaliser: the benchmark's own seed derivation and payload
/// stream, independent of the program's Rng.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Seed of round (or check) `round` of a run seeded `seed`.
[[nodiscard]] inline std::uint64_t round_seed(std::uint64_t seed,
                                              std::uint64_t round) noexcept {
  return mix64(mix64(seed) ^ (round * 0x9e3779b97f4a7c15ULL));
}

/// The offered payload of message `id` in a stream keyed by `seed`:
/// printable bytes the benchmark regenerates on delivery to compare
/// byte for byte.
void ledger_payload(std::string& out, std::uint64_t seed, std::uint64_t id,
                    std::size_t bytes);

/// Heap allocation counting (the operator new replacement in main.cpp
/// counts only while enabled, so untraced runs pay one branch).
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t alloc_count() noexcept;

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One run's outcome: the result line plus human-readable notes printed
/// before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Per-round figures of one pass. Each end-to-end timing metric is the
/// median over rounds, so a transient stall of a shared machine moves one
/// round, not the result.
struct RoundStats {
  std::vector<double> setup_s;
  std::vector<double> msgs_per_s;
  std::vector<double> cpu_ms_per_msg;
  std::vector<double> scripts_per_s;
  std::vector<double> latency_p50_ms;
  std::vector<double> latency_p99_ms;
  std::uint64_t peak_rss_round0 = 0;  // what run_rounds returned

  /// One round: its set-up and measured seconds, the messages completed
  /// and the CPU seconds spent in the measured phase, the systems run to
  /// completion in it, and its per-message latencies.
  void add(double setup, double measured, double msgs, double cpu,
           double systems, const std::vector<double>& latency_ms);
  /// Fills setup_s, msgs_per_s, cpu_ms_per_msg, scripts_per_s and the
  /// two latency percentiles.
  void report(Result& r) const;
};

/// Runs rounds until at least `min_rounds` ran and their measured time
/// reached `seconds`. `round(i)` runs round i and returns its measured
/// seconds (set-up excluded). Returns the process's peak RSS right after
/// round 0, so that a memory figure does not depend on how many rounds
/// fit the run.
template <typename F>
std::uint64_t run_rounds(double seconds, int min_rounds, F&& round) {
  double measured = round(0);
  const std::uint64_t peak = peak_rss_bytes();
  int i = 1;
  while (i < min_rounds || measured < seconds) {
    measured += round(i);
    ++i;
  }
  return peak;
}

/// Ratio with a zero guard (a layer the workload never exercised reads 0).
[[nodiscard]] inline double ratio(double num, double den) noexcept {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace pb
