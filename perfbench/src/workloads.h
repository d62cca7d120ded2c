// The five workloads. Each runs whole rounds of a fixed make-up (inputs
// derived from RunArgs::seed) until RunArgs::seconds of measured time
// have passed, checks every output, and fills Result with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). A traced run first repeats the untraced measurement for half the
// time, so it can state its own tracing overhead.
#pragma once

#include "common.h"

namespace pb {

/// The per-message ε of every GHM instance the benchmark builds. At
/// 2^-32, ε times the messages of any run stays far below one, so a
/// failed operation means a fault, not chance.
inline constexpr double kEpsilon = 1.0 / 4294967296.0;

/// RETRY cadence (steps) of every simulated link and hop link. At one
/// RETRY per step acknowledgements outrun the one-delivery-per-step
/// adversary and backlogs grow without bound.
inline constexpr std::uint32_t kRetryEvery = 4;

Result run_link_chaos(const RunArgs& args);
Result run_fleet(const RunArgs& args);
Result run_fabric_grid(const RunArgs& args);
Result run_wire_udp(const RunArgs& args);
Result run_fuzz_ghm(const RunArgs& args);

/// Feeds every check a tampered result; returns the failures (empty
/// when every check rejected its tampered input and accepted a clean one).
std::vector<std::string> run_selftest();

}  // namespace pb
