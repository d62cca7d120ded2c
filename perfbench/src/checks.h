// The benchmark's output checks. Each compares what the program did
// against the benchmark's own record of what it offered (payloads come
// from pb::ledger_payload, never from the program) or against a property
// GHM must have; none compares against stored output. selftest.cpp feeds
// every check a tampered result and requires a rejection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "link/actions.h"

namespace pb {

/// Single-link delivery ledger (link-chaos). Properties checked per
/// event, from §2.6 with the benchmark's ascending unique ids:
///   * a delivery is of an offered id with its payload byte-identical;
///   * ids are delivered in ascending order and at most once, except
///     that the last delivered id may be delivered again after a crash^R
///     (Theorem 8 excuses exactly that duplicate);
///   * an OK confirms the in-flight id, which must have been delivered
///     since it was offered (Theorem 3).
class DeliveryLedger {
 public:
  DeliveryLedger(std::uint64_t payload_seed, std::size_t payload_bytes)
      : seed_(payload_seed), bytes_(payload_bytes) {}

  /// Fills `m` with message `id` (ids must ascend) and records the offer.
  void offer(std::uint64_t id, s2d::Message& m);
  void delivered(const s2d::Message& m);
  void crash_r() noexcept { crash_r_since_delivery_ = true; }
  void ok(std::uint64_t id);

  /// Messages that broke a property (each counted once).
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_error() const noexcept {
    return first_error_;
  }

 private:
  void flag(std::uint64_t id, const std::string& why);

  std::uint64_t seed_;
  std::size_t bytes_;
  std::string expect_;
  std::uint64_t last_offered_ = 0;
  std::uint64_t last_delivered_ = 0;
  bool crash_r_since_delivery_ = false;
  std::uint64_t failed_ = 0;
  std::uint64_t last_flagged_ = ~std::uint64_t{0};
  std::string first_error_;
};

/// Multi-session end-to-end ledger (fabric-grid): after the drain every
/// offered message has arrived exactly once at its destination with its
/// payload intact.
class FabricLedger {
 public:
  FabricLedger(std::uint64_t payload_seed, std::size_t payload_bytes,
               std::size_t sessions);

  /// Fills `m` with session `s`'s message `id` (ids ascend from 1).
  void offer(std::size_t s, std::uint64_t id, s2d::Message& m);
  /// True for the first intact arrival of an offered message.
  bool delivered(std::size_t s, const s2d::Message& m);
  /// Counts offered-but-missing messages as failed; call once, after the
  /// drain.
  void finish();

  /// Offered messages that failed, each counted once, plus arrivals of
  /// never-offered ids.
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_error() const noexcept {
    return first_error_;
  }

 private:
  void flag(const std::string& why);

  std::uint64_t seed_;
  std::size_t bytes_;
  std::string expect_;
  std::vector<std::vector<std::uint8_t>> seen_;  // [session][id] state
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

/// Once-only delivery record keyed by id (the wire run's RM-bus sink).
class OnceSet {
 public:
  /// False when `id` was seen before.
  bool insert(std::uint64_t id);
  [[nodiscard]] std::uint64_t distinct() const noexcept { return distinct_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept {
    return duplicates_;
  }

 private:
  std::vector<std::uint8_t> seen_;
  std::uint64_t distinct_ = 0;
  std::uint64_t duplicates_ = 0;
};

/// wire-udp: TM completions = RM distinct deliveries = messages offered,
/// and the benchmark's own RM-bus sink saw no id twice. Empty when clean.
[[nodiscard]] std::string check_wire(std::uint64_t offered,
                                     std::uint64_t tm_completed,
                                     std::uint64_t rm_distinct,
                                     std::uint64_t rm_duplicates);

/// fuzz-ghm: no violating script, and one round's report fingerprint is
/// identical at one and two shards.
[[nodiscard]] std::string check_fuzz(std::uint64_t violating_scripts,
                                     const std::string& fp_two_shards,
                                     const std::string& fp_one_shard);

/// fleet-1e5: offered = completed + aborted, nothing stalled, no safety
/// violation.
[[nodiscard]] std::string check_fleet_totals(std::uint64_t offered,
                                             std::uint64_t completed,
                                             std::uint64_t aborted,
                                             std::uint64_t stalled,
                                             std::uint64_t violations);

/// fleet-1e5: the slab engine at one and two shards and the serial
/// run_workload re-run agree on the aggregate's fingerprint.
[[nodiscard]] std::string check_fleet_fingerprints(
    const std::string& slab_two, const std::string& slab_one,
    const std::string& serial);

}  // namespace pb
