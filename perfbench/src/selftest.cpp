// Self-test of the output checks: each must accept a clean result and
// reject a tampered one (a duplicated id, a flipped payload byte, a
// missing delivery after the drain, out-of-order ids, a fuzz report whose
// fingerprint differs between shard counts). Every benchmark run
// executes it first, so a check that has gone vacuous fails the run.
#include "checks.h"
#include "common.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr std::uint64_t kSeed = 0x5e1f7e57;
constexpr std::size_t kBytes = 32;

/// Drives a DeliveryLedger through `events`: 'o' offers the next id,
/// 'd<k>' delivers id k with its true payload, 'x<k>' delivers id k with
/// one payload byte flipped, 'r' is a crash^R, 'k' is the OK of the last
/// offer.
std::uint64_t link_failures(const std::vector<std::string>& events) {
  DeliveryLedger ledger(kSeed, kBytes);
  s2d::Message offered;
  std::uint64_t next = 1;
  for (const std::string& e : events) {
    if (e == "o") {
      ledger.offer(next++, offered);
    } else if (e == "r") {
      ledger.crash_r();
    } else if (e == "k") {
      ledger.ok(next - 1);
    } else {
      s2d::Message m;
      m.id = std::stoull(e.substr(1));
      ledger_payload(m.payload, kSeed, m.id, kBytes);
      if (e[0] == 'x') m.payload[3] = static_cast<char>(m.payload[3] ^ 1);
      ledger.delivered(m);
    }
  }
  return ledger.failed();
}

/// Session 0 offers ids 1..3; `arrivals` lists the ids that arrive
/// (negative: arrives with a flipped payload byte).
std::uint64_t fabric_failures(const std::vector<int>& arrivals) {
  FabricLedger ledger(kSeed, kBytes, 1);
  s2d::Message m;
  for (std::uint64_t id = 1; id <= 3; ++id) ledger.offer(0, id, m);
  for (int a : arrivals) {
    s2d::Message d;
    d.id = static_cast<std::uint64_t>(a < 0 ? -a : a);
    ledger_payload(d.payload, mix64(kSeed), d.id, kBytes);
    if (a < 0) d.payload[0] = static_cast<char>(d.payload[0] ^ 0x20);
    ledger.delivered(0, d);
  }
  ledger.finish();
  return ledger.failed();
}

}  // namespace

std::vector<std::string> run_selftest() {
  std::vector<std::string> bad;
  const auto expect = [&bad](bool ok, const char* what) {
    if (!ok) bad.emplace_back(what);
  };

  // link-chaos ledger.
  expect(link_failures({"o", "d1", "k", "o", "d2", "k"}) == 0,
         "link ledger rejected a clean run");
  expect(link_failures({"o", "d1", "r", "d1", "k"}) == 0,
         "link ledger rejected a re-delivery excused by crash^R");
  expect(link_failures({"o", "d1", "d1", "k"}) != 0,
         "link ledger accepted a duplicated id");
  expect(link_failures({"o", "x1", "k"}) != 0,
         "link ledger accepted a flipped payload byte");
  expect(link_failures({"o", "d1", "k", "o", "d2", "k", "d1"}) != 0,
         "link ledger accepted out-of-order ids");
  expect(link_failures({"o", "k"}) != 0,
         "link ledger accepted an OK without a delivery");
  expect(link_failures({"o", "d2"}) != 0,
         "link ledger accepted a never-offered id");

  // fabric-grid ledger.
  expect(fabric_failures({1, 2, 3}) == 0, "fabric ledger rejected a clean drain");
  expect(fabric_failures({1, 3}) != 0,
         "fabric ledger accepted a missing delivery after the drain");
  expect(fabric_failures({1, 2, 2, 3}) != 0,
         "fabric ledger accepted a duplicated id");
  expect(fabric_failures({1, -2, 3}) != 0,
         "fabric ledger accepted a flipped payload byte");

  // wire-udp.
  OnceSet once;
  for (std::uint64_t id = 1; id <= 3; ++id) once.insert(id);
  expect(check_wire(3, 3, once.distinct(), once.duplicates()).empty(),
         "wire check rejected a clean round");
  once.insert(2);
  expect(!check_wire(3, 3, once.distinct(), once.duplicates()).empty(),
         "wire check accepted a duplicated id");
  expect(!check_wire(3, 2, 3, 0).empty(),
         "wire check accepted a missing TM completion");

  // fuzz-ghm.
  expect(check_fuzz(0, "00ff", "00ff").empty(), "fuzz check rejected a clean report");
  expect(!check_fuzz(0, "00ff", "00fe").empty(),
         "fuzz check accepted fingerprints that differ between shard counts");
  expect(!check_fuzz(1, "00ff", "00ff").empty(),
         "fuzz check accepted a violating script");

  // fleet-1e5.
  expect(check_fleet_totals(16, 15, 1, 0, 0).empty(),
         "fleet check rejected clean totals");
  expect(!check_fleet_totals(16, 15, 0, 0, 0).empty(),
         "fleet check accepted offered != completed + aborted");
  expect(!check_fleet_totals(16, 15, 0, 1, 0).empty(),
         "fleet check accepted a stalled message");
  expect(check_fleet_fingerprints("ab", "ab", "ab").empty(),
         "fleet check rejected equal fingerprints");
  expect(!check_fleet_fingerprints("ab", "ab", "ac").empty(),
         "fleet check accepted a serial re-run that disagrees");
  return bad;
}

}  // namespace pb
