#include "checks.h"

#include "common.h"

namespace pb {

void DeliveryLedger::flag(std::uint64_t id, const std::string& why) {
  if (first_error_.empty()) first_error_ = why;
  if (id != last_flagged_) {
    ++failed_;
    last_flagged_ = id;
  }
}

void DeliveryLedger::offer(std::uint64_t id, s2d::Message& m) {
  if (id <= last_offered_) {
    flag(id, "offer ids must ascend (benchmark bug)");
  }
  last_offered_ = id;
  m.id = id;
  ledger_payload(m.payload, seed_, id, bytes_);
}

void DeliveryLedger::delivered(const s2d::Message& m) {
  if (m.id == 0 || m.id > last_offered_) {
    flag(m.id, "delivered id " + std::to_string(m.id) + " was never offered");
    return;
  }
  ledger_payload(expect_, seed_, m.id, bytes_);
  if (m.payload != expect_) {
    flag(m.id, "payload of id " + std::to_string(m.id) + " differs from the offer");
  }
  if (m.id == last_delivered_) {
    if (!crash_r_since_delivery_) {
      flag(m.id, "id " + std::to_string(m.id) +
                     " delivered twice with no crash^R in between");
    }
  } else if (m.id < last_delivered_) {
    flag(m.id, "id " + std::to_string(m.id) + " delivered after id " +
                   std::to_string(last_delivered_));
  }
  if (m.id > last_delivered_) last_delivered_ = m.id;
  crash_r_since_delivery_ = false;
}

void DeliveryLedger::ok(std::uint64_t id) {
  if (id != last_offered_ || last_delivered_ != id) {
    flag(id, "OK for id " + std::to_string(id) +
                 " without its delivery since the offer");
  }
}

FabricLedger::FabricLedger(std::uint64_t payload_seed,
                           std::size_t payload_bytes, std::size_t sessions)
    : seed_(payload_seed), bytes_(payload_bytes), seen_(sessions) {}

void FabricLedger::flag(const std::string& why) {
  if (first_error_.empty()) first_error_ = why;
  ++failed_;
}

void FabricLedger::offer(std::size_t s, std::uint64_t id, s2d::Message& m) {
  auto& seen = seen_[s];
  if (seen.empty()) seen.push_back(0);  // slot 0 unused: ids start at 1
  if (id != seen.size()) {
    flag("session " + std::to_string(s) + " offered id " +
         std::to_string(id) + " out of sequence (benchmark bug)");
  }
  if (seen.size() <= id) seen.resize(id + 1, 0);
  m.id = id;
  ledger_payload(m.payload, mix64(seed_ + s), id, bytes_);
}

bool FabricLedger::delivered(std::size_t s, const s2d::Message& m) {
  if (s >= seen_.size() || m.id == 0 || m.id >= seen_[s].size()) {
    flag("session " + std::to_string(s) + " received never-offered id " +
         std::to_string(m.id));
    return false;
  }
  // Slot states: 0 not arrived, 1 arrived intact, 2 failed. A message
  // counts as failed once, however many faulty copies of it arrive.
  std::uint8_t& slot = seen_[s][m.id];
  if (slot != 0) {
    if (first_error_.empty()) {
      first_error_ = "session " + std::to_string(s) + " received id " +
                     std::to_string(m.id) + " twice";
    }
    if (slot == 1) ++failed_;
    slot = 2;
    return false;
  }
  ledger_payload(expect_, mix64(seed_ + s), m.id, bytes_);
  if (m.payload != expect_) {
    flag("session " + std::to_string(s) + " id " + std::to_string(m.id) +
         " arrived with a corrupted payload");
    slot = 2;
    return false;
  }
  slot = 1;
  return true;
}

void FabricLedger::finish() {
  for (std::size_t s = 0; s < seen_.size(); ++s) {
    for (std::size_t id = 1; id < seen_[s].size(); ++id) {
      if (seen_[s][id] == 0) {
        flag("session " + std::to_string(s) + " id " + std::to_string(id) +
             " never arrived after the drain");
      }
    }
  }
}

bool OnceSet::insert(std::uint64_t id) {
  const auto i = static_cast<std::size_t>(id);
  if (seen_.size() <= i) seen_.resize(i + 1, 0);
  if (seen_[i] != 0) {
    ++duplicates_;
    return false;
  }
  seen_[i] = 1;
  ++distinct_;
  return true;
}

std::string check_wire(std::uint64_t offered, std::uint64_t tm_completed,
                       std::uint64_t rm_distinct, std::uint64_t rm_duplicates) {
  if (rm_duplicates != 0) {
    return std::to_string(rm_duplicates) + " duplicate deliveries on the RM bus";
  }
  if (tm_completed != offered || rm_distinct != offered) {
    return "offered " + std::to_string(offered) + ", TM completed " +
           std::to_string(tm_completed) + ", RM delivered " +
           std::to_string(rm_distinct) + " distinct";
  }
  return {};
}

std::string check_fuzz(std::uint64_t violating_scripts,
                       const std::string& fp_two_shards,
                       const std::string& fp_one_shard) {
  if (violating_scripts != 0) {
    return std::to_string(violating_scripts) + " violating scripts";
  }
  if (fp_two_shards != fp_one_shard) {
    return "fuzz report fingerprint " + fp_two_shards + " at two shards, " +
           fp_one_shard + " at one";
  }
  return {};
}

std::string check_fleet_totals(std::uint64_t offered, std::uint64_t completed,
                               std::uint64_t aborted, std::uint64_t stalled,
                               std::uint64_t violations) {
  if (offered != completed + aborted) {
    return "offered " + std::to_string(offered) + " != completed " +
           std::to_string(completed) + " + aborted " + std::to_string(aborted);
  }
  if (stalled != 0) return std::to_string(stalled) + " messages stalled";
  if (violations != 0) return std::to_string(violations) + " safety violations";
  return {};
}

std::string check_fleet_fingerprints(const std::string& slab_two,
                                     const std::string& slab_one,
                                     const std::string& serial) {
  if (slab_two != slab_one || slab_two != serial) {
    return "fleet fingerprints differ: slab/2 shards " + slab_two +
           ", slab/1 shard " + slab_one + ", serial run_workload " + serial;
  }
  return {};
}

}  // namespace pb
