// Measurement decorators the benchmark wraps around the program's module
// interfaces in traced runs. They forward every call unchanged — a
// decorated system takes exactly the steps, draws and decisions of an
// undecorated one — and add, per call, into LayerTimes: call counts,
// packets and bytes the module emitted, adversary delivery decisions, a
// capped capture of received packets for the codec replay, and, while
// `sampling` is set by the benchmark for the current step, the wall time
// of the call. Event sinks for the program's buses follow.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "link/adversary.h"
#include "link/module.h"
#include "obs/coverage.h"
#include "obs/event.h"
#include "util/codec.h"
#include "util/owned.h"

namespace pb {

/// Per-layer accumulators of one traced system (single-threaded).
struct LayerTimes {
  bool sampling = false;
  std::uint64_t tm_calls = 0;
  std::uint64_t rm_calls = 0;
  std::uint64_t adv_calls = 0;
  std::uint64_t tm_sampled = 0;
  std::uint64_t rm_sampled = 0;
  std::uint64_t adv_sampled = 0;
  double tm_ns = 0.0;  // raw wall time of the sampled calls
  double rm_ns = 0.0;
  double adv_ns = 0.0;
  std::uint64_t pkts_sent = 0;
  std::uint64_t pkt_bytes_sent = 0;
  std::uint64_t adv_deliveries = 0;
  std::size_t capture_cap = 8192;
  std::vector<s2d::Bytes> data_pkts;  // T->R packets the RM received
  std::vector<s2d::Bytes> ack_pkts;   // R->T packets the TM received
};

/// Wall time of factory calls (session, hop-link and system factories);
/// safe to update from several threads.
struct CallTimes {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add_since(Clock::time_point t0) noexcept {
    ns.fetch_add(static_cast<std::uint64_t>(ns_between(t0, Clock::now())),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  /// Mean microseconds per call, timer cost removed.
  [[nodiscard]] double us_per_call() const {
    const auto n = static_cast<double>(calls.load());
    return ratio(static_cast<double>(ns.load()) - n * timer_cost_ns(), n) * 1e-3;
  }
};

template <typename Out>
inline void note_sent(LayerTimes* lt, const Out& out) {
  lt->pkts_sent += out.pkt_count();
  for (std::size_t i = 0; i < out.pkt_count(); ++i) {
    lt->pkt_bytes_sent += out.pkt(i).size();
  }
}

inline void capture(LayerTimes* lt, std::vector<s2d::Bytes>& into,
                    std::span<const std::byte> pkt) {
  if (lt->sampling && into.size() < lt->capture_cap) {
    into.emplace_back(pkt.begin(), pkt.end());
  }
}

/// `times` must not be null (as for ProbeRm and ProbeAdversary).
class ProbeTm final : public s2d::ITransmitter {
 public:
  ProbeTm(s2d::OwnedPtr<s2d::ITransmitter> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  void bind_bus(s2d::EventBus* bus) override { inner_->bind_bus(bus); }
  void on_send_msg(const s2d::Message& m, s2d::TxOutbox& out) override {
    call([&] { inner_->on_send_msg(m, out); }, out);
  }
  void on_receive_pkt(std::span<const std::byte> pkt,
                      s2d::TxOutbox& out) override {
    capture(times_, times_->ack_pkts, pkt);
    call([&] { inner_->on_receive_pkt(pkt, out); }, out);
  }
  void on_timer(s2d::TxOutbox& out) override {
    call([&] { inner_->on_timer(out); }, out);
  }
  void on_crash() override { inner_->on_crash(); }
  [[nodiscard]] bool busy() const override { return inner_->busy(); }
  [[nodiscard]] std::size_t state_bits() const override {
    return inner_->state_bits();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  template <typename F>
  void call(F&& f, s2d::TxOutbox& out) {
    ++times_->tm_calls;
    if (times_->sampling) {
      const auto t0 = Clock::now();
      f();
      times_->tm_ns += ns_between(t0, Clock::now());
      ++times_->tm_sampled;
    } else {
      f();
    }
    note_sent(times_, out);
  }

  s2d::OwnedPtr<s2d::ITransmitter> inner_;
  LayerTimes* times_;
};

class ProbeRm final : public s2d::IReceiver {
 public:
  ProbeRm(s2d::OwnedPtr<s2d::IReceiver> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  void bind_bus(s2d::EventBus* bus) override { inner_->bind_bus(bus); }
  void on_receive_pkt(std::span<const std::byte> pkt,
                      s2d::RxOutbox& out) override {
    capture(times_, times_->data_pkts, pkt);
    call([&] { inner_->on_receive_pkt(pkt, out); }, out);
  }
  void on_retry(s2d::RxOutbox& out) override {
    call([&] { inner_->on_retry(out); }, out);
  }
  void on_crash() override { inner_->on_crash(); }
  [[nodiscard]] std::size_t state_bits() const override {
    return inner_->state_bits();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  template <typename F>
  void call(F&& f, s2d::RxOutbox& out) {
    ++times_->rm_calls;
    if (times_->sampling) {
      const auto t0 = Clock::now();
      f();
      times_->rm_ns += ns_between(t0, Clock::now());
      ++times_->rm_sampled;
    } else {
      f();
    }
    note_sent(times_, out);
  }

  s2d::OwnedPtr<s2d::IReceiver> inner_;
  LayerTimes* times_;
};

class ProbeAdversary final : public s2d::Adversary {
 public:
  ProbeAdversary(s2d::OwnedPtr<s2d::Adversary> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  s2d::Decision next(const s2d::AdversaryView& view) override {
    ++times_->adv_calls;
    s2d::Decision d;
    if (times_->sampling) {
      const auto t0 = Clock::now();
      d = inner_->next(view);
      times_->adv_ns += ns_between(t0, Clock::now());
      ++times_->adv_sampled;
    } else {
      d = inner_->next(view);
    }
    if (d.kind == s2d::Decision::Kind::kDeliverTR ||
        d.kind == s2d::Decision::Kind::kDeliverRT) {
      ++times_->adv_deliveries;
    }
    return d;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  s2d::OwnedPtr<s2d::Adversary> inner_;
  LayerTimes* times_;
};

/// Times each message of one link from its send_msg event to the OK that
/// confirms it (a link has at most one message in flight).
class MsgLatencySink final : public s2d::EventSink {
 public:
  void on_event(const s2d::Event& ev) override {
    if (ev.kind == s2d::EventKind::kSendMsg) {
      offered_at_ = Clock::now();
    } else if (ev.kind == s2d::EventKind::kOk) {
      latency_ms.push_back(seconds_between(offered_at_, Clock::now()) * 1e3);
    }
  }
  std::vector<double> latency_ms;

 private:
  Clock::time_point offered_at_{};
};

/// Counts every event on a bus, keeps the first `cap` of them for the
/// coverage-sink replay, and optionally folds them into a coverage map.
class RecordingSink final : public s2d::EventSink {
 public:
  explicit RecordingSink(s2d::CoverageMap* coverage = nullptr,
                         std::size_t cap = 200000)
      : cap_(cap) {
    if (coverage != nullptr) {
      coverage_ = std::make_unique<s2d::CoverageSink>(coverage);
    }
  }
  void on_event(const s2d::Event& ev) override {
    ++events;
    if (kept.size() < cap_) kept.push_back(ev);
    if (coverage_) coverage_->on_event(ev);
  }
  std::uint64_t events = 0;
  std::vector<s2d::Event> kept;

 private:
  std::size_t cap_;
  std::unique_ptr<s2d::CoverageSink> coverage_;
};

/// Replays recorded events through a fresh CoverageSink; ns per event.
[[nodiscard]] double coverage_sink_ns_per_event(
    const std::vector<s2d::Event>& events);

/// Replays captured packets through the GHM codec: decode_into each, then
/// encode_into the decoded packet. Returns {encode ns, decode ns} per
/// packet, averaged over both packet kinds.
struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t mismatches = 0;  // re-encoding differed from the capture
};
[[nodiscard]] CodecCost replay_codec(const LayerTimes& lt);

/// Fills the per-layer metrics every workload with decorated modules
/// reports: core call times, packets, codec replay and adversary costs.
/// `oks` is the number of messages the decorated modules confirmed.
void report_module_layers(const LayerTimes& lt, double oks, Result& r);

}  // namespace pb
