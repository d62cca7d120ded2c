#include "probes.h"

#include <algorithm>

#include "core/packets.h"

namespace pb {

double coverage_sink_ns_per_event(const std::vector<s2d::Event>& events) {
  if (events.empty()) return 0.0;
  std::vector<double> per_event;
  for (int rep = 0; rep < 5; ++rep) {
    s2d::CoverageMap map;
    s2d::CoverageSink sink(&map);
    const auto t0 = Clock::now();
    for (const s2d::Event& ev : events) sink.on_event(ev);
    per_event.push_back(ns_between(t0, Clock::now()) /
                        static_cast<double>(events.size()));
  }
  return median(per_event);
}

namespace {

/// Decodes every packet into one reused packet object, then re-encodes
/// it into one reused Writer; the median of five passes of each.
template <typename Packet>
void replay_kind(const std::vector<s2d::Bytes>& pkts, double& enc_ns,
                 double& dec_ns, CodecCost& cost) {
  if (pkts.empty()) return;
  std::vector<Packet> decoded(pkts.size());
  std::vector<double> dec;
  std::vector<double> enc;
  s2d::Writer w;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      (void)Packet::decode_into(decoded[i], pkts[i]);
    }
    const auto t1 = Clock::now();
    for (const Packet& p : decoded) {
      w.clear();
      p.encode_into(w);
    }
    const auto t2 = Clock::now();
    dec.push_back(ns_between(t0, t1) / static_cast<double>(pkts.size()));
    enc.push_back(ns_between(t1, t2) / static_cast<double>(pkts.size()));
  }
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    w.clear();
    decoded[i].encode_into(w);
    if (!std::equal(w.bytes().begin(), w.bytes().end(), pkts[i].begin(),
                    pkts[i].end())) {
      ++cost.mismatches;
    }
  }
  enc_ns += median(enc) * static_cast<double>(pkts.size());
  dec_ns += median(dec) * static_cast<double>(pkts.size());
  cost.replayed += pkts.size();
}

}  // namespace

CodecCost replay_codec(const LayerTimes& lt) {
  CodecCost cost;
  double enc = 0.0;
  double dec = 0.0;
  replay_kind<s2d::DataPacket>(lt.data_pkts, enc, dec, cost);
  replay_kind<s2d::AckPacket>(lt.ack_pkts, enc, dec, cost);
  cost.encode_ns = ratio(enc, static_cast<double>(cost.replayed));
  cost.decode_ns = ratio(dec, static_cast<double>(cost.replayed));
  return cost;
}

void report_module_layers(const LayerTimes& lt, double oks, Result& r) {
  const double tc = timer_cost_ns();
  auto per_call = [tc](double ns, std::uint64_t n) {
    return n == 0 ? 0.0 : std::max(0.0, ns / static_cast<double>(n) - tc);
  };
  r.metrics["core.tm_ns_per_call"] = per_call(lt.tm_ns, lt.tm_sampled);
  r.metrics["core.rm_ns_per_call"] = per_call(lt.rm_ns, lt.rm_sampled);
  r.metrics["core.pkts_per_ok"] = ratio(static_cast<double>(lt.pkts_sent), oks);
  r.metrics["util.pkt_bytes_mean"] =
      ratio(static_cast<double>(lt.pkt_bytes_sent),
            static_cast<double>(lt.pkts_sent));
  r.metrics["adversary.ns_per_decision"] = per_call(lt.adv_ns, lt.adv_sampled);
  r.metrics["adversary.delivery_share"] =
      ratio(static_cast<double>(lt.adv_deliveries),
            static_cast<double>(lt.adv_calls));
  const CodecCost codec = replay_codec(lt);
  r.metrics["util.codec_encode_ns"] = codec.encode_ns;
  r.metrics["util.codec_decode_ns"] = codec.decode_ns;
  if (codec.mismatches != 0) {
    r.note("codec replay: " + std::to_string(codec.mismatches) + " of " +
           std::to_string(codec.replayed) +
           " captured packets did not re-encode byte-identically");
  }
}

}  // namespace pb
