// Workload inputs, generated from the simulator and the --seed alone.
//
// Both workloads share one Dataset A network (400 routers) and one
// ordinary-rate 14-day history, which every run learns from.  They differ
// in what is served and digested:
//   live_natural - a x10-rate live period with the simulator's own
//                  (bursty, sparse) timestamps;
//   live_storm   - the same kind of traffic (every sixth record of a
//                  six times longer period) restamped at 2000 msgs per
//                  virtual second, so the 120 s rule window fills.
#include <algorithm>
#include <string>

#include "bench.h"
#include "sim/generator.h"
#include "syslog/wire.h"

namespace perfbench {

namespace sim = sld::sim;
namespace syslog = sld::syslog;

Size Size::Tiny() {
  Size s;
  s.routers = 40;
  s.history_days = 3;
  s.live_min_records = 8000;
  s.storm_digest_records = 2000;
  s.openloop_records = 4000;
  return s;
}

bool KindFromName(std::string_view name, Kind* kind) {
  if (name == "live_natural") {
    *kind = Kind::kLiveNatural;
  } else if (name == "live_storm") {
    *kind = Kind::kLiveStorm;
  } else {
    return false;
  }
  return true;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLiveNatural:
      return "live_natural";
    case Kind::kLiveStorm:
      return "live_storm";
  }
  return "?";
}

namespace {

// slgen's storm density (ROADMAP: loss starts below 30k msgs/s here).
constexpr TimeMs kStormMsgsPerVsec = 2000;

void ScaleRates(sim::ScenarioRates& r, double s) {
  for (sim::Rate* rate :
       {&r.link_flap, &r.controller_flap, &r.bundle_flap, &r.bgp_vpn_flap,
        &r.ibgp_flap, &r.cpu_spike, &r.bad_auth_scan, &r.login_scan,
        &r.config_change, &r.env_alarm, &r.card_oir,
        &r.maintenance_window, &r.rp_switchover, &r.sap_churn,
        &r.service_churn, &r.pim_dual_failure, &r.duplex_mismatch}) {
    rate->per_day *= s;
  }
  r.random_noise_per_day *= s;
}

std::string RenderArchive(const std::vector<syslog::SyslogRecord>& records) {
  std::string out;
  for (const auto& rec : records) {
    syslog::AppendRecord(rec, out);
    out += '\n';
  }
  return out;
}

// The x10-rate live stream: every `stride`-th record of consecutive
// generated days, at least live_min_records of them, cut at the next whole
// simulated hour.  Days are generated one at a time to bound memory.
std::vector<syslog::SyslogRecord> LiveStream(const sim::DatasetSpec& spec,
                                             const Size& size,
                                             std::uint64_t seed,
                                             std::size_t stride) {
  std::vector<syslog::SyslogRecord> out;
  for (int d = 0; d < 64 && out.size() <= size.live_min_records; ++d) {
    sim::Dataset day =
        sim::GenerateDataset(spec, size.history_days + d, 1, seed + d);
    for (std::size_t i = 0; i < day.messages.size(); i += stride) {
      out.push_back(std::move(day.messages[i]));
    }
  }
  // A day's events may run past its midnight into the next day.
  std::stable_sort(out.begin(), out.end(),
                   [](const syslog::SyslogRecord& x,
                      const syslog::SyslogRecord& y) { return x.time < y.time; });
  if (out.size() > size.live_min_records) {
    const TimeMs t = out[size.live_min_records].time;
    const TimeMs cut = (t / sld::kMsPerHour + 1) * sld::kMsPerHour;
    std::size_t end = size.live_min_records;
    while (end < out.size() && out[end].time < cut) ++end;
    out.resize(end);
  }
  return out;
}

}  // namespace

Inputs MakeInputs(Kind kind, std::uint64_t seed, const Size& size) {
  Inputs in;
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = size.routers;
  // Disjoint message streams per seed; the network itself is fixed.
  const std::uint64_t history_seed = seed * 2654435761ULL + 1;
  const std::uint64_t live_seed = seed * 2654435761ULL + 2;

  sim::Dataset history =
      sim::GenerateDataset(spec, 0, size.history_days, history_seed);
  in.configs = std::move(history.configs);
  in.history_records = history.messages.size();
  in.history_archive = RenderArchive(history.messages);
  history.messages = {};

  sim::DatasetSpec live_spec = spec;
  ScaleRates(live_spec.rates, 10.0);
  std::vector<syslog::SyslogRecord> served =
      LiveStream(live_spec, size, live_seed,
                 kind == Kind::kLiveStorm ? size.storm_stride : 1);
  if (kind == Kind::kLiveStorm && !served.empty()) {
    // slgen's virtual clock: epoch + i * 1000 / density ms.
    const TimeMs epoch = served.front().time - served.front().time % 1000;
    for (std::size_t i = 0; i < served.size(); ++i) {
      served[i].time =
          epoch + static_cast<TimeMs>(i) * 1000 / kStormMsgsPerVsec;
    }
    // The digest phase takes every k-th record, restamped onto the same
    // clock: storm density with the whole stream's message mix.  A prefix
    // held only the period's first hours, and its cost moved with what
    // happened in them (in interleaved runs one seed's prefix digested
    // ~25% faster than the others').
    const std::size_t k =
        std::max<std::size_t>(1, served.size() / size.storm_digest_records);
    for (std::size_t i = 0;
         i < served.size() &&
         in.digest_records.size() < size.storm_digest_records;
         i += k) {
      in.digest_records.push_back(served[i]);
      in.digest_records.back().time =
          epoch + static_cast<TimeMs>(in.digest_records.size() - 1) * 1000 /
                      kStormMsgsPerVsec;
    }
  } else {
    in.digest_records = served;
  }

  in.offsets.reserve(served.size() + 1);
  in.offsets.push_back(0);
  for (const auto& rec : served) {
    syslog::AppendRfc3164(rec, &in.payload);
    in.offsets.push_back(static_cast<std::uint32_t>(in.payload.size()));
  }
  return in;
}

}  // namespace perfbench
