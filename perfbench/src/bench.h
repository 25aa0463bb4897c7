// Shared declarations of the SyslogDigest benchmark (perfbench).
//
// The benchmark drives the program only through its public headers:
// inputs come from the simulator, the live path runs through
// engine::EngineHost::Serve over loopback UDP, and the offline path runs
// syslog::ParseArchive -> core::OfflineLearner::Learn ->
// engine::Engine::Digest.  Every timer, counter and span lives in these
// files, around calls into the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/digest.h"
#include "core/knowledge.h"
#include "core/learn.h"
#include "core/location/location.h"
#include "engine/host.h"
#include "syslog/record.h"

namespace perfbench {

using sld::TimeMs;
using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
inline double NsToS(std::uint64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-9;
}

// ---- util.cc -------------------------------------------------------------

// Heap allocations made by the calling thread (counting operator new).
std::uint64_t ThreadAllocs() noexcept;

double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

// One-sided 95% Clopper-Pearson upper bound on a loss probability after
// `lost` losses in `n` trials (about 3/n when nothing was lost).
double LossUpperBound95(std::uint64_t lost, std::uint64_t n);

// Peak resident set: ResetPeakRss() restarts the high-water mark at the
// current RSS (/proc/self/clear_refs), PeakRssMiB() reads it (VmHWM).
bool ResetPeakRss();
double PeakRssMiB();

// Fingerprint of one event: its digest line, score bits and members.
std::uint64_t EventFingerprint(const sld::core::DigestEvent& ev) noexcept;
// Order-insensitive fingerprint of a set of events (shard-count checks).
std::uint64_t SortedEventsFingerprint(
    const std::vector<sld::core::DigestEvent>& events);

// Ordered fingerprint of an event stream as it is emitted.
struct EventHash {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t count = 0;
  void Add(const sld::core::DigestEvent& ev) noexcept;
  bool operator==(const EventHash&) const = default;
};

// ---- data.cc -------------------------------------------------------------

// Input sizes.  `full` is what the benchmark measures; `tiny` is the
// self-test size (seconds, not minutes).
struct Size {
  int routers = 400;
  int history_days = 14;
  // Live workloads serve a x10-rate period: at least live_min_records
  // records (enough for 135 s of storm clock, so the 120 s rule window
  // fills and slides), cut at the next whole simulated hour.  Every seed
  // then serves 270k-285k records, all on one side of 2^18: the
  // engine's per-record vectors double there, and a stream length that
  // straddles it moved peak RSS by ~15% between seeds.
  std::size_t live_min_records = 270000;
  // live_storm takes every storm_stride-th record of a period that many
  // times longer: the same message mix, drawn from six times as many
  // network events, so one seed's largest events sway the window costs
  // less (seed-to-seed spread of live_msgs_per_s; at a stride of 3 one
  // seed still ran ~10% above and another ~12% below the median in three
  // ten-seed sets).
  std::size_t storm_stride = 6;
  // live_storm digests only this many of its records: Engine::Digest at
  // storm density runs ~45k msgs/s, so the whole stream would dominate
  // the run.  They are drawn evenly from the whole stream (see data.cc).
  std::size_t storm_digest_records = 40000;
  // Open-loop diagnostic prefix (traced run only).
  std::size_t openloop_records = 60000;
  static Size Full() { return Size{}; }
  static Size Tiny();
};

enum class Kind { kLiveNatural, kLiveStorm };
bool KindFromName(std::string_view name, Kind* kind);
const char* KindName(Kind kind);

// Everything a run measures on, derived only from (workload, seed, size).
struct Inputs {
  std::vector<std::string> configs;  // per-router config text
  std::string history_archive;       // ordinary-rate history, archive text
  std::size_t history_records = 0;
  // The served stream, rendered as RFC 3164 datagrams into one slab.
  std::string payload;
  std::vector<std::uint32_t> offsets;  // datagram i = [offsets[i], offsets[i+1])
  std::size_t datagram_count() const { return offsets.size() - 1; }
  std::string_view datagram(std::size_t i) const {
    return std::string_view(payload).substr(offsets[i],
                                            offsets[i + 1] - offsets[i]);
  }
  // Records digested by Engine::Digest.
  std::vector<sld::syslog::SyslogRecord> digest_records;
};
Inputs MakeInputs(Kind kind, std::uint64_t seed, const Size& size);

// ---- setup + live path (live.cc) ------------------------------------------

// The serve defaults the live workloads pin: shards 1, hold 5 s,
// idle-close 1800 s, dedup off.
sld::engine::EngineOptions ServeEngineOptions();

// What `sldigest serve` does at start, for one tenant: config parse,
// LocationDict::Build, KnowledgeBase::Deserialize, engine construction
// and EngineHost::BindAll (one listener, poll backend, a 1-thread pool).
struct Served {
  std::unique_ptr<sld::core::LocationDict> dict;
  std::unique_ptr<sld::core::KnowledgeBase> kb;
  std::unique_ptr<sld::engine::EngineHost> host;  // destroyed first
  double dict_s = 0, kb_s = 0, bind_s = 0, total_s = 0;
  sld::engine::Engine* engine() { return host->engine(0); }
};
std::unique_ptr<Served> SetUp(const std::vector<std::string>& configs,
                              const std::string& kb_text,
                              std::string* error);

// Kernel receive buffer granted for the wire front's request, read back
// from a probe socket configured the same way.
int GrantedRcvbuf();
// Closed-loop credit: datagrams the sender may have in flight, sized so
// they fit in the granted receive buffer.
std::size_t CreditWindow(int rcvbuf_bytes);

struct SenderStats {
  std::uint64_t sent = 0;
  double busy_s = 0;         // inside sendmmsg
  double credit_wait_s = 0;  // blocked on closed-loop credit
  std::vector<double> late_s;  // open loop: per-batch lateness samples
};

struct PassResult {
  double seconds = 0;  // first send until FinishAll returns
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0, kernel_drops = 0, malformed = 0, late = 0,
                duplicates = 0;
  EventHash events;
  SenderStats sender;
  bool ledger_ok = false;
  std::uint64_t lost() const { return sent - accepted; }
};

// One closed-loop pass of the first `count` datagrams (all when 0) through
// the real EngineHost::Serve.
PassResult ServePass(Served* served, const Inputs& in, std::size_t window,
                     std::size_t count = 0);

// The in-process reference: an Engine with the same options fed the same
// datagrams (no sockets).  Returns the ordered event fingerprint.
EventHash ReferenceEvents(const Inputs& in, const std::string& kb_text,
                          const sld::core::LocationDict& dict);

// ---- offline path (offline.cc) --------------------------------------------

struct LearnRep {
  double parse_s = 0;
  double learn_s = 0;  // Learn() wall time
  double total_s = 0;  // ParseArchive + Learn
  std::size_t records = 0, malformed = 0;
  sld::core::LearnTimings timings;
  std::string kb_text;
};
LearnRep LearnFromArchive(const std::string& archive,
                          const sld::core::LocationDict& dict, int threads);

struct DigestRep {
  double seconds = 0;
  std::uint64_t fingerprint = 0;
  std::size_t events = 0;
};
DigestRep DigestOnce(const std::vector<sld::syslog::SyslogRecord>& records,
                     const std::string& kb_text,
                     const sld::core::LocationDict& dict, std::size_t shards);

sld::core::LocationDict BuildDict(const std::vector<std::string>& configs);

}  // namespace perfbench
