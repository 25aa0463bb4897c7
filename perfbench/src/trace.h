// The traced run: spans around public calls, timed in the benchmark's
// own code, plus allocation counts and window-occupancy samples.
//
//   (a) serve-loop replica: a copy of EngineHost::Serve's loop calling
//       WireFront::PollOnce -> Engine::IngestDatagram -> Engine::Pump on
//       a real Engine over loopback UDP;
//   (b) stage replica: an in-process copy of StreamingDigester::Push
//       behind a Collector, calling each stage's public function in turn.
//       Its events must equal (a)'s.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

enum Layer : std::uint16_t {
  kPoll,      // WireFront::PollOnce, minus the ingest spans it contains
  kIngest,    // Engine::IngestDatagram
  kPump,      // Engine::Pump
  kFinish,    // Engine::Finish
  kMessage,   // (b): one record through the stage replica (glue = self)
  kDrain,     // Collector::Drain
  kResolve,   // RouterResolver::Resolve
  kLocate,    // AugmentWithRouting
  kMatch,     // ConcurrentTemplateMatcher::MatchOrFallback + cache
  kTemporal,  // TemporalStage::Feed
  kRule,      // RuleStage::Feed
  kCross,     // CrossRouterStage::Feed + its ApplyEdges
  kTracker,   // GroupTracker::Observe/Add/ApplyEdges/NoteRules/Touch/Flush
  kLayerCount
};
const char* LayerName(Layer layer);

// Span recorder.  Self time (a span's duration minus its children's) and
// self allocations are accumulated per layer as spans close; the first
// `keep` spans are also kept in memory and written out at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t keep) { kept_.reserve(keep); keep_ = keep; }

  void Open(Layer layer, int tid);
  void Close();

  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> self_allocs{};

  // Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  bool Write(const std::string& path) const;

 private:
  struct Frame {
    std::uint64_t start = 0, child_ns = 0, allocs0 = 0, child_allocs = 0;
    Layer layer = kMessage;
    std::int64_t kept = -1;
  };
  struct KeptSpan {
    std::uint64_t start = 0, end = 0;
    std::int64_t parent = -1;
    Layer layer = kMessage;
    int tid = 0;
  };
  Frame stack_[8];
  int depth_ = 0;
  std::vector<KeptSpan> kept_;
  std::size_t keep_ = 0;
};

struct ServeLoopTrace {
  double seconds = 0;
  std::uint64_t messages = 0, poll_calls = 0, kernel_drops = 0;
  std::vector<double> pump_ms;
  double finish_s = 0;
  EventHash events;
  bool complete = false;
};
// (a).  Closed loop with the same sender and credit as ServePass.
ServeLoopTrace TracedServeLoop(Served* served, const Inputs& in,
                               std::size_t window, Tracer* tracer);

struct StageTrace {
  std::uint64_t messages = 0, drain_calls = 0;
  std::uint64_t temporal_edges = 0, rule_edges = 0, cross_edges = 0;
  double rule_window_mean = 0, cross_window_mean = 0;
  std::size_t open_groups_max = 0, open_messages_max = 0;
  double cache_hit_ratio = 0;
  std::uint64_t catchall_inserts = 0, invalidations = 0;
  EventHash events;
};
// (b).  Same datagrams, same engine options, no sockets.
StageTrace TracedStages(const Inputs& in, const std::string& kb_text,
                        const sld::core::LocationDict& dict, Tracer* tracer);

// Open-loop diagnostic: datagrams sent on a fixed schedule through the
// serve-loop replica; lag is measured from each datagram's due time to the
// poll round that ingested it.  Reported, never gated.
struct OpenLoopResult {
  double rate = 0;
  std::size_t offered = 0, received = 0, kernel_drops = 0;
  double lag_p50_ms = 0, lag_p90_ms = 0, lag_p99_ms = 0;
  double pump_max_ms = 0, sender_late_p99_ms = 0, sender_late_max_ms = 0;
};
OpenLoopResult OpenLoop(const Inputs& in, std::size_t count, double rate,
                        const std::string& kb_text, std::string* error);

}  // namespace perfbench
