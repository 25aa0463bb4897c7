#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/augment.h"
#include "pipeline/matcher.h"
#include "pipeline/stages.h"
#include "pipeline/tracker.h"
#include "sender.h"
#include "syslog/collector.h"

namespace perfbench {

namespace core = sld::core;
namespace pipeline = sld::pipeline;
using sld::wirefront::WireFront;

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "wirefront.poll",         "syslog.collector.ingest",
      "engine.pump",            "engine.finish",
      "message",                "syslog.collector.drain",
      "core.augment.resolve",   "core.augment.locate",
      "pipeline.match",         "pipeline.temporal",
      "pipeline.rule",          "pipeline.cross_router",
      "pipeline.tracker"};
  return kNames[layer];
}

void Tracer::Open(Layer layer, int tid) {
  Frame& f = stack_[depth_++];
  f = Frame{};
  f.layer = layer;
  if (kept_.size() < keep_) {
    f.kept = static_cast<std::int64_t>(kept_.size());
    KeptSpan span;
    span.layer = layer;
    span.tid = tid;
    span.parent = depth_ > 1 ? stack_[depth_ - 2].kept : -1;
    kept_.push_back(span);
  }
  f.allocs0 = ThreadAllocs();
  f.start = NowNs();
}

void Tracer::Close() {
  const std::uint64_t end = NowNs();
  const std::uint64_t allocs = ThreadAllocs();
  Frame& f = stack_[--depth_];
  const std::uint64_t dur = end - f.start;
  const std::uint64_t alloc_total = allocs - f.allocs0;
  self_ns[f.layer] += dur - std::min(dur, f.child_ns);
  self_allocs[f.layer] += alloc_total - std::min(alloc_total, f.child_allocs);
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
    stack_[depth_ - 1].child_allocs += alloc_total;
  }
  if (f.kept >= 0) {
    kept_[static_cast<std::size_t>(f.kept)].start = f.start;
    kept_[static_cast<std::size_t>(f.kept)].end = end;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t base = kept_.empty() ? 0 : kept_.front().start;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const KeptSpan& s = kept_[i];
    if (s.end == 0) continue;  // still open when the run ended
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", LayerName(s.layer), s.tid,
                  static_cast<double>(s.start - base) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i,
                  static_cast<long long>(s.parent));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- (a) serve-loop replica ------------------------------------------------

ServeLoopTrace TracedServeLoop(Served* served, const Inputs& in,
                               std::size_t window, Tracer* tracer) {
  ServeLoopTrace r;
  const std::size_t n = in.datagram_count();
  sld::engine::Engine* eng = served->engine();
  eng->SetEventSink([&r](const core::DigestEvent& ev) { r.events.Add(ev); });
  WireFront* front = served->host->front();
  const WireFront::Sink sink = [&](std::size_t, std::string_view datagram) {
    tracer->Open(kIngest, 1);
    eng->IngestDatagram(datagram);
    tracer->Close();
  };
  Sender sender(in, n, served->host->port_of(0), window, 0.0);
  sender.Start();
  std::size_t seen = 0;
  int quiet = 0;
  while (seen < n) {
    tracer->Open(kPoll, 1);
    const std::ptrdiff_t got = front->PollOnce(1000, n - seen, sink);
    tracer->Close();
    ++r.poll_calls;
    if (got == WireFront::kInterrupted) continue;
    if (got == WireFront::kError) break;
    sender.Credit(front->datagrams() + front->kernel_drops());
    if (got > 0) {
      seen += static_cast<std::size_t>(got);
      quiet = 0;
      const std::uint64_t p0 = NowNs();
      tracer->Open(kPump, 1);
      eng->Pump();
      tracer->Close();
      r.pump_ms.push_back(static_cast<double>(NowNs() - p0) / 1e6);
      continue;
    }
    if (++quiet >= 2) break;
  }
  const std::uint64_t f0 = NowNs();
  tracer->Open(kFinish, 1);
  eng->Finish();
  tracer->Close();
  const std::uint64_t end = NowNs();
  sender.Stop();
  r.finish_s = NsToS(end - f0);
  r.seconds = NsToS(end - sender.first_send_ns());
  r.messages = seen;
  r.kernel_drops = front->kernel_drops();
  r.complete = seen == n && sender.stats().sent == n;
  return r;
}

// ---- (b) stage replica -----------------------------------------------------

StageTrace TracedStages(const Inputs& in, const std::string& kb_text,
                        const core::LocationDict& dict, Tracer* tracer) {
  StageTrace r;
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(kb_text);
  const std::size_t templates_before = kb.templates.size();
  const sld::engine::EngineOptions o = ServeEngineOptions();
  sld::syslog::Collector collector(o.hold_ms, o.year, o.suppress_duplicates);
  core::RouterResolver resolver(&dict);
  const core::LocationExtractor extractor(&dict);
  pipeline::ConcurrentTemplateMatcher matcher(&kb.templates);
  pipeline::ShardMatchCache cache;
  std::vector<std::string_view> scratch;
  pipeline::TemporalStage temporal(kb.temporal_params, &kb.temporal_priors);
  pipeline::RuleStage rules(&kb.rules, kb.rule_params.window_ms, &dict);
  const TimeMs cross_window = o.digest.cross_router_window;
  pipeline::CrossRouterStage cross(&dict, cross_window);
  pipeline::GroupTracker tracker(
      &kb, &dict,
      o.idle_close_ms > 0 ? o.idle_close_ms
                          : kb.temporal_params.smax + kb.rule_params.window_ms,
      o.max_group_age_ms);
  std::vector<pipeline::MergeEdge> edges;
  std::vector<std::uint64_t> fired;

  // Window occupancy, sampled through ExportState every kSampleEvery
  // records (outside every span): the entries the next Feed will scan.
  constexpr std::uint64_t kSampleEvery = 4096;
  double rule_entries = 0, cross_entries = 0;
  std::uint64_t samples = 0;
  std::vector<pipeline::RuleStage::WindowSnapshot> rule_snap;
  std::vector<pipeline::CrossRouterStage::EntrySnapshot> cross_snap;

  auto emit = [&r](std::vector<core::DigestEvent> events) {
    for (const auto& ev : events) r.events.Add(ev);
  };
  auto push = [&](const sld::syslog::SyslogRecord& rec) {
    tracer->Open(kMessage, 2);
    tracer->Open(kTracker, 2);
    std::vector<core::DigestEvent> closed = tracker.Observe(rec.time);
    tracer->Close();
    emit(std::move(closed));

    tracer->Open(kResolve, 2);
    const auto [router_key, known] = resolver.Resolve(rec.router);
    tracer->Close();
    tracer->Open(kLocate, 2);
    core::Augmented msg =
        core::AugmentWithRouting(rec, tracker.processed_count(), router_key,
                                 known, extractor, dict);
    tracer->Close();
    tracer->Open(kMatch, 2);
    msg.tmpl = matcher.MatchOrFallback(rec.code, rec.detail, &cache, &scratch);
    tracer->Close();
    tracer->Open(kTracker, 2);
    tracker.Add(msg);
    tracer->Close();

    edges.clear();
    fired.clear();
    tracer->Open(kTemporal, 2);
    temporal.Feed(msg, &edges);
    tracer->Close();
    const std::size_t after_temporal = edges.size();
    r.temporal_edges += after_temporal;

    if (r.messages % kSampleEvery == 0) {
      rule_snap.clear();
      rules.ExportState(&rule_snap);
      for (const auto& w : rule_snap) {
        if (w.router_key != msg.router_key) continue;
        for (const auto& e : w.entries) {
          if (msg.time - e.time <= kb.rule_params.window_ms) ++rule_entries;
        }
      }
      cross_snap.clear();
      cross.ExportState(&cross_snap);
      for (const auto& e : cross_snap) {
        if (msg.time - e.time <= cross_window) ++cross_entries;
      }
      ++samples;
    }

    tracer->Open(kRule, 2);
    rules.Feed(msg, &edges, &fired);
    tracer->Close();
    r.rule_edges += edges.size() - after_temporal;
    tracer->Open(kTracker, 2);
    tracker.ApplyEdges(edges);
    tracker.NoteRules(fired);
    tracer->Close();

    edges.clear();
    tracer->Open(kCross, 2);
    cross.Feed(
        msg,
        [&tracker](std::size_t a, std::size_t b) {
          return tracker.SameGroup(a, b);
        },
        &edges);
    tracker.ApplyEdges(edges);
    tracer->Close();
    r.cross_edges += edges.size();
    tracer->Open(kTracker, 2);
    tracker.Touch(msg.raw_index, msg.time);
    tracer->Close();
    tracer->Close();  // kMessage
    ++r.messages;
    r.open_groups_max = std::max(r.open_groups_max, tracker.open_group_count());
    r.open_messages_max =
        std::max(r.open_messages_max, tracker.open_message_count());
  };
  auto drain = [&] {
    tracer->Open(kDrain, 2);
    std::vector<sld::syslog::SyslogRecord> released = collector.Drain();
    tracer->Close();
    ++r.drain_calls;
    for (const auto& rec : released) push(rec);
  };

  const std::size_t n = in.datagram_count();
  for (std::size_t i = 0; i < n; ++i) {
    collector.IngestDatagram(in.datagram(i));
    if (i % 256 == 255) drain();
  }
  drain();
  for (const auto& rec : collector.Flush()) push(rec);
  tracer->Open(kTracker, 2);
  std::vector<core::DigestEvent> rest = tracker.Flush();
  tracer->Close();
  emit(std::move(rest));

  if (samples > 0) {
    r.rule_window_mean = rule_entries / static_cast<double>(samples);
    r.cross_window_mean = cross_entries / static_cast<double>(samples);
  }
  r.cache_hit_ratio = cache.hit_rate();
  r.invalidations = cache.invalidations();
  r.catchall_inserts = kb.templates.size() - templates_before;
  return r;
}

// ---- open-loop diagnostic ---------------------------------------------------

OpenLoopResult OpenLoop(const Inputs& in, std::size_t count, double rate,
                        const std::string& kb_text, std::string* error) {
  OpenLoopResult r;
  r.rate = rate;
  count = std::min(count, in.datagram_count());
  r.offered = count;
  std::unique_ptr<Served> served = SetUp(in.configs, kb_text, error);
  if (served == nullptr) return r;
  sld::engine::Engine* eng = served->engine();
  WireFront* front = served->host->front();
  const WireFront::Sink sink = [eng](std::size_t, std::string_view d) {
    eng->IngestDatagram(d);
  };
  // (cumulative datagrams ingested, time of that poll round)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  double pump_max_ms = 0;
  Sender sender(in, count, served->host->port_of(0), 0, rate);
  sender.Start();
  std::size_t seen = 0;
  int quiet = 0;
  while (seen < count) {
    const std::ptrdiff_t got = front->PollOnce(200, count - seen, sink);
    if (got == WireFront::kInterrupted) continue;
    if (got == WireFront::kError) break;
    if (got > 0) {
      seen += static_cast<std::size_t>(got);
      ticks.emplace_back(seen, NowNs());
      quiet = 0;
      const std::uint64_t p0 = NowNs();
      eng->Pump();
      pump_max_ms =
          std::max(pump_max_ms, static_cast<double>(NowNs() - p0) / 1e6);
      continue;
    }
    if (++quiet >= 5) break;  // one quiet second: the rest was lost
  }
  eng->Finish();
  sender.Stop();
  const std::uint64_t start = sender.first_send_ns();
  std::vector<double> lag_ms;
  lag_ms.reserve(seen);
  std::uint64_t j = 0;
  for (const auto& [cum, at] : ticks) {
    for (; j < cum; ++j) {
      // Datagrams leave in batches; a batch is due when its first one is.
      const double due =
          static_cast<double>(start) +
          static_cast<double>(j - j % Sender::kOpenLoopBatch) * 1e9 / rate;
      lag_ms.push_back((static_cast<double>(at) - due) / 1e6);
    }
  }
  r.received = seen;
  r.kernel_drops = front->kernel_drops();
  r.lag_p50_ms = Quantile(lag_ms, 0.50);
  r.lag_p90_ms = Quantile(lag_ms, 0.90);
  r.lag_p99_ms = Quantile(lag_ms, 0.99);
  r.pump_max_ms = pump_max_ms;
  std::vector<double> late = sender.stats().late_s;
  r.sender_late_p99_ms = Quantile(late, 0.99) * 1e3;
  r.sender_late_max_ms = Quantile(late, 1.0) * 1e3;
  return r;
}

}  // namespace perfbench
