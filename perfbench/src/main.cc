// perfbench: the SyslogDigest benchmark.
//
//   perfbench --workload live_natural|live_storm
//             --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--corrupt-reference]
//
// Every run performs the same phases on its workload's inputs:
//   learn  - ParseArchive + OfflineLearner::Learn (sweep on) of the 14-day
//            history at 4 threads                          -> learn_s
//   digest - Engine::Digest at shards 2                     -> digest_msgs_per_s
//   serve  - set-up (config parse, LocationDict::Build,
//            KnowledgeBase::Deserialize, engine, BindAll)   -> setup_s
//            then a closed-loop pass of every datagram
//            through EngineHost::Serve over loopback UDP    -> live_msgs_per_s
// The phases take turns in rounds until --seconds have passed
// (live_storm serves once: its one pass outlasts a round).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// replicas instead and prints the per-layer metrics.  The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; a run
// whose outputs disagree with the references prints correct=false with
// no metrics and exits 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  Kind kind = Kind::kLiveNatural;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!KindFromName(value, &a->kind)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     value.c_str());
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      a->tiny = value == "tiny";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "perfbench: --workload missing\n");
  return have_workload && a->seconds > 0;
}

// Collects metric values and correctness failures for the result line.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      ++failed;
    }
  }
  int Print() const {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", f.c_str());
    }
    const bool correct = failures.empty();
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    if (correct) {
      for (const auto& [name, vu] : metrics) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.17g", vu.first);
        line += first ? "" : ", ";
        line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                vu.second + "\"}";
        first = false;
      }
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }
};

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double Elapsed(std::uint64_t since_ns) { return NsToS(NowNs() - since_ns); }

// The warm-up serve pass sends this prefix of the stream.
constexpr std::size_t kWarmUpDatagrams = 40000;

// Host and generator record, printed on every run (not a metric).
void PrintHostRecord(const Args& a, int threads, int rcvbuf,
                     std::size_t window, std::size_t datagrams,
                     double busy_share, double wait_share,
                     double steal_share) {
  // Closed loop: an engine-limited pass leaves the sender waiting for
  // credit most of the time.  If it seldom waited, the sender set the pace.
  const bool sender_limited = wait_share < 0.10;
  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"threads\": %d, \"build_type\": \"%s\", \"wire_backend\": \"poll\", "
      "\"listeners\": 1, \"wire_rcvbuf_bytes\": %d, \"credit_window\": %zu, "
      "\"datagrams_per_pass\": %zu, \"sender.busy_share\": %.4f, "
      "\"sender.credit_wait_share\": %.4f, \"sender_limited\": %s, "
      "\"cpu_steal_share\": %.4f}}\n",
      KindName(a.kind), static_cast<unsigned long long>(a.seed), Nproc(),
      threads, PERFBENCH_BUILD_TYPE, rcvbuf, window, datagrams, busy_share,
      wait_share, sender_limited ? "true" : "false", steal_share);
  if (sender_limited) {
    std::fprintf(stderr,
                 "perfbench: WARNING: the sender waited for credit only "
                 "%.1f%% of the pass; the generator, not the engine, may "
                 "have limited live_msgs_per_s\n",
                 wait_share * 100);
  }
}

// Learn-phase correctness shared by both modes.
void CheckLearn(const LearnRep& rep, const Inputs& in, const std::string& kb,
                Report* report) {
  report->Check(rep.malformed == 0 && rep.records == in.history_records,
                "ParseArchive read " + std::to_string(rep.records) + " of " +
                    std::to_string(in.history_records) + " records (" +
                    std::to_string(rep.malformed) + " malformed)");
  report->Check(rep.kb_text == kb,
                "learned KnowledgeBase differs from the 1-thread learner's");
}

void CheckPass(const PassResult& p, const EventHash& ref, std::size_t n,
               Report* report) {
  report->Check(p.sent == n, "sender sent " + std::to_string(p.sent) +
                                 " of " + std::to_string(n) + " datagrams");
  report->Check(p.ledger_ok,
                "ledger: sent " + std::to_string(p.sent) + " != accepted " +
                    std::to_string(p.accepted) + " + kernel drops " +
                    std::to_string(p.kernel_drops) + " + malformed " +
                    std::to_string(p.malformed) + " + late " +
                    std::to_string(p.late) + " + duplicates " +
                    std::to_string(p.duplicates));
  report->Check(p.events == ref,
                "Serve emitted " + std::to_string(p.events.count) +
                    " events that do not match the in-process reference (" +
                    std::to_string(ref.count) + " events)");
}

// CPU time stolen by the hypervisor, as a share of all CPU time, between
// two /proc/stat readings (host record only: it explains noisy runs).
struct CpuTimes {
  std::uint64_t total = 0, steal = 0;
  static CpuTimes Read() {
    CpuTimes t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[10] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                    &v[8], &v[9]) >= 8) {
      for (int i = 0; i < 8; ++i) t.total += v[i];
      t.steal = v[7];
    }
    std::fclose(f);
    return t;
  }
  static double StealShare(const CpuTimes& a, const CpuTimes& b) {
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
  }
};

// The timed run.  References first (untimed), then a discarded warm-up,
// then rounds that each take one learn rep, one digest rep, one
// stand-alone set-up and one serve pass, so every metric's median samples
// the whole run rather than one stretch of it (the host's speed drifts
// over seconds).  Rounds stop once they have used --seconds and every
// metric has its minimum number of samples.  live_storm serves once: its
// one pass is ~135 virtual seconds of traffic and takes longer than a
// round of everything else.
int RunTimed(const Args& a, const Size& size) {
  Report report;
  const std::uint64_t run_start = NowNs();
  const CpuTimes cpu0 = CpuTimes::Read();
  const int threads = std::min(4, Nproc());
  const Inputs in = MakeInputs(a.kind, a.seed, size);
  const std::size_t n = in.datagram_count();
  const sld::core::LocationDict dict = BuildDict(in.configs);
  malloc_trim(0);  // hand generation garbage back before RSS is tracked
  // Peak RSS of each serve pass; freed memory is returned to the kernel
  // first, so each pass starts from the same baseline.
  std::vector<double> peak_rss;
  auto reset_rss = [] {
    malloc_trim(0);
    ResetPeakRss();
  };

  std::fprintf(stderr, "perfbench: inputs: %zu history records, %zu datagrams, "
               "%zu digest records (%.1f s)\n", in.history_records, n,
               in.digest_records.size(), Elapsed(run_start));

  // References: the 1-thread learner's KB, the shards-1 Digester's
  // events, and the in-process engine's live events.
  const LearnRep serial = LearnFromArchive(in.history_archive, dict, 1);
  const std::string& kb_text = serial.kb_text;
  const DigestRep digest_ref = DigestOnce(in.digest_records, kb_text, dict, 1);
  std::fprintf(stderr, "perfbench: learn and digest references (%.1f s)\n",
               Elapsed(run_start));
  EventHash live_ref = ReferenceEvents(in, kb_text, dict);
  if (a.corrupt_reference) live_ref.hash ^= 1;
  std::fprintf(stderr, "perfbench: live reference, %llu events (%.1f s)\n",
               static_cast<unsigned long long>(live_ref.count),
               Elapsed(run_start));
  const int rcvbuf = GrantedRcvbuf();
  const std::size_t window = CreditWindow(rcvbuf);

  auto set_up = [&]() -> std::unique_ptr<Served> {
    std::string error;
    std::unique_ptr<Served> served = SetUp(in.configs, kb_text, &error);
    if (served == nullptr) report.Check(false, "set-up failed: " + error);
    return served;
  };

  // Warm-up, not measured: a process's first 4-thread learn runs about
  // twice as long as the ones after it (cold pool threads and heap), and
  // its first serve pass ~15% slower.
  {
    LearnFromArchive(in.history_archive, dict, threads);
    DigestOnce(in.digest_records, kb_text, dict, 2);
    std::unique_ptr<Served> served = set_up();
    if (served == nullptr) return report.Print();
    ServePass(served.get(), in, window, kWarmUpDatagrams);
  }

  constexpr std::size_t kMinReps = 6;     // learn, digest and live samples
  constexpr std::size_t kMinSetups = 12;  // setup_s samples
  const std::size_t max_passes =
      a.kind == Kind::kLiveStorm ? 1 : static_cast<std::size_t>(-1);
  const std::size_t min_passes = std::min(kMinReps, max_passes);
  std::vector<double> learn_s, digest_rate, setup_s, live_rate, lost_frac,
      busy, wait;
  const std::uint64_t measure_start = NowNs();

  while (report.failures.empty()) {
    if (Elapsed(measure_start) >= a.seconds && learn_s.size() >= kMinReps &&
        live_rate.size() >= min_passes && setup_s.size() >= kMinSetups) {
      break;
    }

    const LearnRep lr = LearnFromArchive(in.history_archive, dict, threads);
    learn_s.push_back(lr.total_s);
    CheckLearn(lr, in, kb_text, &report);
    report.attempted += lr.records;

    const DigestRep dr = DigestOnce(in.digest_records, kb_text, dict, 2);
    digest_rate.push_back(static_cast<double>(in.digest_records.size()) /
                          dr.seconds);
    report.Check(dr.fingerprint == digest_ref.fingerprint,
                 "Digest at shards 2 differs from the shards-1 Digester (" +
                     std::to_string(dr.events) + " vs " +
                     std::to_string(digest_ref.events) + " events)");
    report.attempted += in.digest_records.size();
    std::fprintf(stderr, "perfbench: learn %.3f s, digest %.0f msgs/s\n",
                 lr.total_s, digest_rate.back());

    // Two set-up samples per round: a stand-alone one and the serve
    // pass's own (or a second stand-alone one when the pass is skipped).
    for (int k = 0; k < 2; ++k) {
      std::unique_ptr<Served> served = set_up();
      if (served == nullptr) break;
      setup_s.push_back(served->total_s);
      if (k == 0 || live_rate.size() >= max_passes) continue;
      reset_rss();
      const PassResult p = ServePass(served.get(), in, window);
      peak_rss.push_back(PeakRssMiB());
      CheckPass(p, live_ref, n, &report);
      report.attempted += p.sent;
      report.failed += p.lost();
      live_rate.push_back(static_cast<double>(p.sent) / p.seconds);
      lost_frac.push_back(LossUpperBound95(p.lost(), p.sent));
      busy.push_back(p.sender.busy_s / p.seconds);
      wait.push_back(p.sender.credit_wait_s / p.seconds);
      std::fprintf(stderr, "perfbench: serve pass %.0f msgs/s\n",
                   live_rate.back());
    }
  }

  PrintHostRecord(a, threads, rcvbuf, window, n, Median(busy), Median(wait),
                  CpuTimes::StealShare(cpu0, CpuTimes::Read()));
  report.Set("live_msgs_per_s", Median(live_rate), "msgs/s");
  report.Set("digest_msgs_per_s", Median(digest_rate), "msgs/s");
  report.Set("learn_s", Median(learn_s), "s");
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", Median(peak_rss), "MiB");
  report.Set("lost_frac", Median(lost_frac), "fraction");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu datagrams x %zu passes, "
               "%zu learn+digest reps, %zu set-ups, %.1f s measured, "
               "%.1f s in all\n",
               KindName(a.kind), static_cast<unsigned long long>(a.seed), n,
               live_rate.size(), learn_s.size(), setup_s.size(),
               Elapsed(measure_start), Elapsed(run_start));
  return report.Print();
}

int RunTraced(const Args& a, const Size& size) {
  Report report;
  const CpuTimes cpu0 = CpuTimes::Read();
  const int threads = std::min(4, Nproc());
  const Inputs in = MakeInputs(a.kind, a.seed, size);
  const std::size_t n = in.datagram_count();
  const sld::core::LocationDict dict = BuildDict(in.configs);

  // Learn: T threads with its phase timings, plus the 1-thread learner it
  // must reproduce (which also gives the speed-up).
  const LearnRep serial = LearnFromArchive(in.history_archive, dict, 1);
  const LearnRep lr = LearnFromArchive(in.history_archive, dict, threads);
  CheckLearn(lr, in, serial.kb_text, &report);
  const std::string& kb_text = serial.kb_text;
  report.attempted += lr.records;
  report.Set("syslog.ingest.parse_s", lr.parse_s, "s");
  report.Set("core.learn.total_s", lr.learn_s, "s");
  report.Set("core.learn.templates_s", lr.timings.templates_s, "s");
  report.Set("core.learn.augment_s", lr.timings.augment_s, "s");
  report.Set("core.learn.priors_s", lr.timings.priors_s, "s");
  report.Set("core.learn.params_s", lr.timings.params_s, "s");
  report.Set("core.learn.rules_s", lr.timings.rules_s, "s");
  report.Set("core.learn.speedup_vs_1thread", serial.learn_s / lr.learn_s,
             "x");

  // Digest.
  const DigestRep d1 = DigestOnce(in.digest_records, kb_text, dict, 1);
  const DigestRep d2 = DigestOnce(in.digest_records, kb_text, dict, 2);
  report.Check(d1.fingerprint == d2.fingerprint,
               "Digest at shards 2 differs from the shards-1 Digester");
  report.attempted += in.digest_records.size();
  report.Set("engine.digest.ns_per_msg",
             d2.seconds * 1e9 / static_cast<double>(in.digest_records.size()),
             "ns");

  // Set-up, three times.
  std::vector<double> dict_s, kb_s, bind_s;
  for (int i = 0; i < 3; ++i) {
    std::string error;
    const std::unique_ptr<Served> s = SetUp(in.configs, kb_text, &error);
    if (s == nullptr) {
      report.Check(false, "set-up failed: " + error);
      return report.Print();
    }
    dict_s.push_back(s->dict_s);
    kb_s.push_back(s->kb_s);
    bind_s.push_back(s->bind_s);
  }
  report.Set("setup.dict_s", Median(dict_s), "s");
  report.Set("setup.kb_s", Median(kb_s), "s");
  report.Set("setup.bind_s", Median(bind_s), "s");

  // Untraced pass through the real Serve: the base for overhead/coverage.
  const int rcvbuf = GrantedRcvbuf();
  const std::size_t window = CreditWindow(rcvbuf);
  std::string error;
  std::unique_ptr<Served> served = SetUp(in.configs, kb_text, &error);
  if (served == nullptr) {
    report.Check(false, "set-up failed: " + error);
    return report.Print();
  }
  const PassResult plain = ServePass(served.get(), in, window);
  served.reset();
  EventHash reference = plain.events;
  if (a.corrupt_reference) reference.hash ^= 1;
  CheckPass(plain, reference, n, &report);
  report.attempted += plain.sent;
  report.failed += plain.lost();

  // (a) serve-loop replica.
  Tracer tracer(200000);
  served = SetUp(in.configs, kb_text, &error);
  if (served == nullptr) {
    report.Check(false, "set-up failed: " + error);
    return report.Print();
  }
  const ServeLoopTrace ta = TracedServeLoop(served.get(), in, window, &tracer);
  served.reset();
  report.Check(ta.complete, "traced serve loop saw " +
                                std::to_string(ta.messages) + " of " +
                                std::to_string(n) + " datagrams");
  report.Check(ta.events == reference,
               "traced serve loop events differ from Serve's");
  report.attempted += ta.messages;

  // (b) stage replica.
  const StageTrace tb = TracedStages(in, kb_text, dict, &tracer);
  report.Check(tb.events == ta.events,
               "stage replica emitted " + std::to_string(tb.events.count) +
                   " events that do not match the engine's " +
                   std::to_string(ta.events.count));
  report.attempted += tb.messages;

  const double na = static_cast<double>(std::max<std::uint64_t>(ta.messages, 1));
  const double nb = static_cast<double>(std::max<std::uint64_t>(tb.messages, 1));
  auto ns_per = [&](Layer l, double msgs) {
    return static_cast<double>(tracer.self_ns[l]) / msgs;
  };
  auto allocs_per = [&](Layer l, double msgs) {
    return static_cast<double>(tracer.self_allocs[l]) / msgs;
  };
  report.Set("wirefront.poll.ns_per_msg", ns_per(kPoll, na), "ns");
  report.Set("wirefront.poll.msgs_per_call",
             na / static_cast<double>(std::max<std::uint64_t>(ta.poll_calls, 1)),
             "msgs");
  report.Set("wirefront.kernel_drops",
             static_cast<double>(ta.kernel_drops + plain.kernel_drops), "count");
  report.Set("syslog.collector.ingest.ns_per_msg", ns_per(kIngest, na), "ns");
  report.Set("syslog.collector.ingest.allocs_per_msg", allocs_per(kIngest, na),
             "allocs");
  report.Set("syslog.collector.drain.ns_per_msg", ns_per(kDrain, nb), "ns");
  report.Set("syslog.collector.drain.records_per_call",
             nb / static_cast<double>(std::max<std::uint64_t>(tb.drain_calls, 1)),
             "records");
  report.Set("core.augment.resolve.ns_per_msg", ns_per(kResolve, nb), "ns");
  report.Set("core.augment.locate.ns_per_msg", ns_per(kLocate, nb), "ns");
  report.Set("core.augment.locate.allocs_per_msg", allocs_per(kLocate, nb),
             "allocs");
  report.Set("pipeline.match.ns_per_msg", ns_per(kMatch, nb), "ns");
  report.Set("pipeline.match.cache_hit_ratio", tb.cache_hit_ratio, "ratio");
  report.Set("pipeline.match.catchall_inserts",
             static_cast<double>(tb.catchall_inserts), "count");
  report.Set("pipeline.match.invalidations",
             static_cast<double>(tb.invalidations), "count");
  report.Set("pipeline.temporal.ns_per_msg", ns_per(kTemporal, nb), "ns");
  report.Set("pipeline.temporal.edges_per_msg",
             static_cast<double>(tb.temporal_edges) / nb, "edges");
  const double rule_edges = static_cast<double>(tb.rule_edges) / nb;
  const double cross_edges = static_cast<double>(tb.cross_edges) / nb;
  report.Set("pipeline.rule.ns_per_msg", ns_per(kRule, nb), "ns");
  report.Set("pipeline.rule.allocs_per_msg", allocs_per(kRule, nb), "allocs");
  report.Set("pipeline.rule.window_entries", tb.rule_window_mean, "entries");
  report.Set("pipeline.rule.edges_per_msg", rule_edges, "edges");
  report.Set("pipeline.rule.hit_ratio",
             tb.rule_window_mean > 0 ? rule_edges / tb.rule_window_mean : 0.0,
             "ratio");
  report.Set("pipeline.cross_router.ns_per_msg", ns_per(kCross, nb), "ns");
  report.Set("pipeline.cross_router.allocs_per_msg", allocs_per(kCross, nb),
             "allocs");
  report.Set("pipeline.cross_router.window_entries", tb.cross_window_mean,
             "entries");
  report.Set("pipeline.cross_router.edges_per_msg", cross_edges, "edges");
  report.Set("pipeline.cross_router.hit_ratio",
             tb.cross_window_mean > 0 ? cross_edges / tb.cross_window_mean
                                      : 0.0,
             "ratio");
  report.Set("pipeline.tracker.ns_per_msg", ns_per(kTracker, nb), "ns");
  report.Set("pipeline.tracker.allocs_per_msg", allocs_per(kTracker, nb),
             "allocs");
  report.Set("pipeline.tracker.open_groups_max",
             static_cast<double>(tb.open_groups_max), "groups");
  report.Set("pipeline.tracker.open_messages_max",
             static_cast<double>(tb.open_messages_max), "msgs");
  report.Set("engine.pump.ms_p50", Quantile(ta.pump_ms, 0.50), "ms");
  report.Set("engine.pump.ms_p99", Quantile(ta.pump_ms, 0.99), "ms");
  report.Set("engine.pump.ms_max", Quantile(ta.pump_ms, 1.0), "ms");
  report.Set("engine.finish_s", ta.finish_s, "s");

  // How much of the untraced per-message time the layers account for, and
  // what tracing cost.  The layer sum takes the wire and ingest layers
  // from (a) and the rest from (b); the replica's own glue is excluded.
  double layer_sum = ns_per(kPoll, na) + ns_per(kIngest, na);
  for (const Layer l : {kDrain, kResolve, kLocate, kMatch, kTemporal, kRule,
                        kCross, kTracker}) {
    layer_sum += ns_per(l, nb);
  }
  const double untraced_ns = plain.seconds * 1e9 / static_cast<double>(n);
  report.Set("trace.coverage", layer_sum / untraced_ns, "ratio");
  report.Set("trace.overhead_frac", ta.seconds / plain.seconds - 1.0, "ratio");
  report.Set("trace.window_share",
             (ns_per(kRule, nb) + ns_per(kCross, nb)) / layer_sum, "ratio");
  report.Set("sender.busy_share", plain.sender.busy_s / plain.seconds, "ratio");
  report.Set("sender.credit_wait_share",
             plain.sender.credit_wait_s / plain.seconds, "ratio");
  PrintHostRecord(a, threads, rcvbuf, window, n,
                  plain.sender.busy_s / plain.seconds,
                  plain.sender.credit_wait_s / plain.seconds,
                  CpuTimes::StealShare(cpu0, CpuTimes::Read()));

  // Per-layer self-time breakdown, for humans.
  std::fprintf(stderr, "perfbench: %s per-layer self time (ns/msg):\n",
               KindName(a.kind));
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const bool from_a = layer == kPoll || layer == kIngest ||
                        layer == kPump || layer == kFinish;
    std::fprintf(stderr, "  %-26s %10.1f  (%s)\n", LayerName(layer),
                 ns_per(layer, from_a ? na : nb), from_a ? "a" : "b");
  }

  // Open-loop diagnostic: reported, not gated (see README.md).
  const double rate = a.kind == Kind::kLiveStorm ? 8000.0 : 30000.0;
  const OpenLoopResult ol = OpenLoop(
      in, std::min({size.openloop_records, static_cast<std::size_t>(rate * 2), n}),
      rate, kb_text, &error);
  std::printf(
      "{\"openloop\": {\"rate_msgs_per_s\": %.0f, \"offered\": %zu, "
      "\"received\": %zu, \"kernel_drops\": %zu, \"lag_ms_p50\": %.3f, "
      "\"lag_ms_p90\": %.3f, \"lag_ms_p99\": %.3f, \"pump_ms_max\": %.3f, "
      "\"sender_late_ms_p99\": %.3f, \"sender_late_ms_max\": %.3f}}\n",
      ol.rate, ol.offered, ol.received, ol.kernel_drops, ol.lag_p50_ms,
      ol.lag_p90_ms, ol.lag_p99_ms, ol.pump_max_ms, ol.sender_late_p99_ms,
      ol.sender_late_max_ms);

  const std::string path = std::string(".perfbench_out/trace-") +
                           KindName(a.kind) + "-seed" +
                           std::to_string(a.seed) + ".json";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  return report.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload live_natural|live_storm "
                 "--seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--corrupt-reference]\n");
    return 2;
  }
  const perfbench::Size size =
      args.tiny ? perfbench::Size::Tiny() : perfbench::Size::Full();
  return args.trace ? perfbench::RunTraced(args, size)
                    : perfbench::RunTimed(args, size);
}
