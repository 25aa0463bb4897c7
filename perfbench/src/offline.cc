// The offline path: ParseArchive -> OfflineLearner::Learn (the
// `sldigest learn --sweep` configuration) and Engine::Digest.
#include "bench.h"
#include "engine/engine.h"
#include "syslog/ingest.h"

namespace perfbench {

namespace core = sld::core;

LearnRep LearnFromArchive(const std::string& archive,
                          const core::LocationDict& dict, int threads) {
  LearnRep rep;
  sld::syslog::IngestOptions ingest;
  ingest.threads = threads;
  sld::syslog::IngestStats stats;
  const std::uint64_t t0 = NowNs();
  const std::vector<sld::syslog::SyslogRecord> records =
      sld::syslog::ParseArchive(archive, ingest, &stats);
  const std::uint64_t t1 = NowNs();
  core::OfflineLearnerParams params;
  params.rules.window_ms = 120 * sld::kMsPerSecond;  // sldigest learn default
  params.sweep_temporal = true;
  params.threads = threads;
  const core::KnowledgeBase kb =
      core::OfflineLearner(params).Learn(records, dict, nullptr, &rep.timings);
  const std::uint64_t t2 = NowNs();
  rep.parse_s = NsToS(t1 - t0);
  rep.learn_s = NsToS(t2 - t1);
  rep.total_s = NsToS(t2 - t0);
  rep.records = stats.records;
  rep.malformed = stats.malformed;
  rep.kb_text = kb.Serialize();
  return rep;
}

DigestRep DigestOnce(const std::vector<sld::syslog::SyslogRecord>& records,
                     const std::string& kb_text,
                     const core::LocationDict& dict, std::size_t shards) {
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(kb_text);
  sld::engine::EngineOptions opts;
  opts.shards = shards;
  sld::engine::Engine eng(&kb, &dict, opts);
  DigestRep rep;
  const std::uint64_t t0 = NowNs();
  const core::DigestResult result = eng.Digest(records);
  rep.seconds = NsToS(NowNs() - t0);
  rep.fingerprint = SortedEventsFingerprint(result.events);
  rep.events = result.events.size();
  return rep;
}

}  // namespace perfbench
