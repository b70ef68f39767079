// A cluster backend: ServiceCore wrapped with the persistent disk cache
// and the append-only command journal.
//
// handle() is a drop-in ReplicationServer handler. Cacheable ops (see
// service/ops.h) read two tiers: the core's rendered result tier — the
// process's only in-memory copy of a result — then the disk cache. Disk
// hits warm the memory tier, fast_path() serves it on the server's loop
// thread, and clean "ok" responses are stored on disk after computation;
// nothing else writes into either tier. A hit replays the exact bytes
// handle() produced, so it is bit-identical to recomputing (the
// cold-restart identity test). Degraded responses are never stored.
// While a service or cache fault injector is armed, this layer neither
// reads nor warms the memory tier, so chaos runs keep their exact
// per-site hit sequences; the core still consults it after its own fault
// sites.
//
// Durability: the journal is the durable record of stream state only. A
// cacheable request is never journaled or replicated: its answer is a
// pure function of the request, so a read lost with a crashed backend
// fails over to the next backend on the ring walk, which recomputes it
// bit-identically. Stream writes are journaled in absolute (idempotent)
// form before they run, and replay_journal() (the "journal_replay" op a
// supervisor re-warms with) hands them straight to the stream engine,
// deduplicated by canonical key, so only the replay's own writes skip
// the journal. Records of other ops are skipped unexecuted, so none can
// crash-loop a restart. A journal append failure degrades durability,
// never availability: the write still applies and the failure surfaces
// as a structured warning in "journal_stats", as does a damaged tail cut
// off when the journal opens.
//
// Cluster ops beyond ServiceCore's:
//   "cache_stats"     core stats + disk_* fields (incl. byte totals);
//                     "disk_memory_hits" counts answers the memory tier
//                     gave in front of the disk
//   "cache_gc"        run the janitor (params "max_bytes", "max_age_ms":
//                     non-negative integers, else "bad_request")
//   "journal_stats"   journal counters + structured warnings
//   "journal_replay"  rebuild the streams from the journal (returns
//                     replay counts)
//   "stream_*"        the streaming study engine's op family (see
//                     streaming/engine.h). Stream ops are not cacheable,
//                     so their time-varying results never reach any
//                     cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/disk_cache.h"
#include "cluster/journal.h"
#include "service/service.h"
#include "streaming/engine.h"

namespace decompeval::cluster {

struct ClusterBackendOptions {
  service::ServiceOptions service;
  /// cache.directory empty → the backend runs with no disk cache.
  DiskCacheOptions cache;
  /// journal.path empty → no journal: streams do not survive a restart.
  JournalOptions journal;
};

/// Outcome of one replay_journal() pass (the "journal_replay" op).
struct JournalReplayReport {
  std::uint64_t records = 0;    ///< valid records found in the journal
  std::uint64_t replayed = 0;   ///< distinct stream writes re-issued
  /// Replays that applied: "ok", or "degraded" (the write lost arrivals
  /// or a refit to the fault plan but still applied, as the dispatcher's
  /// replica fan-out counts it).
  std::uint64_t ok = 0;
  std::uint64_t failures = 0;   ///< unparseable records + replays not applied
  bool clean = true;            ///< journal scanned to EOF without damage
  std::string warning;          ///< why the scan stopped, when !clean
};

class ClusterBackend {
 public:
  explicit ClusterBackend(ClusterBackendOptions options);

  /// Never throws (same contract as ServiceCore::handle).
  service::Json handle(const service::Json& request,
                       const std::atomic<bool>* cancel);

  /// Re-issues every journaled stream write to the stream engine
  /// (deduplicated by canonical key, original order) without journaling
  /// it again; records of other ops are skipped.
  JournalReplayReport replay_journal(const std::atomic<bool>* cancel);

  /// Warm-path fast lane for ReplicationServer::fast_path: appends the
  /// core's cached rendered line for an identical earlier "ok" request
  /// and returns true. Byte-identical to what handle()+dump would produce.
  /// Always false while a fault injector is armed.
  bool try_serve_cached_line(const service::Json& request, std::string& out);

  /// Handler to plug into ServerOptions::handler.
  std::function<service::Json(const service::Json&, const std::atomic<bool>*)>
  handler() {
    return [this](const service::Json& request,
                  const std::atomic<bool>* cancel) {
      return handle(request, cancel);
    };
  }

  /// Fast path to plug into ServerOptions::fast_path alongside handler().
  std::function<bool(const service::Json&, std::string&)> fast_path() {
    return [this](const service::Json& request, std::string& out) {
      return try_serve_cached_line(request, out);
    };
  }

  service::ServiceCore& core() { return core_; }
  DiskCache& cache() { return cache_; }
  Journal& journal() { return journal_; }
  streaming::StreamEngine& streaming() { return streaming_; }
  /// Recent journal warnings (bounded; oldest dropped first).
  std::vector<std::string> journal_warnings() const;

 private:
  service::Json cache_gc_op(const service::Json& request);
  service::Json journal_stats_op();
  service::Json journal_replay_op(const std::atomic<bool>* cancel);

  service::Json handle_stream_op(const service::Json& request);

  ClusterBackendOptions options_;
  service::ServiceCore core_;
  DiskCache cache_;
  Journal journal_;
  /// Stream sessions, driven by the core's fault injector so the
  /// stream.* sites share one deterministic plan with everything else.
  streaming::StreamEngine streaming_;
  mutable std::mutex journal_warn_mutex_;
  std::vector<std::string> journal_warnings_;
  /// Whether the core's memory tier may be read or warmed from this layer:
  /// false while a service or cache fault injector is armed (see the file
  /// comment).
  const bool memory_tier_;
  std::atomic<std::uint64_t> memory_hits_{0};
};

}  // namespace decompeval::cluster
