// A cluster backend: ServiceCore wrapped with the persistent disk cache
// and the append-only command journal.
//
// handle() is a drop-in ReplicationServer handler. Cacheable ops (see
// service/ops.h) read two tiers: the core's rendered result tier — the
// process's only in-memory copy of a result — then the disk cache. Disk
// hits and replica installs warm the memory tier, fast_path() serves it
// on the server's loop thread, and clean "ok" responses are stored on disk
// after computation. A hit replays the exact bytes handle() produced, so
// it is bit-identical to recomputing (the cold-restart identity test).
// Degraded responses are never stored. While any fault injector
// (service, cache or journal) is armed, this layer neither reads nor
// warms the memory tier, so chaos runs keep their exact per-site hit
// sequences; the core still consults it after its own fault sites.
//
// Durability: a cacheable request that misses both tiers is *in-flight
// work* — its durable command form (volatile fields stripped) is
// appended to the journal before computation, and once the result
// reaches the disk cache it is *permanent state* (snapshot-covered), so
// compaction drops its journal record. replay_journal() re-issues every
// journaled command through handle(): snapshot-covered commands become
// disk hits, in-flight ones recompute bit-identically — this is how a
// supervisor re-warms a restarted backend (the "journal_replay" op).
// A journal append failure degrades durability, never availability: the
// request is still served and the failure surfaces as a structured
// warning in "journal_stats".
//
// Cluster ops beyond ServiceCore's:
//   "cache_stats"     core stats + disk_* fields (incl. byte totals);
//                     "disk_memory_hits" counts answers the memory tier
//                     gave in front of the disk
//   "cache_install"   store a replicated {request, response} pair (the
//                     dispatcher's write fan-out; never journaled — the
//                     disk write IS the durability)
//   "cache_gc"        run the janitor (params "max_bytes", "max_age_ms")
//   "journal_stats"   journal counters + structured warnings
//   "journal_replay"  re-warm from the journal (returns replay counts)
//   "journal_compact" drop snapshot-covered records now
//   "stream_*"        the streaming study engine's op family (see
//                     streaming/engine.h). Stream writes are journaled
//                     in absolute (idempotent) form before execution and
//                     replayed like any other command — the journal is
//                     the only durable record of a stream, and replay
//                     rebuilds it bit-identically. Stream ops are not
//                     cacheable, so their time-varying results never
//                     reach any cache.
//
// Auto-compaction keys on the journal's growth since the last compaction,
// not its size: stream records are never snapshot-covered and survive
// every compaction, so a size trigger would rewrite and fsync the whole
// journal on every cold store once they alone passed the threshold.
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
  /// journal.path empty → no journal (no durability for in-flight work,
  /// and streams do not survive a restart).
  JournalOptions journal;
  /// Auto-compact the journal once it has grown by this many bytes since
  /// the last compaction (checked after each store; 0 disables —
  /// compaction then only runs via the "journal_compact" op).
  std::uint64_t journal_compact_bytes = 64u << 10;
};

/// Outcome of one replay_journal() pass (the "journal_replay" op).
struct JournalReplayReport {
  std::uint64_t records = 0;    ///< valid records found in the journal
  std::uint64_t replayed = 0;   ///< distinct commands re-issued
  /// Replays that applied: "ok", or "degraded" for a stream write (it
  /// lost arrivals or a refit to the fault plan but still applied, as the
  /// dispatcher's replica fan-out counts it).
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

  /// Re-issues every journaled command through handle() (deduplicated by
  /// canonical key, original order). Appends are suppressed while the
  /// replay runs so records are not re-journaled.
  JournalReplayReport replay_journal(const std::atomic<bool>* cancel);

  /// Compacts the journal down to records not yet covered by the disk
  /// cache snapshot. Returns the number of records kept.
  std::size_t compact_journal();

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
  /// Recent journal-append warnings (bounded; oldest dropped first).
  std::vector<std::string> journal_warnings() const;

 private:
  void journal_command(const service::Json& request);
  service::Json cache_install_op(const service::Json& request);
  service::Json cache_gc_op(const service::Json& request);
  service::Json journal_stats_op();
  service::Json journal_replay_op(const std::atomic<bool>* cancel);
  service::Json journal_compact_op();

  service::Json handle_stream_op(const service::Json& request);

  ClusterBackendOptions options_;
  service::ServiceCore core_;
  DiskCache cache_;
  Journal journal_;
  /// Stream sessions, driven by the core's fault injector so the
  /// stream.* sites share one deterministic plan with everything else.
  streaming::StreamEngine streaming_;
  std::atomic<bool> replaying_{false};
  /// Journal size the last compaction left (0 before the first).
  std::atomic<std::uint64_t> compacted_bytes_{0};
  mutable std::mutex journal_warn_mutex_;
  std::vector<std::string> journal_warnings_;
  /// Whether the core's memory tier may be read or warmed from this layer:
  /// false whenever a fault injector is armed (see the file comment).
  const bool memory_tier_;
  std::atomic<std::uint64_t> memory_hits_{0};
};

}  // namespace decompeval::cluster
