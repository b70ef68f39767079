// Replication service core: the in-process request handler behind the
// Unix-domain-socket front-end (server.h). One call — handle() — takes a
// JSON request object and returns a JSON response object, and *never
// throws*: every failure mode maps to a structured status.
//
// Statuses:
//   "ok"                the operation completed; payload fields attached
//   "degraded"          completed on partial data; "notes" says what is
//                       missing (degraded results are never cached and the
//                       caller must never merge them with ok results)
//   "deadline_exceeded" the per-request deadline or a watchdog cancel
//                       tripped a cooperative checkpoint; no partial
//                       payload is attached
//   "error"             the request was well-formed but failed (e.g. its
//                       retry budget ran out); "error" has the message
//   "bad_request"       malformed request (unknown op, wrong types, a
//                       "threads" that is not a non-negative integer)
//
// Parallelism: "threads" is a budget over the process-wide compute
// helpers (util/parallel.h), read as 0 — every idle helper — when the
// request does not say, so one request's fits fill the cores the
// backend's other requests leave idle. Answers are bit-identical at
// every value, so "threads" is no part of a cache key, and an answer
// served from a cache tier never reads it.
//
// Fault tolerance: requests that trip the "service.request" site are
// retried with exponential backoff, 3 attempts in all. "service.stall"
// simulates a wedged worker — the handler spins at a cooperative
// checkpoint until the deadline/watchdog fires. Both sites are driven by
// the same deterministic FaultPlan as the rest of the pipeline.
//
// Result tier: the core holds exactly one, a RenderedLineCache of the
// final response lines (op echo included) of "ok" answers to cacheable
// ops (see ops.h), keyed by canonical request key — so "threads" and the
// other volatile fields never split a slot, because results are
// bit-identical at every thread count. handle() fills it and consults it
// after the "service.stall" and "service.request" sites, so chaos runs
// keep their per-site hit sequences. The server's fast path
// (try_serve_cached_line) and ClusterBackend, in front of its disk cache,
// read the same tier. Embedding models are cached separately per
// (corpus_sentences, corpus_seed) so repeated metric requests skip
// training. Both caches are LRU-bounded (256 result lines and 4 embedding
// models) so a long-lived backend under a seed sweep cannot grow without
// limit; the "cache_stats" op reports size/capacity/evictions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "analysis_service/annotation_engine.h"
#include "embed/embedding.h"
#include "service/json.h"
#include "service/line_cache.h"
#include "service/ops.h"
#include "util/fault.h"
#include "util/lru.h"

namespace decompeval::service {

struct ServiceOptions {
  /// Fault schedules for the chaos suite; empty = faults disabled.
  util::FaultPlan fault_plan;
  /// First backoff pause; doubles per retry. 0 disables sleeping (tests).
  double backoff_initial_ms = 2.0;
  /// How long an injected "service.stall" spins waiting for the watchdog
  /// before giving up and continuing (keeps fault runs bounded even
  /// without a deadline).
  std::uint64_t stall_max_ms = 250;
};

/// Monotonic counters, readable via the "stats" op.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t errors = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t retries = 0;
  std::uint64_t cache_hits = 0;
};

class ServiceCore {
 public:
  explicit ServiceCore(ServiceOptions options = {});

  /// Handles one request. Never throws; see the status table above.
  /// `cancel` is the watchdog flag for this request (may be null).
  Json handle(const Json& request, const std::atomic<bool>* cancel = nullptr);

  /// Warm-path fast lane: when an identical cacheable request (canonical
  /// key; "threads"/"deadline_ms" don't count) was answered "ok" before,
  /// appends the cached rendered response line (no newline) to `out` and
  /// returns true. The server calls this on its loop thread, before
  /// a request ever touches the queue/worker machinery. Disabled whenever
  /// a fault plan is active: skipping the queue would skip the
  /// "service.stall"/"service.request" hits and shift every chaos run's
  /// sequence. Hits count toward requests/ok/cache_hits.
  bool try_serve_cached_line(const Json& request, std::string& out);

  /// The result tier itself, for a layer that fronts the core with more
  /// tiers (ClusterBackend reads it before its disk and warms it from disk
  /// hits). Lookups here touch no stats.
  RenderedLineCache& result_cache() { return result_cache_; }

  ServiceStats stats() const;
  const util::FaultInjector& faults() const { return faults_; }

 private:
  /// Sets `cached` when the answer came from the result tier.
  Json dispatch(const Json& request, const std::atomic<bool>* cancel,
                bool& cached);
  Json run_study_op(const Json& request, const util::Deadline& deadline);
  Json run_replication_op(const Json& request, const util::Deadline& deadline);
  Json annotate_op(const Json& request, const util::Deadline& deadline);
  std::shared_ptr<const embed::EmbeddingModel> embedding_for(
      std::size_t sentences, std::uint64_t seed, std::size_t threads);
  void maybe_stall(const util::Deadline& deadline);
  void note_status(const std::string& status);

  ServiceOptions options_;
  util::FaultInjector faults_;

  mutable std::mutex mutex_;
  ServiceStats stats_;
  /// The result tier (internally synchronized).
  RenderedLineCache result_cache_;
  /// Embedding models keyed by "sentences|seed". Guarded separately so a
  /// long training run does not block stats/caching on other workers.
  /// Degraded models (quarantined trainer shards) are never cached.
  std::mutex embed_mutex_;
  util::LruCache<std::string, std::shared_ptr<const embed::EmbeddingModel>>
      embed_cache_;
  /// Incremental annotation engine behind the "annotate" op. Internally
  /// synchronized; its per-function digest cache is what makes a repeat
  /// annotate of an edited document recompute only the edited function.
  analysis_service::AnnotationEngine annotate_engine_;
};

}  // namespace decompeval::service
