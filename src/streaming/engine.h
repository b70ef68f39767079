// The streaming study engine: live-population arrivals absorbed into
// incremental per-stream state, with mixed-model refits of each window and
// windowed RQ1–RQ5 dashboards, served through the cluster as the
// `stream` op family.
//
// Op family (rows of service/ops.h routed by stream id; ClusterBackend
// hands every one of them to this engine):
//   "stream_open"      create (or idempotently re-open) a stream:
//                      workload knobs ("process" poisson|bursty,
//                      "rate_per_s", "population", "seed", burst knobs,
//                      "opinion_probability"), window bounds
//                      ("window_events", "window_age_ms"), refit cadence
//                      ("refit_every", "fit_starts"). Every count field is
//                      a non-negative integer; "population" (at most
//                      100,000), "window_events" (at most 65,536) and
//                      "fit_starts" (at most 64) are also at least 1. An
//                      open that breaks a rule is a "bad_request", refused
//                      before it is journaled.
//   "stream_absorb"    generate + absorb arrivals up to an absolute
//                      target ("upto", required: the only form, so every
//                      journaled or replicated absorb is idempotent). Runs
//                      refits at the every-N-arrivals cadence as targets
//                      pass. One request asks for at most
//                      kMaxAbsorbPerRequest arrivals and crosses at most
//                      kMaxRefitsPerAbsorb refit points past "emitted"; a
//                      larger one, or one without "upto", is a
//                      "bad_request", and an absorb on a stream that is not
//                      open an "error", all refused before journaling.
//   "stream_stats"     O(1) counters + the state digest (the
//                      bit-identity probe).
//   "stream_dashboard" windowed RQ1–RQ5 summaries recomputed from the
//                      sliding window plus the latest refit.
//
// Cold refits: each refit is the default fit of its window at the
// stream's "fit_starts", seeded by nothing from an earlier refit, as the
// paper fits each model once per dataset.
//
// Cluster citizenship: stream ops are routed by stream id (see
// service::routing_key), the write ops (stream_write rows) are journaled
// as they arrive (minus volatile fields) once refusal() passes them and
// replayed with the usual dedup, writes are sent to R−1 ring replicas
// beside the primary by the dispatcher, and results are
// cache-exempt everywhere (they are time-varying by design; no stream
// row is cacheable). The backend's journal is the only durable record
// of a stream: the engine keeps everything in memory, and a restarted
// backend rebuilds each stream by replaying its journaled stream_open
// and absorbs (ClusterBackend's "journal_replay").
//
// Fault sites (served from the owning ServiceCore's injector):
//   "stream.absorb"  hit = arrival seq. The arrival is dropped (not
//                    absorbed) and the stream degrades with a structured
//                    note. Because hits key on seq, a replayed run under
//                    the same plan drops the exact same arrivals.
//   "stream.refit"   hit = refit attempt index. The refit is skipped,
//                    the previous fit stays current, and the stream
//                    degrades with a note.
//
// Determinism: arrivals are pure functions of (config, candidate index),
// refit cadence is a pure function of arrival seq, fits are bit-identical
// at any thread count (multi-start contract), and every summary is
// computed from window contents in deque order — so a streamed run
// replays bit-for-bit from its journaled commands at threads 1/2/4.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "service/json.h"
#include "snippets/snippet.h"
#include "streaming/state.h"
#include "study/engine.h"
#include "util/fault.h"

namespace decompeval::streaming {

class StreamSession;

/// C++-level probe for the refit-equality and determinism tests: the
/// current window as study data, the latest fits, and the state digest.
struct SessionView {
  study::StudyData window_data;
  int fit_starts = 4;
  bool have_glmm = false;
  bool have_lmm = false;
  mixed::GlmmFit glmm;
  mixed::LmmFit lmm;
  std::string digest;
  std::uint64_t absorbed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t refit_attempts = 0;
  std::uint64_t refits_run = 0;
  std::uint64_t refits_faulted = 0;
};

class StreamEngine {
 public:
  /// Most arrivals one stream_absorb may ask for: an "upto" at most this
  /// far past the stream's "emitted". 20× the largest fill the cluster
  /// benchmark sends (49,900 arrivals). The cap bounds how long one
  /// request holds its session's lock, and how long replaying it takes.
  static constexpr std::uint64_t kMaxAbsorbPerRequest = 1'000'000;
  /// Most refit points one stream_absorb may cross past "emitted",
  /// counted as upto/refit_every − emitted/refit_every. A stream opened at
  /// "refit_every" 1 would otherwise run a refit per arrival, every one of
  /// them under the session lock and again on every journal replay. 2.5×
  /// the most any caller in this repository crosses (40: 400 arrivals at
  /// "refit_every" 10); the cluster benchmark crosses 1.
  static constexpr std::uint64_t kMaxRefitsPerAbsorb = 100;

  /// `faults` drives the stream.* sites (null = no injection). `pool`
  /// defaults to the paper's snippet pool; it must outlive the engine.
  explicit StreamEngine(const util::FaultInjector* faults = nullptr,
                        const std::vector<snippets::Snippet>* pool = nullptr);
  ~StreamEngine();

  /// The answer handle() gives `request` without applying it, or nullopt
  /// when handle() serves it. The backend asks before it journals a stream
  /// write, so a refused write is never journaled: "bad_request" for a
  /// count field out of range, an open without a stream id, or an absorb
  /// without "upto" or over kMaxAbsorbPerRequest or kMaxRefitsPerAbsorb;
  /// "error" for an unknown arrival process or a stream that is not open.
  std::optional<service::Json> refusal(const service::Json& request) const;

  /// The command form of a stream write a primary already answered, for
  /// its ring replicas: an absorb is pinned to the primary's "emitted"
  /// (whatever "upto" it carried), so a replica that fell behind (or raced
  /// ahead via an earlier failover) converges on the same arrival prefix.
  /// Other writes are returned unchanged.
  static service::Json pinned_command(service::Json command,
                                      const service::Json& answer);

  /// Serves one stream_* request. Never throws.
  service::Json handle(const service::Json& request);

  /// Test probe; throws std::runtime_error on an unknown stream.
  SessionView view(const std::string& stream_id) const;

  std::size_t open_streams() const;

 private:
  StreamSession* find(const std::string& id) const;
  service::Json open_op(const service::Json& request);

  const util::FaultInjector* faults_;
  const std::vector<snippets::Snippet>* pool_;
  mutable std::mutex mutex_;  ///< guards sessions_ (sessions self-lock)
  std::map<std::string, std::unique_ptr<StreamSession>> sessions_;
};

}  // namespace decompeval::streaming
