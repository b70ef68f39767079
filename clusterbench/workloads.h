// The four traffic mixes and their correctness oracles. A workload turns
// (seed, client index) into a deterministic request sequence; the same
// seed always yields the same requests. The cluster only ever sees the
// generated requests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "service/server.h"

namespace clusterbench {

/// One request a client is about to send.
struct Step {
  const Json* request = nullptr;  ///< owned by the workload until next()
  /// Oracle identity: steps with equal ids must get byte-equal answers.
  std::uint64_t id = 0;
  /// Counts toward the latency metrics (stream_ingest: dashboards only).
  bool probe = true;
  /// Open loop only: when the step is due, in ns after the window starts.
  std::int64_t due_ns = -1;
};

/// A request the oracle re-answers, and the bytes the cluster answered.
struct Answered {
  Json request;
  std::string response;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual bool open_loop() const { return false; }
  /// Quantile reported as latency_tail_us. It has well over ten samples
  /// beyond it at the default run length, and is kept below the highest
  /// such quantile where that one moves with host stalls.
  virtual double tail_quantile() const = 0;
  int clients() const { return 4; }

  /// Restarts every client's sequence from the beginning (same seed, same
  /// requests), for a new window on a fresh cluster.
  virtual void restart() = 0;
  /// Set-up traffic sent before the window: embedding pre-warm, session
  /// anchors, stream opens. `clients` are connections to the front.
  virtual void prewarm(
      const std::vector<std::unique_ptr<decompeval::service::ServiceClient>>&
          clients,
      const std::vector<std::string>& backend_sockets, PhaseCount& phase) = 0;
  /// Next step of `client`; false when its sequence is exhausted.
  virtual bool next(int client, Step& step) = 0;

  /// Standalone answers for the given step ids, computed outside the
  /// window by a ServiceCore or StreamEngine of the workload's own.
  virtual std::map<std::uint64_t, Answered> oracle(
      const std::vector<std::uint64_t>& ids) = 0;
};

/// study_reads | replication_sweep | annotate_edits | stream_ingest.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// --- generators shared with the component replays -------------------------

/// One annotate editing session: documents of 8–24 mini-C functions,
/// ~85% single-function edits (with the previous text as baseline), ~10%
/// new documents, ~5% exact repeats.
class EditSession {
 public:
  EditSession(std::uint64_t seed, int session);
  /// The session's anchor document request (sent during set-up).
  const Json& anchor() const { return anchor_; }
  /// Produces the next request; `edited_function` (may be null) receives
  /// the text of the function that changed, empty for new documents and
  /// repeats; `repeat` is set when the request repeats the previous one.
  Json next(std::string* edited_function, bool* repeat);

 private:
  struct Function {
    int shape = 0;
    std::uint64_t id = 0;
    std::uint64_t version = 0;
  };
  void new_document();
  std::string render() const;

  std::uint64_t rng_state_;
  int session_;
  std::uint64_t next_function_id_ = 0;
  std::vector<Function> functions_;
  std::string text_;
  Json previous_;
  Json anchor_;
};

std::string render_function(int shape, const std::string& name,
                            std::uint64_t version);

/// Stream opened by client `client` of stream_ingest. Set-up opens it
/// with refits on and every other option at its default, and absorbs
/// kStreamFill arrivals (stream_setup_requests). Then each cycle of
/// kStreamCycle steps absorbs kStreamBatch more arrivals and reads the
/// dashboard kStreamCycle - 1 times: dashboards refresh more often than
/// batches land. A dashboard over a nearly empty window can fail (all
/// ties in a rank test), so none is read before the window is full.
std::vector<Json> stream_setup_requests(std::uint64_t seed, int client);
Json stream_step_request(int client, std::uint64_t step);
bool stream_step_absorbs(std::uint64_t step);
constexpr std::uint64_t kStreamBatch = 100;
constexpr std::uint64_t kStreamCycle = 5;
constexpr std::uint64_t kStreamRefitEvery = 50000;
/// Set-up's fill stops one batch short of the first refit point, so the
/// window's first absorb runs each stream's refit. The next one lies
/// further than a window's arrivals reach: every window holds exactly one
/// refit per stream, and set-up stays cheap enough to repeat.
constexpr std::uint64_t kStreamFill = kStreamRefitEvery - kStreamBatch;

/// The study_reads key space and the replication_sweep seed sequence.
std::uint64_t study_seed_for_rank(std::uint64_t seed, std::uint64_t rank);
std::uint64_t replication_seed(std::uint64_t seed, int client,
                               std::uint64_t k);

}  // namespace clusterbench
