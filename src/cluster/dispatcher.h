// Cluster dispatcher: routes requests to backends over a consistent-hash
// ring, with failover, connection pooling, and health probing.
//
// Routing: the request's routing key (service::routing_key — its
// canonical key, the same key the disk cache digests, unless its op row
// in service/ops.h routes on "baseline" or "stream") hashes onto the
// ring, so a given logical request always lands on the same backend and
// therefore always warms the same caches. The ring walk order is the
// failover order: a backend that is down, faulted, or overloaded is
// skipped and the next ring node is tried; only when every backend has
// been tried does the dispatcher answer
// {"status":"error","error":"no backend available"}.
//
// A backend is marked down when a forward meets a transport failure
// (connect/send/recv error or timeout) and skipped until the health
// prober's ping succeeds again. A replicated stream command that fails
// only books replication_failures: a replica too busy to answer in time
// is not a dead one. Forwarded responses are returned verbatim —
// byte-identical to asking the backend directly, which the bit-identity
// tests assert.
//
// Replication (replication_factor = R > 1) applies stream writes only
// (their op rows say so, see service/ops.h), as commands on the live
// members of HashRing::replicas_for(key, R). Every stream write (an open,
// or an absorb, which always carries its absolute "upto") goes to all of
// them at once, each sent the very line the primary is sent: two legs
// that apply the same absolute target converge in either order, and a
// line the primary refuses, its replicas refuse too. The client's answer
// waits for every replica leg, and stream writes never hedge, so one run
// leaves a deterministic set of replicas (see replicate()). The dispatcher
// holds no answers, and a cacheable answer is never copied: it is a pure
// function of its request, so the backend that answers a read computes
// and stores it, and a read whose primary is down walks on along the
// ring, where the next backend recomputes it bit-identically. Reads keep
// the full ring walk: the first live walk candidate serves (deterministic
// preference order), and because the walk is a prefix-stable extension
// of the replica set, killing a stream's owner lands its next op on the
// replica that applied its writes.
//
// handle() plugs into ServerOptions::handler, so the dispatcher front-end
// reuses ReplicationServer's bounded queue, backpressure, watchdog, and
// clean-shutdown machinery unchanged. Forwards and replica round trips
// wait inside a service::BlockingWait, outside the front's compute slots:
// a front with few workers still forwards one request per waiting client
// (up to its workers + max_queue threads), so the backends, not the
// front, bound how much computes at once. The front server intercepts the
// "shutdown" op itself; backends are shut down by their own operators
// (see examples/replication_cluster.cpp).
//
// Overload handling:
//   deadline propagation — a request carrying "deadline_ms" is forwarded
//     with the budget decremented by the dispatch time already spent, so
//     a backend never burns cycles on work whose client has given up;
//     once nothing is left the dispatcher answers a structured
//     "deadline_exceeded" itself instead of forwarding at all.
//   spill — an "overloaded" answer (a backend's queue is full) moves the
//     walk to the next ring node; the backend stays up.
//   hedged reads (opt-in, hedge_delay_ms > 0) — every leg (one line sent
//     to one backend) waits in one poll() on the calling thread until its
//     reply line or its deadline. When a cacheable read's primary is still
//     quiet after the hedge delay, the next live ring node is sent the
//     same line, and the poll() waits on both; the first complete line
//     wins and the loser's connection is closed unpooled, booking
//     nothing. No backend holds a copy of another's results, so a hedge
//     target that has not answered the key before computes it. A
//     dispatcher fault plan forces hedging off, keeping chaos hit
//     sequences exact.
//
// Fault sites (serial-counter, from DispatcherOptions::fault_plan):
//   "cluster.backend"  the candidate is treated as down (health-skip path)
//   "cluster.forward"  the forward attempt fails in transit (failover path)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "service/server.h"
#include "util/fault.h"

namespace decompeval::cluster {

struct BackendEndpoint {
  std::string id;           ///< ring identity; unique and non-empty
  std::string socket_path;  ///< Unix-domain endpoint (used when non-empty)
  std::string host = "127.0.0.1";  ///< TCP endpoint otherwise
  int port = -1;
};

struct DispatcherOptions {
  std::vector<BackendEndpoint> backends;
  /// Per-attempt bound on connect, send, and the wait for the reply line
  /// (counted from the send; <= 0 waits without bound). A backend killed
  /// mid-request surfaces as a timeout here and the dispatcher fails over
  /// instead of hanging.
  double forward_timeout_ms = 30000.0;
  /// Down-backend reprobe cadence; 0 disables the prober thread.
  std::uint64_t health_interval_ms = 100;
  /// Ring nodes each stream write is applied on (the first R nodes of
  /// the stream's ring walk). 1 = no replication. Cacheable results are
  /// never replicated: each is stored by the backend that computes it.
  std::size_t replication_factor = 1;
  /// Schedules for the "cluster.forward" / "cluster.backend" sites.
  util::FaultPlan fault_plan;
  /// Hedged reads: how long a quiet primary waits before the next ring
  /// replica is tried too (<= 0 disables hedging).
  double hedge_delay_ms = 0.0;
  /// Per-probe connect + ping bound for the health prober.
  double probe_timeout_ms = 1000.0;
  /// Injectable monotonic clock (milliseconds). Deadline budgets and
  /// probe timestamps read it, so a test can drive them
  /// deterministically. Empty = std::chrono::steady_clock.
  std::function<std::uint64_t()> now_ms;
};

/// Monotonic counters (see the "cluster_stats" op).
struct DispatcherStats {
  std::uint64_t forwarded = 0;         ///< responses returned from a backend
  std::uint64_t failovers = 0;         ///< transport failures → next node
  std::uint64_t overloaded_retries = 0;
  std::uint64_t down_skips = 0;
  std::uint64_t exhausted = 0;         ///< no backend could answer
  std::uint64_t replicated = 0;  ///< stream writes a replica applied
  std::uint64_t replication_failures = 0;  ///< replica writes refused or lost
  std::uint64_t deadline_refusals = 0;  ///< deadline budget already spent
  std::uint64_t hedges = 0;      ///< secondary hedge attempts launched
  std::uint64_t hedge_wins = 0;  ///< hedges that answered before the primary
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatcherOptions options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Starts the health prober (no-op when health_interval_ms is 0).
  void start();
  /// Stops the prober and drops every pooled connection. Idempotent.
  void stop();

  /// Routes one request. Never throws. The "cluster_stats" op is answered
  /// locally; everything else is forwarded along the ring.
  service::Json handle(const service::Json& request,
                       const std::atomic<bool>* cancel);

  /// Handler to plug into ServerOptions::handler.
  std::function<service::Json(const service::Json&, const std::atomic<bool>*)>
  handler() {
    return [this](const service::Json& request,
                  const std::atomic<bool>* cancel) {
      return handle(request, cancel);
    };
  }

  /// A front fast path that never answers: the dispatcher holds no
  /// answers, so every request is forwarded. An empty
  /// ServerOptions::fast_path does the same.
  std::function<bool(const service::Json&, std::string&)> fast_path() {
    return [](const service::Json&, std::string&) { return false; };
  }

  const HashRing& ring() const { return ring_; }
  bool backend_up(const std::string& id) const;
  DispatcherStats stats() const;

 private:
  struct BackendState {
    BackendEndpoint endpoint;
    std::atomic<bool> up{true};
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<service::ServiceClient>> idle;
    /// Wall/injected-clock timestamp of the prober's last attempt on this
    /// backend (0 = never probed). Surfaced in cluster_stats.
    std::atomic<std::uint64_t> last_probe_ms{0};
  };

  service::Json forward(const service::Json& request,
                        const std::atomic<bool>* cancel);
  std::unique_ptr<service::ServiceClient> acquire(BackendState& backend);
  void release(BackendState& backend,
               std::unique_ptr<service::ServiceClient> conn);
  void prober_loop();
  std::uint64_t clock_ms() const;
  /// Adds one to a DispatcherStats counter under stats_mutex_.
  void bump(std::uint64_t DispatcherStats::*counter);

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// One request line sent to one backend, plus its answer; forward()
  /// keeps one per backend, so no backend gets a request twice.
  struct Leg;
  /// Sends `line` as backends_[index]'s leg; a `copy` (a replica write)
  /// takes no "cluster.forward" hit, which counts walk attempts only.
  void launch(std::vector<Leg>& legs, std::size_t index,
              const service::Json& line, bool copy);
  /// One poll() over every open leg, until a line, `wake` or a leg's
  /// forward_timeout_ms (from its own send); settles each leg that is done.
  /// False, at once, when no leg is open.
  bool poll_legs(std::vector<Leg>& legs,
                 std::chrono::steady_clock::time_point wake);
  /// One forward attempt: waits for backends_[walk[at]]'s leg (and a hedge,
  /// with `may_hedge`), polling every open leg. Returns the backend whose
  /// line answered, left in its leg's reply verbatim, or kNone: every leg
  /// was overloaded or failed, so the walk goes on.
  std::size_t attempt(const service::Json& request,
                      const std::vector<std::size_t>& walk, std::size_t at,
                      bool may_hedge, std::vector<Leg>& legs);
  /// Finishes a stream write at R > 1 on the first R walk nodes, whatever
  /// answered it (`served` is kNone for a refusal). After an applied answer
  /// it sends the *command* to each live node that holds no copy of it, or
  /// once more pinned where the answer went past a copy's "upto". It then
  /// waits for every leg and books each replica's outcome.
  void replicate(const service::Json& request, const service::Json& response,
                 const std::vector<std::size_t>& walk, std::size_t served,
                 std::vector<Leg>& legs);

  DispatcherOptions options_;
  util::FaultInjector faults_;
  HashRing ring_;
  std::vector<std::unique_ptr<BackendState>> backends_;
  std::unordered_map<std::string, std::size_t> by_id_;

  std::atomic<bool> running_{false};
  std::thread prober_thread_;

  mutable std::mutex stats_mutex_;
  DispatcherStats stats_;
};

}  // namespace decompeval::cluster
