#include "cluster/dispatcher.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <stdexcept>
#include <utility>

#include "service/ops.h"
#include "streaming/engine.h"
#include "util/check.h"

namespace decompeval::cluster {

namespace {

/// Idle pooled connections kept per backend.
constexpr std::size_t kPoolCapacity = 2;
/// Connect tries (10 ms apart) before a forward or replica write gives up.
constexpr int kConnectAttempts = 10;

/// A fresh connection to `endpoint`. The timeout is set before connect so
/// it bounds the handshake too: a partitioned backend that accepts SYNs
/// but never answers costs at most one timeout, not an unbounded blocking
/// connect(2).
std::unique_ptr<service::ServiceClient> connect_to(
    const BackendEndpoint& endpoint, double timeout_ms, int attempts) {
  auto conn = std::make_unique<service::ServiceClient>();
  conn->set_timeout_ms(timeout_ms);
  if (!endpoint.socket_path.empty())
    conn->connect(endpoint.socket_path, attempts);
  else
    conn->connect_tcp(endpoint.host, endpoint.port, attempts);
  return conn;
}

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      faults_(options_.fault_plan),
      // A fault plan disables the response fast lane: a cached answer
      // would skip "cluster.backend"/"cluster.forward" hits and shift
      // their deterministic sequences.
      response_cache_(options_.fault_plan.empty()
                          ? options_.response_cache_capacity
                          : 0) {
  DE_EXPECTS_MSG(!options_.backends.empty(),
                 "Dispatcher needs at least one backend");
  for (const BackendEndpoint& endpoint : options_.backends) {
    DE_EXPECTS_MSG(!endpoint.id.empty(), "backend id must be non-empty");
    DE_EXPECTS_MSG(by_id_.count(endpoint.id) == 0,
                   "duplicate backend id '" + endpoint.id + "'");
    by_id_.emplace(endpoint.id, backends_.size());
    auto state = std::make_unique<BackendState>();
    state->endpoint = endpoint;
    backends_.push_back(std::move(state));
    ring_.add(endpoint.id);
  }
}

std::uint64_t Dispatcher::clock_ms() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Dispatcher::~Dispatcher() { stop(); }

void Dispatcher::start() {
  if (running_.exchange(true)) return;
  if (options_.health_interval_ms > 0)
    prober_thread_ = std::thread([this] { prober_loop(); });
}

void Dispatcher::stop() {
  running_.store(false);
  if (prober_thread_.joinable()) prober_thread_.join();
  for (const auto& backend : backends_) {
    const std::lock_guard<std::mutex> lock(backend->pool_mutex);
    backend->idle.clear();
  }
}

bool Dispatcher::backend_up(const std::string& id) const {
  const auto it = by_id_.find(id);
  return it != by_id_.end() && backends_[it->second]->up.load();
}

DispatcherStats Dispatcher::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Dispatcher::bump(std::uint64_t DispatcherStats::*counter) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++(stats_.*counter);
}

std::unique_ptr<service::ServiceClient> Dispatcher::acquire(
    BackendState& backend) {
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      auto conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      return conn;
    }
  }
  return connect_to(backend.endpoint, options_.forward_timeout_ms,
                    kConnectAttempts);
}

void Dispatcher::release(BackendState& backend,
                         std::unique_ptr<service::ServiceClient> conn) {
  const std::lock_guard<std::mutex> lock(backend.pool_mutex);
  if (backend.idle.size() < kPoolCapacity)
    backend.idle.push_back(std::move(conn));
  // else: drop it; the destructor closes the socket.
}

Dispatcher::Attempt Dispatcher::attempt(const service::Json& request,
                                        const std::vector<std::size_t>& walk,
                                        std::size_t at, bool may_hedge,
                                        service::Json& response) {
  using Clock = std::chrono::steady_clock;
  const auto after_ms = [](Clock::time_point from, double ms) {
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
  };
  // One connection sent the request line; `conn` is null once settled.
  struct Leg {
    std::size_t index = kNone;
    std::unique_ptr<service::ServiceClient> conn;
    Clock::time_point deadline;  ///< send time + forward_timeout_ms
  };
  Leg legs[2];
  std::size_t n_legs = 0;
  Attempt result;
  // Connect, send and the wait for a line leave the front's compute slot
  // to another request.
  const service::BlockingWait wait;

  // Transport failure (connect/send/recv error, timeout) or injected
  // forward fault: the connection may be mid-reply, so it is dropped, and
  // the backend is down until the prober's ping succeeds again.
  const auto fail = [&](Leg& leg) {
    leg.conn.reset();
    backends_[leg.index]->up.store(false);
    bump(&DispatcherStats::failovers);
  };
  const auto launch = [&](std::size_t index) {
    Leg& leg = legs[n_legs++];
    leg.index = index;
    try {
      leg.conn = acquire(*backends_[index]);
      faults_.raise_next("cluster.forward");
      leg.conn->send(request);
      leg.deadline = options_.forward_timeout_ms > 0.0
                         ? after_ms(Clock::now(), options_.forward_timeout_ms)
                         : Clock::time_point::max();
    } catch (const std::exception&) {
      fail(leg);
    }
  };
  // Books a complete reply line; true when it answers the request.
  const auto settle = [&](Leg& leg, service::Json& reply) {
    release(*backends_[leg.index], std::move(leg.conn));
    if (reply.get_string("status", "") == "overloaded") {
      // Alive, just saturated: it stays up and the walk spills to the
      // next ring node.
      bump(&DispatcherStats::overloaded_retries);
      return false;
    }
    bump(&DispatcherStats::forwarded);
    if (leg.index == result.hedged) bump(&DispatcherStats::hedge_wins);
    response = std::move(reply);
    result.served = leg.index;
    return true;
  };

  launch(walk[at]);
  Clock::time_point hedge_at = Clock::time_point::max();
  if (may_hedge && legs[0].conn != nullptr)
    hedge_at = after_ms(Clock::now(), options_.hedge_delay_ms);
  pollfd fds[2];
  Leg* waiting[2];
  while (true) {
    std::size_t n = 0;
    Clock::time_point wake = hedge_at;
    for (std::size_t i = 0; i < n_legs; ++i) {
      if (legs[i].conn == nullptr) continue;
      fds[n] = pollfd{legs[i].conn->fd(), POLLIN, 0};
      waiting[n++] = &legs[i];
      wake = std::min(wake, legs[i].deadline);
    }
    if (n == 0) return result;  // every leg overloaded or failed
    const auto until_wake =
        std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
    const int wait_ms = static_cast<int>(
        std::clamp<std::int64_t>(until_wake.count(), 0, INT_MAX));
    if (::poll(fds, n, wait_ms) < 0) {
      if (errno != EINTR)
        for (std::size_t k = 0; k < n; ++k) fail(*waiting[k]);
      continue;
    }
    for (std::size_t k = 0; k < n; ++k) {
      Leg& leg = *waiting[k];
      if (fds[k].revents == 0) continue;
      try {
        service::Json reply;
        if (!leg.conn->try_receive(reply) || !settle(leg, reply)) continue;
      } catch (const std::exception&) {
        fail(leg);
        continue;
      }
      // First complete line wins. A leg still waiting is the loser: its
      // connection closes unpooled as `legs` goes out of scope, and it
      // books nothing.
      return result;
    }
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < n; ++k)
      if (waiting[k]->conn != nullptr && now >= waiting[k]->deadline)
        fail(*waiting[k]);  // timed out
    if (now < hedge_at) continue;
    // Hedge time. If the primary is still quiet, send the line once more,
    // to the next live walk candidate.
    hedge_at = Clock::time_point::max();
    for (std::size_t j = at + 1; legs[0].conn != nullptr && j < walk.size();
         ++j) {
      if (!backends_[walk[j]]->up.load()) continue;
      bump(&DispatcherStats::hedges);
      result.hedged = walk[j];
      launch(walk[j]);
      break;
    }
  }
}

service::Json Dispatcher::handle(const service::Json& request,
                                 const std::atomic<bool>* cancel) {
  if (request.is_object() &&
      request.get_string("op", "") == "cluster_stats") {
    const DispatcherStats s = stats();
    service::Json r = service::ok_response();
    set_count(r, "forwarded", s.forwarded);
    set_count(r, "failovers", s.failovers);
    set_count(r, "overloaded_retries", s.overloaded_retries);
    set_count(r, "down_skips", s.down_skips);
    set_count(r, "exhausted", s.exhausted);
    set_count(r, "response_cache_hits", s.response_cache_hits);
    set_count(r, "replication_factor", options_.replication_factor);
    set_count(r, "replicated", s.replicated);
    set_count(r, "replication_failures", s.replication_failures);
    set_count(r, "deadline_refusals", s.deadline_refusals);
    set_count(r, "hedges", s.hedges);
    set_count(r, "hedge_wins", s.hedge_wins);
    service::Json nodes = service::Json::array();
    for (const auto& backend : backends_) {
      service::Json node = service::Json::object();
      node.set("id", service::Json::string(backend->endpoint.id));
      node.set("up", service::Json::boolean(backend->up.load()));
      set_count(node, "last_probe_ms",
                backend->last_probe_ms.load(std::memory_order_relaxed));
      nodes.push_back(node);
    }
    r.set("backends", nodes);
    echo_op(r, request);
    return r;
  }
  return forward(request, cancel);
}

void Dispatcher::replicate(const service::Json& request,
                           const service::Json& response,
                           const std::vector<std::size_t>& walk,
                           std::size_t served_index) {
  if (options_.replication_factor < 2) return;
  const service::OpSpec* spec = service::find_op(request);
  const std::string status = response.get_string("status", "");
  if (spec == nullptr || !spec->stream_write ||
      (status != "ok" && status != "degraded"))
    return;
  // Forward the *command*, in the absolute form the primary's answer
  // fixes, so each replica's StreamEngine re-executes it against its own
  // session.
  const service::Json outbound = streaming::StreamEngine::pinned_command(
      service::strip_volatile_fields(request), response);
  // The walk is replicas_for(key, R) extended with the failover tail, so
  // the write set is its first R entries. Synchronous and hedge-free: one
  // run leaves a deterministic set of replicas. The round trips wait
  // outside the front's compute slots, as a forward does.
  const std::size_t r = std::min(options_.replication_factor, walk.size());
  const service::BlockingWait wait;
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t backend_index = walk[i];
    if (backend_index == served_index) continue;
    BackendState& backend = *backends_[backend_index];
    if (!backend.up.load()) {
      // Down replicas are not an error: the serving backend's journal
      // still covers the write.
      bump(&DispatcherStats::replication_failures);
      continue;
    }
    try {
      auto conn = acquire(backend);
      const service::Json reply = conn->call(outbound);
      release(backend, std::move(conn));
      // "degraded" is still an applied write: the replica absorbed what
      // its fault plan let through and stays on the shared seq schedule.
      const std::string applied = reply.get_string("status", "");
      bump(applied == "ok" || applied == "degraded"
               ? &DispatcherStats::replicated
               : &DispatcherStats::replication_failures);
    } catch (const std::exception&) {
      // The connection is gone with `conn`. A slow replica is not a dead
      // one, so `up` stays for forwards and the prober to decide.
      bump(&DispatcherStats::replication_failures);
    }
  }
}

bool Dispatcher::try_serve_cached_line(const service::Json& request,
                                       std::string& out) {
  if (!service::cacheable_request(request) ||
      !response_cache_.find(request, out))
    return false;
  bump(&DispatcherStats::response_cache_hits);
  return true;
}

void Dispatcher::maybe_store_response(const service::Json& request,
                                      const service::Json& response) {
  // One extra render per cold cacheable request — trivial next to the
  // forwarding round-trip it lets every warm repeat skip. Json::dump is
  // deterministic, so the stored line is byte-identical to what the
  // server sends for this response.
  if (service::cacheable_request(request) &&
      response.get_string("status", "") == "ok")
    response_cache_.put(request, response);
}

service::Json Dispatcher::forward(const service::Json& request,
                                  const std::atomic<bool>* cancel) {
  // Routing scratch is thread-local: forward() runs on every server
  // worker concurrently, and the warm path should not allocate.
  thread_local std::string key;
  thread_local std::vector<std::size_t> candidates;
  thread_local std::vector<char> seen;
  thread_local std::vector<char> attempted;
  key.clear();
  // Routing (not caching) uses the baseline-aware key, so incremental
  // annotate requests follow their document's original placement.
  service::routing_key(request, key);
  // Ring indices equal backends_ indices: the constructor add()s ids to
  // the ring in backends_ insertion order.
  ring_.route_into(key, backends_.size(), candidates, seen);
  attempted.assign(backends_.size(), 0);

  const std::uint64_t dispatch_start = clock_ms();
  const double requested_deadline =
      request.is_object() ? request.get_number("deadline_ms", 0.0) : 0.0;
  // Deep copy made only when a deadline must shrink; everything else
  // forwards the caller's object untouched.
  service::Json decremented;
  // Hedges are reads with cacheable (side-effect-free, deterministic)
  // answers; anything else could double-execute work. A dispatcher-level
  // fault plan disables hedging outright — a hedge would consume
  // "cluster.*" hits in a timing-dependent order.
  const bool may_hedge = options_.hedge_delay_ms > 0.0 &&
                         options_.fault_plan.empty() &&
                         backends_.size() >= 2 &&
                         service::cacheable_request(request);

  std::size_t tried = 0;
  for (std::size_t walk = 0; walk < candidates.size(); ++walk) {
    const std::size_t backend_index = candidates[walk];
    if (attempted[backend_index]) continue;  // consumed as a hedge target
    if (cancel != nullptr && cancel->load()) {
      service::Json r = service::failure_response(
          "deadline_exceeded", "request cancelled while dispatching");
      echo_op(r, request);
      return r;
    }
    // Deadline propagation: the backend gets what is left of the caller's
    // budget, not the original figure — and once nothing is left, the
    // refusal happens here, before a connection or a backend slot is
    // burned.
    const service::Json* outbound = &request;
    if (requested_deadline > 0.0) {
      const double elapsed =
          static_cast<double>(clock_ms() - dispatch_start);
      const double remaining = requested_deadline - elapsed;
      if (remaining <= 0.0) {
        bump(&DispatcherStats::deadline_refusals);
        service::Json r = service::failure_response(
            "deadline_exceeded", "deadline budget exhausted while dispatching");
        echo_op(r, request);
        return r;
      }
      decremented = request;
      decremented.set("deadline_ms", service::Json::number(remaining));
      outbound = &decremented;
    }
    BackendState& backend = *backends_[backend_index];
    // Injected outage: indistinguishable from a failed health check. The
    // prober restores the backend once its real ping succeeds.
    if (faults_.fire_next("cluster.backend")) backend.up.store(false);
    if (!backend.up.load()) {
      bump(&DispatcherStats::down_skips);
      continue;
    }
    ++tried;
    attempted[backend_index] = 1;
    // Only the first (non-retry) attempt may hedge: later attempts ARE
    // the retry path already.
    service::Json response;
    const Attempt a =
        attempt(*outbound, candidates, walk, may_hedge && tried == 1, response);
    if (a.hedged != kNone) {
      attempted[a.hedged] = 1;
      ++tried;
    }
    if (a.served == kNone) continue;  // overloaded or failed: walk on
    replicate(request, response, candidates, a.served);
    return response;  // verbatim — bit-identical to a direct call
  }
  bump(&DispatcherStats::exhausted);
  service::Json r = service::failure_response(
      "error", "no backend available (" + std::to_string(tried) + " of " +
                   std::to_string(candidates.size()) + " candidates tried)");
  set_count(r, "attempted", tried);
  echo_op(r, request);
  return r;
}

void Dispatcher::prober_loop() {
  const auto tick = std::chrono::milliseconds(options_.health_interval_ms);
  while (running_.load()) {
    std::this_thread::sleep_for(tick);
    for (const auto& backend : backends_) {
      if (!running_.load()) return;
      if (backend->up.load()) continue;
      backend->last_probe_ms.store(clock_ms(), std::memory_order_relaxed);
      try {
        const auto probe = connect_to(backend->endpoint,
                                      options_.probe_timeout_ms,
                                      /*attempts=*/1);
        service::Json ping = service::Json::object();
        ping.set("op", service::Json::string("ping"));
        if (probe->call(ping).get_string("status", "") == "ok")
          backend->up.store(true);
      } catch (const std::exception&) {
        // Still down; try again next tick.
      }
    }
  }
}

}  // namespace decompeval::cluster
