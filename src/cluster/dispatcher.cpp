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

using Clock = std::chrono::steady_clock;

Clock::time_point after_ms(Clock::time_point from, double ms) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

struct Dispatcher::Leg {
  enum State { kUnsent, kOpen, kAnswered, kFailed, kBooked } state = kUnsent;
  bool copy = false;  ///< a replica write, until the walk takes its answer
  std::unique_ptr<service::ServiceClient> conn;  ///< set while kOpen
  Clock::time_point deadline;  ///< send time + forward_timeout_ms
  service::Json reply;         ///< the answer line, once kAnswered
};

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)), faults_(options_.fault_plan) {
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

void Dispatcher::launch(std::vector<Leg>& legs, std::size_t index,
                        const service::Json& line, bool copy) {
  Leg& leg = legs[index];
  leg.state = Leg::kOpen;
  leg.copy = copy;
  try {
    leg.conn = acquire(*backends_[index]);
    if (!copy) faults_.raise_next("cluster.forward");
    leg.conn->send(line);
    leg.deadline = options_.forward_timeout_ms > 0.0
                       ? after_ms(Clock::now(), options_.forward_timeout_ms)
                       : Clock::time_point::max();
  } catch (const std::exception&) {
    leg.conn.reset();
    leg.state = Leg::kFailed;
  }
}

bool Dispatcher::poll_legs(std::vector<Leg>& legs, Clock::time_point wake) {
  // poll() skips the negative fds of legs that are not open.
  thread_local std::vector<pollfd> fds;
  fds.assign(legs.size(), pollfd{-1, POLLIN, 0});
  bool open = false;
  for (std::size_t i = 0; i < legs.size(); ++i)
    if (legs[i].state == Leg::kOpen) {
      open = true;
      fds[i].fd = legs[i].conn->fd();
      wake = std::min(wake, legs[i].deadline);
    }
  if (!open) return false;
  const auto until_wake =
      std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
  const int ready = ::poll(fds.data(), fds.size(),
                           static_cast<int>(std::clamp<std::int64_t>(
                               until_wake.count(), 0, INT_MAX)));
  if (ready < 0 && errno == EINTR) return true;
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Leg& leg = legs[i];
    if (leg.state != Leg::kOpen) continue;
    try {
      if (ready >= 0 && fds[i].revents != 0 &&
          leg.conn->try_receive(leg.reply)) {
        release(*backends_[i], std::move(leg.conn));
        leg.state = Leg::kAnswered;
        continue;
      }
      if (ready >= 0 && now < leg.deadline) continue;  // still waiting
    } catch (const std::exception&) {
    }
    // A recv error, a failed poll or a timeout: the line may be half read.
    leg.conn.reset();
    leg.state = Leg::kFailed;
  }
  return true;
}

std::size_t Dispatcher::attempt(const service::Json& request,
                                const std::vector<std::size_t>& walk,
                                std::size_t at, bool may_hedge,
                                std::vector<Leg>& legs) {
  const std::size_t primary = walk[at];
  std::size_t hedged = kNone;
  Clock::time_point hedge_at = Clock::time_point::max();
  if (may_hedge && legs[primary].state == Leg::kOpen)
    hedge_at = after_ms(Clock::now(), options_.hedge_delay_ms);
  while (true) {
    bool waiting = false;
    for (const std::size_t index : {primary, hedged}) {
      if (index == kNone || legs[index].state == Leg::kBooked) continue;
      Leg& leg = legs[index];
      if (leg.state == Leg::kOpen) {
        waiting = true;
        continue;
      }
      const bool failed = leg.state == Leg::kFailed;
      leg.state = Leg::kBooked;
      if (failed) {
        // Down (an injected forward fault too) until the prober's ping.
        backends_[index]->up.store(false);
        bump(&DispatcherStats::failovers);
      } else if (leg.reply.get_string("status", "") == "overloaded") {
        // Alive, just saturated: it stays up and the walk spills to the
        // next ring node.
        bump(&DispatcherStats::overloaded_retries);
      } else {
        // First answer wins. A leg still waiting is the loser: its
        // connection closes unpooled with `legs`, and it books nothing.
        bump(&DispatcherStats::forwarded);
        if (index == hedged) bump(&DispatcherStats::hedge_wins);
        return index;
      }
    }
    if (!waiting) return kNone;  // every leg overloaded or failed
    poll_legs(legs, hedge_at);
    if (Clock::now() < hedge_at) continue;
    // Hedge time. If the primary is still quiet, send the line once more,
    // to the next live walk candidate.
    hedge_at = Clock::time_point::max();
    for (std::size_t j = at + 1;
         legs[primary].state == Leg::kOpen && j < walk.size(); ++j) {
      if (!backends_[walk[j]]->up.load()) continue;
      bump(&DispatcherStats::hedges);
      hedged = walk[j];
      launch(legs, walk[j], request, /*copy=*/false);
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
                           std::size_t served, std::vector<Leg>& legs) {
  // "degraded" is still an applied write: the backend absorbed what its
  // fault plan let through and stays on the shared seq schedule.
  const auto applied = [](const service::Json& answer) {
    const std::string status = answer.get_string("status", "");
    return status == "ok" || status == "degraded";
  };
  const auto settle = [&] {
    while (poll_legs(legs, Clock::time_point::max())) {
    }
  };
  // The walk is replicas_for(key, R) extended with the failover tail, so
  // the write set is its first R entries.
  const std::size_t r = std::min(options_.replication_factor, walk.size());
  const bool served_applied = applied(response);
  if (served_applied) {
    // The *command*, in the absolute form the answer fixes, goes to each
    // live write-set node that holds no copy: one no leg reached, or one
    // whose walk attempt was shed as "overloaded" (a failed one is down).
    // A copy carried the request's "upto"; when the answer went past it
    // (the serving backend was ahead), its node gets the pinned one too.
    const service::Json pinned = streaming::StreamEngine::pinned_command(
        service::strip_volatile_fields(request), response);
    const bool ahead = request.get("upto") != nullptr &&
                       response.get_number("emitted", 0.0) !=
                           request.get_number("upto", 0.0);
    if (ahead) settle();
    for (std::size_t i = 0; i < r; ++i)
      if (walk[i] != served && (legs[walk[i]].copy
                                    ? ahead
                                    : backends_[walk[i]]->up.load()))
        launch(legs, walk[i], pinned, /*copy=*/true);
  }
  settle();  // the client's answer waits for every replica leg
  for (std::size_t i = 0; i < r; ++i) {
    // A copy that applied counts whatever the client hears. A node that
    // missed an applied write (down, refused or lost) is not an error for
    // the client (the serving backend's journal covers it), nor a down
    // mark: a slow replica is not a dead one.
    const Leg& leg = legs[walk[i]];
    if (leg.copy && leg.state == Leg::kAnswered && applied(leg.reply))
      bump(&DispatcherStats::replicated);
    else if (served_applied && walk[i] != served)
      bump(&DispatcherStats::replication_failures);
  }
}

service::Json Dispatcher::forward(const service::Json& request,
                                  const std::atomic<bool>* cancel) {
  // Routing and leg scratch is thread-local: forward() runs on every server
  // worker concurrently, and the warm path should not allocate.
  thread_local std::string key;
  thread_local std::vector<std::size_t> candidates;
  thread_local std::vector<char> seen;
  thread_local std::vector<Leg> legs;
  key.clear();
  // Routing (not caching) uses the baseline-aware key, so incremental
  // annotate requests follow their document's original placement.
  service::routing_key(request, key);
  // Ring indices equal backends_ indices: the constructor add()s ids to
  // the ring in backends_ insertion order. One leg slot per backend, so no
  // backend is sent this request twice.
  ring_.route_into(key, backends_.size(), candidates, seen);
  legs.clear();
  legs.resize(backends_.size());

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
  // Only stream writes are replicated, each to its replicas with the first
  // attempt.
  const service::OpSpec* spec =
      options_.replication_factor > 1 ? service::find_op(request) : nullptr;
  const bool replicated = spec != nullptr && spec->stream_write;
  // Connects, sends and waits leave the front's compute slot to others.
  const service::BlockingWait wait;

  service::Json response;  // stays null until an answer or a refusal
  std::size_t served = kNone;
  std::size_t tried = 0;
  for (std::size_t walk = 0; walk < candidates.size() && served == kNone;
       ++walk) {
    const std::size_t backend_index = candidates[walk];
    Leg& leg = legs[backend_index];
    if (leg.state != Leg::kUnsent && !leg.copy) continue;  // hedge target
    if (cancel != nullptr && cancel->load()) {
      response = service::failure_response(
          "deadline_exceeded", "request cancelled while dispatching");
      break;
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
        response = service::failure_response(
            "deadline_exceeded", "deadline budget exhausted while dispatching");
        break;
      }
      decremented = request;
      decremented.set("deadline_ms", service::Json::number(remaining));
      outbound = &decremented;
    }
    // A backend with a replica leg of this write is not sent it again.
    if (leg.state == Leg::kUnsent) {
      BackendState& backend = *backends_[backend_index];
      // Injected outage: indistinguishable from a failed health check. The
      // prober restores the backend once its real ping succeeds.
      if (faults_.fire_next("cluster.backend")) backend.up.store(false);
      if (!backend.up.load()) {
        bump(&DispatcherStats::down_skips);
        continue;
      }
      launch(legs, backend_index, *outbound, /*copy=*/false);
    }
    leg.copy = false;
    ++tried;
    // A copy is the very line the first attempt was sent, so each replica
    // refuses what the primary refuses.
    if (tried == 1 && replicated)
      for (std::size_t i = 0;
           i < std::min(options_.replication_factor, candidates.size()); ++i)
        if (legs[candidates[i]].state == Leg::kUnsent &&
            backends_[candidates[i]]->up.load())
          launch(legs, candidates[i], *outbound, /*copy=*/true);
    // Only the first (non-retry) attempt may hedge: later attempts ARE
    // the retry path already. An overloaded or failed attempt walks on.
    served =
        attempt(*outbound, candidates, walk, may_hedge && tried == 1, legs);
  }
  if (served != kNone) {
    response = std::move(legs[served].reply);  // verbatim, as a direct call
  } else {
    if (response.is_null()) {
      bump(&DispatcherStats::exhausted);
      tried = static_cast<std::size_t>(std::count_if(  // hedges included
          legs.begin(), legs.end(),
          [](const Leg& leg) { return leg.state != Leg::kUnsent; }));
      response = service::failure_response(
          "error", "no backend available (" + std::to_string(tried) + " of " +
                       std::to_string(candidates.size()) +
                       " candidates tried)");
      set_count(response, "attempted", tried);
    }
    echo_op(response, request);
  }
  // Every exit waits here for the replica legs it sent, so each is booked.
  if (replicated) replicate(request, response, candidates, served, legs);
  legs.clear();  // closes a losing hedge's connection unpooled
  return response;
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
