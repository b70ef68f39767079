#include "cluster/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <stdexcept>
#include <utility>

#include "service/ops.h"
#include "streaming/engine.h"
#include "util/check.h"

namespace decompeval::cluster {

Dispatcher::Dispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      faults_(options_.fault_plan),
      ring_(options_.virtual_nodes),
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
    state->retry_tokens = options_.retry_budget_initial;
    if (options_.breaker_latency_window > 0)
      state->latency_window.assign(options_.breaker_latency_window, 0.0);
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

std::unique_ptr<service::ServiceClient> Dispatcher::acquire(
    BackendState& backend, int connect_attempts) {
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      auto conn = std::move(backend.idle.back());
      backend.idle.pop_back();
      return conn;
    }
  }
  auto conn = std::make_unique<service::ServiceClient>();
  // Timeout set before connect so it bounds the handshake too: a
  // partitioned backend that accepts SYNs but never answers must cost at
  // most one forward_timeout, not an unbounded blocking connect(2).
  conn->set_timeout_ms(options_.forward_timeout_ms);
  if (!backend.endpoint.socket_path.empty())
    conn->connect(backend.endpoint.socket_path, connect_attempts);
  else
    conn->connect_tcp(backend.endpoint.host, backend.endpoint.port,
                      connect_attempts);
  return conn;
}

void Dispatcher::release(BackendState& backend,
                         std::unique_ptr<service::ServiceClient> conn) {
  const std::lock_guard<std::mutex> lock(backend.pool_mutex);
  if (backend.idle.size() < options_.pool_capacity)
    backend.idle.push_back(std::move(conn));
  // else: drop it; the destructor closes the socket.
}

Dispatcher::Admit Dispatcher::admit_for_attempt(BackendState& backend,
                                                bool is_retry) {
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  if (backend.breaker == BackendState::Breaker::kOpen) {
    if (clock_ms() - backend.breaker_opened_ms < options_.breaker_cooldown_ms)
      return Admit::kBreakerOpen;
    // Cooldown elapsed: half-open. Exactly one probe request is admitted
    // until it reports back.
    backend.breaker = BackendState::Breaker::kHalfOpen;
    backend.half_open_probe_in_flight = false;
  }
  if (backend.breaker == BackendState::Breaker::kHalfOpen &&
      backend.half_open_probe_in_flight)
    return Admit::kBreakerOpen;
  if (is_retry && options_.retry_budget_ratio > 0.0) {
    if (backend.retry_tokens < 1.0) return Admit::kBudgetSpent;
    backend.retry_tokens -= 1.0;
  }
  if (backend.breaker == BackendState::Breaker::kHalfOpen)
    backend.half_open_probe_in_flight = true;
  return Admit::kOk;
}

void Dispatcher::clear_probe_slot(BackendState& backend) {
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  backend.half_open_probe_in_flight = false;
}

void Dispatcher::note_success(BackendState& backend, double latency_ms) {
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    backend.half_open_probe_in_flight = false;
    backend.breaker = BackendState::Breaker::kClosed;
    backend.consecutive_failures = 0;
    backend.transport_failures = 0;
    if (options_.retry_budget_ratio > 0.0)
      backend.retry_tokens =
          std::min(options_.retry_budget_cap,
                   backend.retry_tokens + options_.retry_budget_ratio);
    if (!backend.latency_window.empty()) {
      backend.latency_window[backend.latency_next] = latency_ms;
      backend.latency_next =
          (backend.latency_next + 1) % backend.latency_window.size();
      ++backend.latency_count;
    }
  }
  maybe_eject_slow_peer(backend);
}

void Dispatcher::note_failure(BackendState& backend, bool overload) {
  (void)overload;  // both kinds count identically toward the breaker
  if (options_.breaker_failure_threshold <= 0) {
    clear_probe_slot(backend);
    return;
  }
  bool opened = false;
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    backend.half_open_probe_in_flight = false;
    if (backend.breaker == BackendState::Breaker::kHalfOpen) {
      // The single probe failed: straight back to open, cooldown restarts.
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      opened = true;
    } else if (backend.breaker == BackendState::Breaker::kClosed &&
               ++backend.consecutive_failures >=
                   options_.breaker_failure_threshold) {
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      backend.consecutive_failures = 0;
      opened = true;
    }
  }
  if (opened) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.breaker_opens;
  }
}

void Dispatcher::note_transport_failure(BackendState& backend) {
  bool mark_down = true;
  if (options_.down_after_failures > 1) {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    mark_down =
        ++backend.transport_failures >= options_.down_after_failures;
    if (mark_down) backend.transport_failures = 0;
  }
  if (mark_down) backend.up.store(false);
}

void Dispatcher::maybe_eject_slow_peer(BackendState& backend) {
  if (options_.breaker_latency_window == 0 ||
      options_.breaker_failure_threshold <= 0 || backends_.size() < 2)
    return;
  // Copy the windows out one lock at a time; the math runs lock-free.
  const auto window_samples = [this](BackendState& b,
                                     std::vector<double>& out) {
    const std::lock_guard<std::mutex> lock(b.robust_mutex);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(b.latency_count, b.latency_window.size()));
    out.assign(b.latency_window.begin(),
               b.latency_window.begin() + static_cast<std::ptrdiff_t>(n));
  };
  const auto percentile = [](std::vector<double>& v, double p) {
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
  };
  std::vector<double> self;
  window_samples(backend, self);
  if (self.size() < options_.breaker_min_latency_samples) return;
  const double self_p95 = percentile(self, 0.95);
  std::vector<double> peer_medians;
  std::vector<double> scratch;
  for (const auto& other : backends_) {
    if (other.get() == &backend) continue;
    window_samples(*other, scratch);
    if (scratch.size() < options_.breaker_min_latency_samples) continue;
    peer_medians.push_back(percentile(scratch, 0.5));
  }
  if (peer_medians.empty()) return;
  const double peer_median = percentile(peer_medians, 0.5);
  // The 0.1 ms floor keeps sub-millisecond local peers from flagging
  // every microsecond of jitter as an outlier.
  if (self_p95 <=
      options_.breaker_latency_outlier_factor * std::max(peer_median, 0.1))
    return;
  bool ejected = false;
  {
    const std::lock_guard<std::mutex> lock(backend.robust_mutex);
    if (backend.breaker == BackendState::Breaker::kClosed) {
      backend.breaker = BackendState::Breaker::kOpen;
      backend.breaker_opened_ms = clock_ms();
      backend.consecutive_failures = 0;
      ejected = true;
    }
  }
  if (ejected) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.breaker_opens;
    ++stats_.slow_peer_ejections;
  }
}

double Dispatcher::hedge_delay_for(BackendState& backend) const {
  double delay = options_.hedge_delay_ms;
  if (options_.breaker_latency_window == 0) return delay;
  const std::lock_guard<std::mutex> lock(backend.robust_mutex);
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
      backend.latency_count, backend.latency_window.size()));
  if (n < options_.breaker_min_latency_samples) return delay;
  std::vector<double> v(backend.latency_window.begin(),
                        backend.latency_window.begin() +
                            static_cast<std::ptrdiff_t>(n));
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      options_.hedge_quantile * static_cast<double>(n - 1) + 0.5);
  // Quantile-adaptive, but never hedge sooner than the configured floor:
  // a warmed-up fast backend would otherwise hedge every request.
  return std::max(delay, v[std::min(i, n - 1)]);
}

Dispatcher::AttemptResult Dispatcher::attempt_backend(
    BackendState& backend, const service::Json& request,
    service::Json& response, HedgeContext* hedge) {
  const std::uint64_t attempt_start = clock_ms();
  std::unique_ptr<service::ServiceClient> conn;
  try {
    conn = acquire(backend, /*connect_attempts=*/10);
    if (hedge != nullptr) {
      const std::lock_guard<std::mutex> lock(*hedge->mutex);
      if (hedge->cancelled->load(std::memory_order_relaxed)) {
        clear_probe_slot(backend);
        release(backend, std::move(conn));
        return AttemptResult::kCancelled;
      }
      *hedge->conn_slot = conn.get();
    }
    faults_.raise_next("cluster.forward");
    service::Json reply = conn->call(request);
    if (hedge != nullptr) {
      const std::lock_guard<std::mutex> lock(*hedge->mutex);
      *hedge->conn_slot = nullptr;
      if (hedge->cancelled->load(std::memory_order_relaxed)) {
        // The winner was decided between our call returning and this
        // lock: our socket may already be half-closed, so the connection
        // is dropped (never pooled) and the reply discarded unrecorded.
        clear_probe_slot(backend);
        return AttemptResult::kCancelled;
      }
    }
    if (reply.get_string("status", "") == "overloaded") {
      // The backend is alive, just saturated: keep it up, put the
      // connection back, and spill to the next ring node. Saturation
      // still counts toward the breaker — a persistently overloaded
      // backend should stop receiving attempts for a cooldown.
      release(backend, std::move(conn));
      note_failure(backend, /*overload=*/true);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.overloaded_retries;
      return AttemptResult::kOverloaded;
    }
    release(backend, std::move(conn));
    note_success(backend,
                 static_cast<double>(clock_ms() - attempt_start));
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.forwarded;
    }
    response = std::move(reply);
    return AttemptResult::kResponse;
  } catch (const std::exception&) {
    // Transport failure (connect/send/recv error, timeout) or injected
    // forward fault: the connection may be mid-reply, so it is dropped.
    if (hedge != nullptr) {
      bool cancelled;
      {
        const std::lock_guard<std::mutex> lock(*hedge->mutex);
        *hedge->conn_slot = nullptr;
        cancelled = hedge->cancelled->load(std::memory_order_relaxed);
      }
      if (cancelled) {
        // The other side won and shut this connection down; that is a
        // cancel, not a backend failure — no down-marking, no breaker
        // penalty, no failover counted.
        clear_probe_slot(backend);
        return AttemptResult::kCancelled;
      }
    }
    note_failure(backend, /*overload=*/false);
    note_transport_failure(backend);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failovers;
    return AttemptResult::kFailed;
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
    set_count(r, "retries_suppressed", s.retries_suppressed);
    set_count(r, "breaker_skips", s.breaker_skips);
    set_count(r, "breaker_opens", s.breaker_opens);
    set_count(r, "slow_peer_ejections", s.slow_peer_ejections);
    set_count(r, "hedges", s.hedges);
    set_count(r, "hedge_wins", s.hedge_wins);
    service::Json nodes = service::Json::array();
    for (const auto& backend : backends_) {
      service::Json node = service::Json::object();
      node.set("id", service::Json::string(backend->endpoint.id));
      node.set("up", service::Json::boolean(backend->up.load()));
      {
        const std::lock_guard<std::mutex> state_lock(backend->robust_mutex);
        const char* breaker = "closed";
        if (backend->breaker == BackendState::Breaker::kOpen)
          breaker = "open";
        else if (backend->breaker == BackendState::Breaker::kHalfOpen)
          breaker = "half_open";
        node.set("breaker", service::Json::string(breaker));
        node.set("retry_tokens",
                 service::Json::number(backend->retry_tokens));
      }
      set_count(node, "last_probe_ms",
                backend->last_probe_ms.load(std::memory_order_relaxed));
      nodes.push_back(node);
    }
    r.set("backends", nodes);
    echo_op(r, request);
    return r;
  }
  service::Json response = forward(request, cancel);
  return response;
}

void Dispatcher::replicate(const service::Json& request,
                           const service::Json& response,
                           const std::vector<std::size_t>& walk,
                           std::size_t served_index) {
  if (options_.replication_factor < 2) return;
  const service::OpSpec* spec = service::find_op(request);
  const std::string status = response.get_string("status", "");
  const bool install = status == "ok" && service::cacheable_request(request);
  service::Json outbound;
  if (install) {
    // The durable command form (volatile fields stripped) ships with the
    // result: replicas journal nothing for installs — the disk write IS
    // the durability — but need the canonical key for the cache envelope.
    outbound = service::Json::object();
    outbound.set("op", service::Json::string("cache_install"));
    outbound.set("request", service::strip_volatile_fields(request));
    outbound.set("response", response);
  } else if (spec != nullptr && spec->stream_write &&
             (status == "ok" || status == "degraded")) {
    // Forward the *command*, in the absolute form the primary's answer
    // fixes, so each replica's StreamEngine re-executes it against its
    // own session.
    outbound = streaming::StreamEngine::pinned_command(
        service::strip_volatile_fields(request), response);
  } else {
    return;
  }
  // The walk is replicas_for(key, R) extended with the failover tail, so
  // the write set is its first R entries. Synchronous and hedge-free: one
  // run leaves a deterministic set of warm replicas.
  const std::size_t r = std::min(options_.replication_factor, walk.size());
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t backend_index = walk[i];
    if (backend_index == served_index) continue;
    BackendState& backend = *backends_[backend_index];
    if (!backend.up.load()) {
      // Down replicas are not an error: the serving backend's journal
      // (and disk cache) still covers the write, and the restarted
      // replica re-warms from there.
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
      continue;
    }
    try {
      auto conn = acquire(backend, /*connect_attempts=*/10);
      const service::Json reply = conn->call(outbound);
      release(backend, std::move(conn));
      // An install lands once the replica stored it. A stream command
      // "degraded" is still an applied write: the replica absorbed what
      // its fault plan let through and stays on the shared seq schedule.
      const std::string applied = reply.get_string("status", "");
      const bool landed =
          install ? applied == "ok" && reply.get_bool("stored", false)
                  : applied == "ok" || applied == "degraded";
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      if (landed)
        ++stats_.replicated;
      else
        ++stats_.replication_failures;
    } catch (const std::exception&) {
      backend.up.store(false);
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.replication_failures;
    }
  }
}

bool Dispatcher::try_serve_cached_line(const service::Json& request,
                                       std::string& out) {
  if (!service::cacheable_request(request) ||
      !response_cache_.find(request, out))
    return false;
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.response_cache_hits;
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
    // budget, not the original figure — and when what is left is not
    // worth a forward, the refusal happens here, before a connection or a
    // backend slot is burned.
    const service::Json* outbound = &request;
    if (requested_deadline > 0.0) {
      const double elapsed =
          static_cast<double>(clock_ms() - dispatch_start);
      const double remaining = requested_deadline - elapsed;
      if (remaining <= std::max(options_.deadline_floor_ms, 0.0)) {
        {
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.deadline_refusals;
        }
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
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.down_skips;
      continue;
    }
    switch (admit_for_attempt(backend, /*is_retry=*/tried >= 1)) {
      case Admit::kBreakerOpen: {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.breaker_skips;
        continue;
      }
      case Admit::kBudgetSpent: {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.retries_suppressed;
        continue;
      }
      case Admit::kOk:
        break;
    }
    ++tried;
    attempted[backend_index] = 1;

    // --- hedged attempt: primary on a thread, second replica fired after
    // the primary has been quiet for the hedge delay, first answer wins.
    // Only on the first (non-retry) attempt — later attempts ARE the
    // retry path already.
    if (may_hedge && tried == 1) {
      // Pick the hedge target now: the next live ring candidate. Its
      // admission happens here too (never spending retry tokens — a
      // hedge is latency cover, not a retry).
      std::size_t hedge_index = backends_.size();
      for (std::size_t j = walk + 1; j < candidates.size(); ++j) {
        BackendState& other = *backends_[candidates[j]];
        if (!other.up.load()) continue;
        if (admit_for_attempt(other, /*is_retry=*/false) != Admit::kOk)
          continue;
        hedge_index = candidates[j];
        break;
      }
      if (hedge_index < backends_.size()) {
        struct HedgeShared {
          std::mutex mutex;
          std::condition_variable cv;
          bool primary_done = false;
          bool secondary_done = false;
          AttemptResult primary_result = AttemptResult::kFailed;
          AttemptResult secondary_result = AttemptResult::kFailed;
          service::Json primary_response;
          service::Json secondary_response;
          service::ServiceClient* primary_conn = nullptr;
          service::ServiceClient* secondary_conn = nullptr;
          std::atomic<bool> cancel_primary{false};
          std::atomic<bool> cancel_secondary{false};
        } shared;
        BackendState& hedge_backend = *backends_[hedge_index];
        HedgeContext primary_ctx{&shared.mutex, &shared.primary_conn,
                                 &shared.cancel_primary};
        HedgeContext secondary_ctx{&shared.mutex, &shared.secondary_conn,
                                   &shared.cancel_secondary};
        std::thread primary([&] {
          service::Json resp;
          const AttemptResult r =
              attempt_backend(backend, *outbound, resp, &primary_ctx);
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.primary_result = r;
          shared.primary_response = std::move(resp);
          shared.primary_done = true;
          shared.cv.notify_all();
        });
        std::thread secondary;
        bool launched_secondary = false;
        {
          std::unique_lock<std::mutex> lock(shared.mutex);
          const double delay = hedge_delay_for(backend);
          shared.cv.wait_for(
              lock,
              std::chrono::microseconds(
                  static_cast<std::int64_t>(delay * 1000.0)),
              [&] { return shared.primary_done; });
          if (!shared.primary_done) {
            launched_secondary = true;
            secondary = std::thread([&] {
              service::Json resp;
              const AttemptResult r = attempt_backend(
                  hedge_backend, *outbound, resp, &secondary_ctx);
              const std::lock_guard<std::mutex> inner(shared.mutex);
              shared.secondary_result = r;
              shared.secondary_response = std::move(resp);
              shared.secondary_done = true;
              shared.cv.notify_all();
            });
            attempted[hedge_index] = 1;
            {
              const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
              ++stats_.hedges;
            }
          }
          // Wait for a winner (any kResponse) or for both sides to end.
          shared.cv.wait(lock, [&] {
            const bool secondary_settled =
                !launched_secondary || shared.secondary_done;
            if (shared.primary_done &&
                shared.primary_result == AttemptResult::kResponse)
              return true;
            if (launched_secondary && shared.secondary_done &&
                shared.secondary_result == AttemptResult::kResponse)
              return true;
            return shared.primary_done && secondary_settled;
          });
          // Decide and cancel the loser while still holding the mutex,
          // so the loser either sees its cancel flag before publishing a
          // connection or we see the published connection to shut down.
          const bool primary_won =
              shared.primary_done &&
              shared.primary_result == AttemptResult::kResponse;
          const bool secondary_won =
              !primary_won && launched_secondary && shared.secondary_done &&
              shared.secondary_result == AttemptResult::kResponse;
          if (primary_won && launched_secondary && !shared.secondary_done) {
            shared.cancel_secondary.store(true, std::memory_order_relaxed);
            if (shared.secondary_conn != nullptr)
              shared.secondary_conn->shutdown_now();
          }
          if (secondary_won && !shared.primary_done) {
            shared.cancel_primary.store(true, std::memory_order_relaxed);
            if (shared.primary_conn != nullptr)
              shared.primary_conn->shutdown_now();
          }
        }
        // Both joins are prompt: the winner's thread already finished and
        // the loser's blocked read was broken by shutdown_now above.
        primary.join();
        if (secondary.joinable()) secondary.join();
        if (!launched_secondary) clear_probe_slot(hedge_backend);

        service::Json* winner = nullptr;
        std::size_t winner_index = backend_index;
        if (shared.primary_result == AttemptResult::kResponse) {
          winner = &shared.primary_response;
        } else if (launched_secondary &&
                   shared.secondary_result == AttemptResult::kResponse) {
          winner = &shared.secondary_response;
          winner_index = hedge_index;
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.hedge_wins;
        }
        if (winner != nullptr) {
          replicate(request, *winner, candidates, winner_index);
          return std::move(*winner);
        }
        // Both sides overloaded/failed: per-attempt stats were recorded
        // inside attempt_backend; keep walking the ring past both.
        if (launched_secondary) ++tried;
        continue;
      }
      // No admissible hedge target: fall through to the inline attempt.
    }

    service::Json response;
    switch (attempt_backend(backend, *outbound, response, nullptr)) {
      case AttemptResult::kResponse:
        replicate(request, response, candidates, backend_index);
        return response;  // verbatim — bit-identical to a direct call
      case AttemptResult::kOverloaded:
      case AttemptResult::kFailed:
      case AttemptResult::kCancelled:  // unreachable without a hedge ctx
        continue;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.exhausted;
  }
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
        service::ServiceClient probe;
        // Set before connect: the probe must cost at most probe_timeout_ms
        // even against a partitioned peer that accepts but never answers.
        probe.set_timeout_ms(options_.probe_timeout_ms);
        if (!backend->endpoint.socket_path.empty())
          probe.connect(backend->endpoint.socket_path, /*attempts=*/1);
        else
          probe.connect_tcp(backend->endpoint.host, backend->endpoint.port,
                            /*attempts=*/1);
        service::Json ping = service::Json::object();
        ping.set("op", service::Json::string("ping"));
        if (probe.call(ping).get_string("status", "") == "ok") {
          {
            const std::lock_guard<std::mutex> lock(backend->robust_mutex);
            backend->transport_failures = 0;
          }
          backend->up.store(true);
        }
      } catch (const std::exception&) {
        // Still down; try again next tick.
      }
    }
  }
}

}  // namespace decompeval::cluster
