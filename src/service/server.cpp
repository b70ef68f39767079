#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

namespace decompeval::service {

namespace {

// Writes the whole buffer, retrying on short writes/EINTR; false when the
// peer is gone. MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not as a
// process-killing SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Json overloaded_response(const char* why) {
  Json r = failure_response("overloaded", why);
  r.set("retry_after_ms", Json::number(ReplicationServer::kRetryAfterMs));
  return r;
}

// A request line (and therefore the per-connection read buffer) may not
// exceed this; a client streaming bytes without a newline gets a
// bad_request instead of exhausting server memory.
constexpr std::size_t kMaxLineBytes = 4u << 20;

// How long the listeners rest after accept() ran out of fds or memory.
constexpr int kAcceptPauseMs = 50;

// The server whose worker this thread is, while no BlockingWait is open
// on it; null on every other thread.
thread_local ReplicationServer* t_worker_of = nullptr;

// Binds and listens on a fresh non-blocking socket; -1 on failure.
int listen_on(int family, const sockaddr* addr, socklen_t len) {
  const int fd =
      ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Restarts must not trip over lingering TIME_WAIT sockets from the
  // previous incarnation.
  const int one = 1;
  if (family == AF_INET)
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 16) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

ReplicationServer::ReplicationServer(ServerOptions options)
    : options_(std::move(options)),
      core_(options_.service),
      slots_(std::max<std::size_t>(options_.workers, 1)),
      max_threads_(slots_ + options_.max_queue),
      net_faults_(options_.fault_plan) {}

OverloadStats ReplicationServer::overload_stats() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return overload_stats_;
}

ReplicationServer::~ReplicationServer() { stop(); }

void ReplicationServer::start() {
  if (running_.load()) return;
  stop();  // joins a loop a shutdown op ended
  if (options_.socket_path.empty() && options_.tcp_port < 0)
    throw std::runtime_error(
        "ReplicationServer: no listener configured (socket_path empty and "
        "tcp_port disabled)");
  const auto fail = [this](const std::string& what) {
    for (int& fd : listen_fds_)
      if (fd >= 0) ::close(std::exchange(fd, -1));
    tcp_port_.store(-1);
    if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
    throw std::runtime_error("ReplicationServer: " + what);
  };

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof addr.sun_path)
      fail("socket path too long");
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(options_.socket_path.c_str());
    listen_fds_[0] = listen_on(
        AF_UNIX, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (listen_fds_[0] < 0) fail("cannot bind " + options_.socket_path);
  }

  if (options_.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1)
      fail("bad tcp_host " + options_.tcp_host);
    listen_fds_[1] = listen_on(
        AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (listen_fds_[1] < 0)
      fail("cannot bind " + options_.tcp_host + ":" +
           std::to_string(options_.tcp_port));
    // Port 0 asks the kernel for an ephemeral port; read the actual one
    // back so tests and the cluster can address this listener.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(listen_fds_[1], reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0)
      fail("getsockname() failed");
    tcp_port_.store(static_cast<int>(ntohs(bound.sin_port)));
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) fail("eventfd() failed");
  stopping_.store(false);
  running_.store(true);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_exit_ = false;
    for (std::size_t i = 0; i < slots_; ++i) {
      worker_threads_.emplace_back([this] { worker_loop(); });
      ++idle_;
    }
  }
  loop_thread_ = std::thread([this] { loop(); });
}

void ReplicationServer::stop() {
  if (!loop_thread_.joinable()) return;
  stopping_.store(true);
  wake();
  loop_thread_.join();
  ::close(std::exchange(wake_fd_, -1));
}

void ReplicationServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void ReplicationServer::loop() {
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::milliseconds(options_.watchdog_ms);
  // The watchdog's tick, which is never longer than the accept pause.
  const int tick_ms = options_.watchdog_ms > 0
                          ? static_cast<int>(std::clamp<std::uint64_t>(
                                options_.watchdog_ms / 4, 1, kAcceptPauseMs))
                          : -1;
  Clock::time_point accept_resume{};
  std::vector<pollfd> fds;
  std::vector<Job*> done;
  while (!stopping_.load()) {
    // poll() skips negative fds: a resting or disabled listener, and a
    // connection with a request outstanding (a peer that hung up would
    // make poll() report POLLHUP on every turn until the worker is done;
    // its answer, or EPIPE, comes afterwards).
    const bool resting = Clock::now() < accept_resume;
    fds.clear();
    fds.push_back(pollfd{wake_fd_, POLLIN, 0});
    for (const int fd : listen_fds_)
      fds.push_back(pollfd{resting ? -1 : fd, POLLIN, 0});
    for (const auto& conn : connections_) {
      const short events = conn->out.empty() ? POLLIN : POLLOUT;
      fds.push_back(pollfd{conn->job ? -1 : conn->fd, events, 0});
    }
    const int timeout_ms = resting && tick_ms < 0 ? kAcceptPauseMs : tick_ms;
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR)
      break;

    if (fds[0].revents != 0) {
      // Answers the workers handed back, and batch entries admission shed.
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        done.swap(done_);
      }
      for (Job* job : done) {
        Connection& conn = *job->conn;
        respond(conn, job->reply);
        conn.job.reset();
        serve(conn);
      }
      done.clear();
    }
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = *connections_[i];
      if (fds[3 + i].revents == 0) continue;
      if (conn.out.empty()) {
        read_from(conn);
      } else {
        flush(conn);
      }
      serve(conn);
    }
    std::erase_if(connections_, [](const auto& c) { return c->fd < 0; });
    for (std::size_t i = 1; i <= 2; ++i)
      if (fds[i].revents != 0 && !accept_from(fds[i].fd))
        accept_resume =
            Clock::now() + std::chrono::milliseconds(kAcceptPauseMs);
    if (options_.watchdog_ms > 0) {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      for (Job* job : in_flight_)
        if (now - job->started > budget)
          job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  teardown();
}

bool ReplicationServer::accept_from(int listen_fd) {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of fds or memory: the clients wait in the backlog while
      // closing connections give resources back.
      return errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
             errno != ENOMEM;
    }
    if (connections_.size() >= kMaxConnections) {
      // Best effort: one line into an empty socket buffer.
      const std::string line =
          overloaded_response("connection limit reached").dump() + "\n";
      ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    connections_.push_back(std::make_unique<Connection>(fd));
  }
}

void ReplicationServer::read_from(Connection& conn) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof chunk);
    if (n > 0) {
      const std::size_t scanned = conn.in.size();
      conn.in.append(chunk, static_cast<std::size_t>(n));
      // Read no further than the next line: the buffer then holds at most
      // one line plus a chunk, and the kernel's socket buffer pushes back
      // on a client that pipelines faster than it is answered.
      if (conn.in.find('\n', scanned) != std::string::npos ||
          conn.in.size() > kMaxLineBytes)
        return;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.eof = true;  // peer closed (or the socket failed)
    return;
  }
}

void ReplicationServer::serve(Connection& conn) {
  while (conn.fd >= 0 && conn.job == nullptr && conn.out.empty() &&
         !stopping_.load(std::memory_order_relaxed)) {
    const std::size_t newline = conn.in.find('\n');
    if (newline == std::string::npos) {
      if (conn.in.size() > kMaxLineBytes) {
        respond(conn, failure_response("bad_request",
                                       "request line exceeds size limit"));
        // No line framing left to recover; drop the connection.
        if (conn.fd >= 0) ::close(std::exchange(conn.fd, -1));
      } else if (conn.eof) {
        ::close(std::exchange(conn.fd, -1));
      }
      return;
    }
    if (newline > 0)
      handle_line(conn, std::string_view(conn.in.data(), newline));
    conn.in.erase(0, newline + 1);
  }
}

void ReplicationServer::handle_line(Connection& conn, std::string_view line) {
  // A partitioned server stays reachable — accepts connects, reads
  // request bytes — but never answers anything again. Sticky once the
  // "net.partition" site fires; only client-side timeouts can see it.
  if (!net_faults_.plan().empty()) {
    if (partitioned_) return;
    if (net_faults_.fire_next("net.partition")) {
      partitioned_ = true;
      return;
    }
  }
  Json request;
  try {
    request = Json::parse(line);
  } catch (const JsonError& e) {
    respond(conn, failure_response("bad_request", e.what()));
    return;
  }

  // Answered on the loop thread: an operator probing an overloaded server
  // must not wait behind the very queue being probed.
  const std::string op =
      request.is_object() ? request.get_string("op", "") : std::string();
  if (op == "server_stats") {
    respond(conn, server_stats());
    return;
  }
  if (op == "shutdown") {
    respond(conn, ok_response("shutdown"));
    stopping_.store(true);  // the loop tears down as it leaves this turn
    return;
  }

  // Fast path: rendered cache hits skip the queue and both worker
  // handoffs.
  line_.clear();
  const bool fast = options_.fast_path
                        ? options_.fast_path(request, line_)
                        : (!options_.handler &&
                           core_.try_serve_cached_line(request, line_));
  if (fast) {
    line_.push_back('\n');
    respond(conn, line_);
    return;
  }

  const RequestLane lane = classify_lane(request);
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  job->started = std::chrono::steady_clock::now();
  job->conn = &conn;
  bool admitted = true;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stuck_locked() < options_.max_queue) {
      if (lane == RequestLane::kBatch) {
        batch_queue_.push_back(job.get());
        ++overload_stats_.batch_enqueued;
      } else {
        interactive_queue_.push_back(job.get());
        ++overload_stats_.interactive_enqueued;
      }
    } else if (lane == RequestLane::kInteractive && !batch_queue_.empty()) {
      // Full queue, interactive arrival: shed the youngest queued batch
      // entry (it loses the least progress — it would have run last) and
      // take its slot. The victim's answer goes out like a worker's.
      Job* shed = batch_queue_.back();
      batch_queue_.pop_back();
      Json r = overloaded_response("request queue is full");
      r.set("shed", Json::boolean(true));
      shed->reply = r.dump() + "\n";
      done_.push_back(shed);
      interactive_queue_.push_back(job.get());
      ++overload_stats_.interactive_enqueued;
      ++overload_stats_.shed_batch;
      wake();
    } else {
      // Backpressure: answer now instead of buffering unboundedly.
      ++overload_stats_.overloaded_rejected;
      admitted = false;
    }
    if (admitted) staff_locked();
  }
  if (!admitted) {
    respond(conn, overloaded_response("request queue is full"));
    return;
  }
  conn.job = std::move(job);
}

Json ReplicationServer::server_stats() const {
  Json r = ok_response("server_stats");
  set_count(r, "workers", slots_);
  set_count(r, "max_queue", options_.max_queue);
  set_count(r, "connections", connections_.size());
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  set_count(r, "threads", worker_threads_.size());
  set_count(r, "interactive_queued", interactive_queue_.size());
  set_count(r, "batch_queued", batch_queue_.size());
  set_count(r, "in_flight", in_flight_.size());
  set_count(r, "interactive_enqueued", overload_stats_.interactive_enqueued);
  set_count(r, "batch_enqueued", overload_stats_.batch_enqueued);
  set_count(r, "shed_batch", overload_stats_.shed_batch);
  set_count(r, "overloaded_rejected", overload_stats_.overloaded_rejected);
  return r;
}

void ReplicationServer::respond(Connection& conn, const Json& response) {
  line_.clear();
  response.dump_to(line_);
  line_.push_back('\n');
  respond(conn, line_);
}

void ReplicationServer::respond(Connection& conn, std::string_view line) {
  if (!net_faults_.plan().empty()) {
    if (net_faults_.fire_next("net.stall")) return;  // silence, socket open
    if (net_faults_.fire_next("net.partial"))  // half a line, then silence
      line = line.substr(0, line.size() / 2);
  }
  conn.out.append(line);
  flush(conn);
}

void ReplicationServer::flush(Connection& conn) {
  std::size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                             conn.out.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // the loop polls for POLLOUT and comes back
    } else if (errno != EINTR) {
      ::close(std::exchange(conn.fd, -1));  // EPIPE and kin: the peer is gone
      return;
    }
  }
  conn.out.erase(0, sent);
}

std::size_t ReplicationServer::startable_locked() const {
  // Leaving waits take free slots before queued requests do.
  const std::size_t busy = computing_ + resuming_;
  return busy < slots_
             ? std::min(interactive_queue_.size() + batch_queue_.size(),
                        slots_ - busy)
             : 0;
}

std::size_t ReplicationServer::stuck_locked() const {
  const std::size_t queued = interactive_queue_.size() + batch_queue_.size();
  const std::size_t available =
      idle_ + (max_threads_ - worker_threads_.size());
  return queued - std::min(startable_locked(), available);
}

void ReplicationServer::staff_locked() {
  const std::size_t startable = startable_locked();
  if (startable == 0) return;
  if (idle_ > 0) queue_cv_.notify_one();
  if (idle_ >= startable || worker_threads_.size() >= max_threads_) return;
  try {
    worker_threads_.emplace_back([this] { worker_loop(); });
    ++idle_;
  } catch (const std::system_error&) {
    // No thread to spare: the request waits for a worker to come free.
  }
}

void ReplicationServer::enter_wait() {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  --computing_;
  if (resuming_ > 0) slot_cv_.notify_one();
  staff_locked();
}

void ReplicationServer::leave_wait() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  ++resuming_;
  // Teardown lets a cancelled handler finish without waiting for a slot.
  slot_cv_.wait(lock,
                [this] { return workers_exit_ || computing_ < slots_; });
  --resuming_;
  ++computing_;
}

void ReplicationServer::worker_loop() {
  t_worker_of = this;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    queue_cv_.wait(lock,
                   [this] { return workers_exit_ || startable_locked() > 0; });
    --idle_;
    if (workers_exit_) return;
    // Interactive lane drains first: queued batch work only runs when
    // no interactive request is waiting.
    std::deque<Job*>& lane =
        !interactive_queue_.empty() ? interactive_queue_ : batch_queue_;
    Job* job = lane.front();
    lane.pop_front();
    in_flight_.push_back(job);
    ++computing_;
    lock.unlock();
    const Json response =
        options_.handler ? options_.handler(job->request, &job->cancel)
                         : core_.handle(job->request, &job->cancel);
    response.dump_to(job->reply);
    job->reply.push_back('\n');
    lock.lock();
    std::erase(in_flight_, job);
    done_.push_back(job);
    --computing_;
    ++idle_;
    if (resuming_ > 0) slot_cv_.notify_one();
    wake();
  }
}

void ReplicationServer::teardown() {
  running_.store(false);
  for (int& fd : listen_fds_)
    if (fd >= 0) ::close(std::exchange(fd, -1));
  tcp_port_.store(-1);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  std::vector<std::thread> workers;
  {
    // Queued work is dropped and in-flight work cancelled, so stop() does
    // not wait out long fits; their clients see the connection close.
    // With the queue empty no worker starts another.
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_exit_ = true;
    interactive_queue_.clear();
    batch_queue_.clear();
    for (Job* job : in_flight_)
      job->cancel.store(true, std::memory_order_relaxed);
    workers.swap(worker_threads_);
  }
  queue_cv_.notify_all();
  slot_cv_.notify_all();
  for (std::thread& t : workers) t.join();
  done_.clear();
  for (const auto& conn : connections_)
    if (conn->fd >= 0) ::close(conn->fd);
  connections_.clear();
}

BlockingWait::BlockingWait() : server_(std::exchange(t_worker_of, nullptr)) {
  if (server_ != nullptr) server_->enter_wait();
}

BlockingWait::~BlockingWait() {
  if (server_ == nullptr) return;
  server_->leave_wait();
  t_worker_of = server_;
}

// ---------------------------------------------------------------------------

namespace {

// One connect attempt with an optional wall-clock bound. timeout_ms <= 0
// keeps the historical blocking connect (hardened against EINTR: a
// signal-interrupted connect completes asynchronously, so the retry is a
// poll for writability + SO_ERROR, never a second connect(2) — that
// would race the in-flight handshake and return EALREADY). With a
// timeout, the socket goes non-blocking for the handshake and a poll()
// loop bounds it, so a partitioned peer that accepts SYNs but never
// completes cannot wedge the caller; on success the socket is restored
// to blocking mode. Returns true when connected (fd usable), false when
// this attempt failed (caller closes the fd).
bool connect_fd(int fd, const sockaddr* addr, socklen_t addr_len,
                double timeout_ms) {
  const auto settle = [fd](int poll_timeout_ms) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    while (true) {
      const int r = ::poll(&p, 1, poll_timeout_ms);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;  // timeout or poll failure
      int err = 0;
      socklen_t err_len = sizeof err;
      return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) == 0 &&
             err == 0;
    }
  };
  if (timeout_ms <= 0.0) {
    if (::connect(fd, addr, addr_len) == 0) return true;
    if (errno == EINTR) return settle(-1);
    return false;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    return false;
  bool ok = false;
  if (::connect(fd, addr, addr_len) == 0) {
    ok = true;
  } else if (errno == EINPROGRESS || errno == EINTR) {
    const int bound =
        std::max(1, static_cast<int>(timeout_ms + 0.5));
    ok = settle(bound);
  }
  if (ok && ::fcntl(fd, F_SETFL, flags) != 0) ok = false;
  return ok;
}

// Connects a fresh socket to `addr`, retrying `attempts` times at 10 ms
// spacing (covers the window where the server is still binding). Returns
// the connected fd, or -1 when every attempt failed.
int connect_retrying(const sockaddr* addr, socklen_t addr_len, int attempts,
                     double timeout_ms) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("ServiceClient: socket() failed");
    if (connect_fd(fd, addr, addr_len, timeout_ms)) return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

}  // namespace

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::connect(const std::string& socket_path, int attempts) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("ServiceClient: socket path too long");
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  fd_ = connect_retrying(reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
                         attempts, timeout_ms_);
  if (fd_ < 0)
    throw std::runtime_error("ServiceClient: cannot connect to " + socket_path);
  apply_io_timeout();
}

void ServiceClient::connect_tcp(const std::string& host, int port,
                                int attempts) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("ServiceClient: bad host " + host);
  fd_ = connect_retrying(reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
                         attempts, timeout_ms_);
  if (fd_ < 0)
    throw std::runtime_error("ServiceClient: cannot connect to " + host + ":" +
                             std::to_string(port));
  apply_io_timeout();
}

void ServiceClient::set_timeout_ms(double ms) {
  timeout_ms_ = ms;
  apply_io_timeout();
}

void ServiceClient::apply_io_timeout() {
  if (fd_ < 0 || timeout_ms_ <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms_ / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_ms_ - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

Json ServiceClient::call(const Json& request) {
  send(request);
  Json reply;
  while (!try_receive(reply)) {
  }
  return reply;
}

void ServiceClient::send(const Json& request) {
  if (fd_ < 0) throw std::runtime_error("ServiceClient: not connected");
  request_buf_.clear();
  request.dump_to(request_buf_);
  request_buf_.push_back('\n');
  if (!write_all(fd_, request_buf_))
    throw std::runtime_error("ServiceClient: write failed");
}

bool ServiceClient::try_receive(Json& reply) {
  std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) return false;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw std::runtime_error("ServiceClient: read timed out");
    if (n <= 0)
      throw std::runtime_error("ServiceClient: connection closed mid-reply");
    const std::size_t scanned = buffer_.size();
    buffer_.append(chunk, static_cast<std::size_t>(n));
    newline = buffer_.find('\n', scanned);
    if (newline == std::string::npos) return false;
  }
  const std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  reply = Json::parse(line);
  return true;
}

}  // namespace decompeval::service
