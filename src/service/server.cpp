#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
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
#include <utility>

namespace decompeval::service {

namespace {

// Writes the whole buffer, retrying on short writes/EINTR. Returns false
// when the peer is gone (any other error) — callers just drop the
// connection; the protocol has no half-written recovery. MSG_NOSIGNAL:
// a peer that disconnected mid-request must surface as EPIPE here, not
// as a process-killing SIGPIPE.
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

Json overloaded_response(double retry_after_ms) {
  Json r = failure_response("overloaded", "request queue is full");
  r.set("retry_after_ms", Json::number(retry_after_ms));
  return r;
}

Json shutdown_error_response() {
  return failure_response("error", "server shutting down");
}

// A request line (and therefore the per-connection read buffer) may not
// exceed this; a client streaming bytes without a newline gets a
// bad_request instead of exhausting server memory.
constexpr std::size_t kMaxLineBytes = 4u << 20;

}  // namespace

ReplicationServer::ReplicationServer(ServerOptions options)
    : options_(std::move(options)),
      core_(options_.service),
      net_faults_(options_.fault_plan) {}

OverloadStats ReplicationServer::overload_stats() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return overload_stats_;
}

ReplicationServer::~ReplicationServer() { stop(); }

void ReplicationServer::start() {
  if (running_.load()) return;
  if (options_.socket_path.empty() && options_.tcp_port < 0)
    throw std::runtime_error(
        "ReplicationServer: no listener configured (socket_path empty and "
        "tcp_port disabled)");

  if (!options_.socket_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::runtime_error("ReplicationServer: socket() failed");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof addr.sun_path) {
      ::close(fd);
      throw std::runtime_error("ReplicationServer: socket path too long");
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(options_.socket_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, 16) != 0) {
      ::close(fd);
      throw std::runtime_error("ReplicationServer: cannot bind " +
                               options_.socket_path);
    }
    listen_fd_.store(fd);
  }

  if (options_.tcp_port >= 0) {
    const auto fail = [this](const std::string& what) {
      if (const int ufd = listen_fd_.exchange(-1); ufd >= 0) ::close(ufd);
      if (!options_.socket_path.empty())
        ::unlink(options_.socket_path.c_str());
      throw std::runtime_error("ReplicationServer: " + what);
    };
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("TCP socket() failed");
    // Restarts must not trip over lingering TIME_WAIT sockets from the
    // previous incarnation.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      fail("bad tcp_host " + options_.tcp_host);
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, 16) != 0) {
      ::close(fd);
      fail("cannot bind " + options_.tcp_host + ":" +
           std::to_string(options_.tcp_port));
    }
    // Port 0 asks the kernel for an ephemeral port; read the actual one
    // back so tests and the cluster can address this listener.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      ::close(fd);
      fail("getsockname() failed");
    }
    tcp_listen_fd_.store(fd);
    tcp_port_.store(static_cast<int>(ntohs(bound.sin_port)));
  }

  running_.store(true);
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = false;
  }
  if (listen_fd_.load() >= 0)
    accept_thread_ = std::thread([this] { accept_loop(&listen_fd_); });
  if (tcp_listen_fd_.load() >= 0)
    tcp_accept_thread_ = std::thread([this] { accept_loop(&tcp_listen_fd_); });
  worker_threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < std::max<std::size_t>(options_.workers, 1); ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  if (options_.watchdog_ms > 0)
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  stopper_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
    lock.unlock();
    do_stop();
  });
}

void ReplicationServer::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void ReplicationServer::stop() {
  request_stop();
  const std::lock_guard<std::mutex> lock(stopper_join_mutex_);
  if (stopper_thread_.joinable()) stopper_thread_.join();
}

void ReplicationServer::do_stop() {
  if (!running_.exchange(false)) return;

  // Wake both accept loops, then every blocked reader and worker.
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (const int fd = tcp_listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  tcp_port_.store(-1);
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    // Cancel in-flight AND still-queued work so stop() does not wait out
    // long fits; those requests answer with a structured
    // deadline_exceeded, not silence. (Workers drain the queue before
    // exiting, so queued items are processed — just instantly cancelled.)
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const auto& pending : in_flight_)
      pending->cancel->store(true, std::memory_order_relaxed);
    for (const auto& pending : interactive_queue_)
      pending->cancel->store(true, std::memory_order_relaxed);
    for (const auto& pending : batch_queue_)
      pending->cancel->store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();

  // Unanswered queued requests get a structured shutdown error so no
  // client hangs on a promise that will never be fulfilled.
  const auto fail_queued = [this] {
    std::deque<std::shared_ptr<PendingRequest>> leftovers;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      leftovers.swap(interactive_queue_);
      for (auto& pending : batch_queue_)
        leftovers.push_back(std::move(pending));
      batch_queue_.clear();
    }
    for (const auto& pending : leftovers)
      pending->reply.set_value(shutdown_error_response());
  };

  if (accept_thread_.joinable()) accept_thread_.join();
  if (tcp_accept_thread_.joinable()) tcp_accept_thread_.join();
  for (std::thread& t : worker_threads_)
    if (t.joinable()) t.join();
  worker_threads_.clear();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // Drain BEFORE joining connection threads: a connection blocked in
  // reply.get() on a request the retired workers will never pop must be
  // answered now, or the join below deadlocks. (New enqueues are already
  // impossible — connection_loop re-checks running_ under queue_mutex_.)
  fail_queued();
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (std::thread& t : conn_threads_)
      if (t.joinable()) t.join();
    conn_threads_.clear();
    for (const int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
  }
  fail_queued();  // defensive: nothing can enqueue after the joins

  if (!options_.socket_path.empty())
    ::unlink(options_.socket_path.c_str());
}

void ReplicationServer::accept_loop(std::atomic<int>* listen_fd_slot) {
  while (running_.load()) {
    const int listen_fd = listen_fd_slot->load();
    if (listen_fd < 0) break;  // already closed by do_stop()
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void ReplicationServer::connection_loop(int fd) {
  std::string buffer;
  // Per-connection scratch arena (backs each request's parse tree, rewound
  // after every response) and reusable write buffer: a warm request is
  // served with no heap allocation on this thread.
  util::Arena arena;
  std::string out;
  char chunk[4096];
  while (running_.load()) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() > kMaxLineBytes) {
        const Json r = failure_response("bad_request",
                                        "request line exceeds size limit");
        write_all(fd, r.dump() + "\n");
        break;  // no line framing left to recover; drop the connection
      }
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // peer closed (or stop() shut the socket down)
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string_view line(buffer.data(), newline);
    bool keep = true;
    if (!line.empty()) keep = handle_request_line(fd, line, arena, out);
    // The parse tree is dead (handle_request_line's locals are gone);
    // rewind its memory before the next request.
    arena.reset();
    buffer.erase(0, newline + 1);
    if (!keep) break;
  }
  // This loop no longer reads: signal the peer instead of stranding it.
  // Without this, a client mid-way through an oversized send blocks in
  // write() forever (the fd itself is closed later, by do_stop()).
  ::shutdown(fd, SHUT_RDWR);
}

bool ReplicationServer::write_response(int fd, const std::string& out) {
  if (!net_faults_.plan().empty()) {
    if (net_faults_.fire_next("net.stall")) {
      // The socket goes quiet mid-exchange: nothing is written and the
      // connection stays open, so the client's only exit is its own read
      // timeout — indistinguishable from an arbitrarily slow peer.
      return true;
    }
    if (net_faults_.fire_next("net.partial")) {
      // Short write then stall: the first half of the line, never the
      // newline. The client sees bytes arrive and then silence, so line
      // framing alone cannot tell this from a response still in flight.
      const std::string half = out.substr(0, out.size() / 2);
      write_all(fd, half);
      return true;
    }
  }
  return write_all(fd, out);
}

bool ReplicationServer::handle_request_line(int fd, std::string_view line,
                                            util::Arena& arena,
                                            std::string& out) {
  out.clear();
  // A partitioned server stays reachable — accepts connects, reads
  // request bytes — but never answers anything again. Sticky once the
  // "net.partition" site fires; only client-side timeouts can see it.
  if (!net_faults_.plan().empty()) {
    if (partitioned_.load(std::memory_order_relaxed)) return true;
    if (net_faults_.fire_next("net.partition")) {
      partitioned_.store(true, std::memory_order_relaxed);
      return true;
    }
  }
  Json request{Json::allocator_type(&arena)};
  try {
    request = Json::parse(line, &arena);
  } catch (const JsonError& e) {
    failure_response("bad_request", e.what()).dump_to(out);
    out.push_back('\n');
    return write_response(fd, out);
  }

  // Answered on the connection thread, like "shutdown": an operator
  // probing an overloaded server must not wait behind the very queue
  // being probed.
  if (request.is_object() && request.get_string("op", "") == "server_stats") {
    Json r = ok_response("server_stats");
    set_count(r, "workers", options_.workers);
    set_count(r, "max_queue", options_.max_queue);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      set_count(r, "interactive_queued", interactive_queue_.size());
      set_count(r, "batch_queued", batch_queue_.size());
      set_count(r, "in_flight", in_flight_.size());
      set_count(r, "interactive_enqueued",
                overload_stats_.interactive_enqueued);
      set_count(r, "batch_enqueued", overload_stats_.batch_enqueued);
      set_count(r, "shed_batch", overload_stats_.shed_batch);
      set_count(r, "overloaded_rejected", overload_stats_.overloaded_rejected);
    }
    r.dump_to(out);
    out.push_back('\n');
    return write_response(fd, out);
  }

  if (request.is_object() && request.get_string("op", "") == "shutdown") {
    Json r = ok_response("shutdown");
    r.dump_to(out);
    out.push_back('\n');
    write_response(fd, out);
    // Teardown joins this thread, so only signal the stopper here.
    request_stop();
    return false;
  }

  // Fast path: answered on this thread, skipping the queue and both
  // worker handoffs. Only ever serves rendered cache hits, so it cannot
  // block the connection.
  const bool fast = options_.fast_path
                        ? options_.fast_path(request, out)
                        : (!options_.handler &&
                           core_.try_serve_cached_line(request, out));
  if (fast) {
    out.push_back('\n');
    return write_response(fd, out);
  }

  auto pending = std::make_shared<PendingRequest>();
  // Deep copy onto the heap: the queued request outlives this stack frame
  // (workers, watchdog, shutdown drain all hold it), so it must not point
  // into the connection arena. pmr non-propagation makes plain assignment
  // do exactly that.
  pending->request = request;
  pending->cancel = std::make_shared<std::atomic<bool>>(false);
  pending->started = std::chrono::steady_clock::now();
  std::future<Json> reply = pending->reply.get_future();
  const RequestLane lane = classify_lane(request);
  // Decide under the lock, write outside it: a slow client with a full
  // socket buffer must never stall workers or other connections.
  enum class Admission { kEnqueued, kOverloaded, kShuttingDown };
  Admission admission;
  std::shared_ptr<PendingRequest> shed;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_.load()) {
      // do_stop() may already have drained the queue and retired the
      // workers; enqueuing now would leave this promise unfulfilled
      // forever and deadlock the join in do_stop(). Answer instead.
      admission = Admission::kShuttingDown;
    } else if (interactive_queue_.size() + batch_queue_.size() <
               options_.max_queue) {
      if (lane == RequestLane::kBatch) {
        batch_queue_.push_back(pending);
        ++overload_stats_.batch_enqueued;
      } else {
        interactive_queue_.push_back(pending);
        ++overload_stats_.interactive_enqueued;
      }
      admission = Admission::kEnqueued;
    } else if (lane == RequestLane::kInteractive && !batch_queue_.empty()) {
      // Full queue, interactive arrival: shed the youngest queued batch
      // entry (it loses the least progress — it would have run last) and
      // take its slot. The victim gets a structured overloaded answer
      // below, outside the lock.
      shed = std::move(batch_queue_.back());
      batch_queue_.pop_back();
      interactive_queue_.push_back(pending);
      ++overload_stats_.interactive_enqueued;
      ++overload_stats_.shed_batch;
      admission = Admission::kEnqueued;
    } else {
      // Backpressure: answer now instead of buffering unboundedly.
      ++overload_stats_.overloaded_rejected;
      admission = Admission::kOverloaded;
    }
  }
  if (shed != nullptr) {
    Json r = overloaded_response(options_.retry_after_ms);
    r.set("shed", Json::boolean(true));
    shed->reply.set_value(std::move(r));
  }
  if (admission == Admission::kShuttingDown) {
    write_response(fd, shutdown_error_response().dump() + "\n");
    return false;  // teardown is closing this connection anyway
  }
  if (admission == Admission::kOverloaded) {
    return write_response(
        fd, overloaded_response(options_.retry_after_ms).dump() + "\n");
  }
  queue_cv_.notify_one();
  out.clear();
  reply.get().dump_to(out);
  out.push_back('\n');
  return write_response(fd, out);
}

void ReplicationServer::worker_loop() {
  while (true) {
    std::shared_ptr<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !interactive_queue_.empty() || !batch_queue_.empty() ||
               !running_.load();
      });
      // Interactive lane drains first: queued batch work only runs when
      // no interactive request is waiting.
      std::deque<std::shared_ptr<PendingRequest>>& lane =
          !interactive_queue_.empty() ? interactive_queue_ : batch_queue_;
      if (lane.empty()) {
        if (!running_.load()) return;
        continue;
      }
      pending = std::move(lane.front());
      lane.pop_front();
      in_flight_.push_back(pending);
    }
    Json response = options_.handler
                        ? options_.handler(pending->request,
                                           pending->cancel.get())
                        : core_.handle(pending->request, pending->cancel.get());
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      in_flight_.erase(
          std::remove(in_flight_.begin(), in_flight_.end(), pending),
          in_flight_.end());
    }
    pending->reply.set_value(std::move(response));
  }
}

void ReplicationServer::watchdog_loop() {
  const auto budget = std::chrono::milliseconds(options_.watchdog_ms);
  const auto tick =
      std::chrono::milliseconds(std::max<std::uint64_t>(options_.watchdog_ms / 4, 1));
  while (running_.load()) {
    std::this_thread::sleep_for(tick);
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const auto& pending : in_flight_)
      if (now - pending->started > budget)
        pending->cancel->store(true, std::memory_order_relaxed);
  }
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
