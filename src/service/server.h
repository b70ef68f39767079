// Socket front-end for ServiceCore: a Unix-domain listener, a TCP
// listener (loopback-bound by default, SO_REUSEADDR), or both at once —
// same wire protocol on either transport.
//
// Wire protocol: line-delimited JSON. Each request is one JSON object on
// one line; the server answers with exactly one JSON object line per
// request, in order, on the same connection. Malformed JSON gets a
// "bad_request" response, never a dropped connection.
//
// Architecture: at most max(workers, 1) + max_queue + 1 threads, whatever
// the client count.
//   loop thread  — poll()s an eventfd, the listeners and every connection;
//                  accepts, frames lines, answers "server_stats",
//                  "shutdown" and fast-path hits itself, queues the rest,
//                  writes every answer and runs the watchdog. A connection
//                  has at most one request queued or running, so answers
//                  keep their order. DESIGN.md §2 has the state ownership,
//                  the shutdown order, the hang-up rule, the connection
//                  cap and the accept pause
//   fast path    — before queueing, a cacheable request whose "ok" answer
//                  is already in the core's result tier (filled by
//                  ServiceCore::handle) is answered on the loop thread;
//                  off while a service fault plan is armed
//   request queue — bounded, two priority lanes (interactive / batch,
//                   see classify_lane in ops.h). When max_queue requests
//                   already wait that nothing can begin now (see
//                   ServerOptions::max_queue), an arriving batch request
//                   answers immediately with
//                   {"status":"overloaded","retry_after_ms":N}; an
//                   arriving interactive request instead sheds the
//                   youngest queued *batch* entry (which gets the
//                   overloaded answer, plus "shed":true) and takes its
//                   slot, so sustained batch overload never starves the
//                   interactive lane (backpressure, not buffering)
//   workers      — threads popping the queue (interactive lane first),
//                  running the handler (ServiceCore::handle by default; the
//                  cluster dispatcher plugs in a forwarding handler) and
//                  rendering the answer line, handed back to the loop
//                  through the eventfd. At most max(options.workers, 1) of
//                  them compute at once; start() runs that many. A handler
//                  that waits inside a BlockingWait (a forward's round
//                  trip) gives up its compute slot, and the server starts
//                  another worker, up to max(workers, 1) + max_queue, when
//                  no idle one can take the next queued request. Leaving
//                  the wait takes a slot back before any queued request
//                  gets one
//   watchdog     — on the loop's poll tick, flips the cancel flag of any
//                  request in flight longer than watchdog_ms, which trips
//                  the fitters' cooperative checkpoints and surfaces as a
//                  structured "deadline_exceeded" response
//
// Network fault sites (serial-counter, from ServerOptions::fault_plan —
// distinct from the service-level plan in ServiceOptions):
//   "net.stall"     the response line is never written; the connection
//                   stays open, so the client sits in read() until its
//                   own timeout fires
//   "net.partial"   a short write: the first half of the response line
//                   (never the newline), then silence on an open socket
//   "net.partition" sticky once fired: connects keep succeeding but no
//                   request on any connection is ever answered again —
//                   the shape of a network partition, which only a
//                   client-side timeout can detect
//
// {"op":"shutdown"} answers {"status":"ok"} and then stops the server.
// {"op":"server_stats"} answers on the loop thread with the admission
// counters (OverloadStats), live queue depths, the compute slots
// ("workers"), the worker threads running ("threads") and the live
// connection count — readable even when the queue itself is saturated.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "util/fault.h"

namespace decompeval::service {

struct ServerOptions {
  /// Unix-domain listener path (unlinked on start and stop). Empty
  /// disables the Unix listener; at least one listener must be enabled.
  std::string socket_path;
  /// TCP listener port: -1 disables (default), 0 binds an ephemeral port
  /// (read it back with ReplicationServer::tcp_port() — how tests and the
  /// cluster bench avoid port collisions), >0 binds that port. The socket
  /// sets SO_REUSEADDR so restarts do not trip over TIME_WAIT.
  int tcp_port = -1;
  /// TCP bind address. Loopback by default: exposing the service beyond
  /// the machine is an explicit operator decision, never an accident.
  std::string tcp_host = "127.0.0.1";
  /// Requests computing at once (at least 1). A handler waiting inside a
  /// BlockingWait does not count against it.
  std::size_t workers = 2;
  /// Admission bound, shared across both lanes: a request is refused, or
  /// sheds a queued batch entry, only when max_queue requests already
  /// wait that no free compute slot and no available thread can begin
  /// now. An available thread is an idle worker or one the server may
  /// still start under the max(workers, 1) + max_queue thread cap.
  std::size_t max_queue = 8;
  std::uint64_t watchdog_ms = 0;  ///< 0 = watchdog disabled
  ServiceOptions service;
  /// Schedules for the transport-level "net.stall" / "net.partial" /
  /// "net.partition" sites (see the header comment). Separate from
  /// ServiceOptions::fault_plan so network chaos composes with — or runs
  /// without — service-level faults. Empty = no network faults.
  util::FaultPlan fault_plan;
  /// Request handler run by the workers. Default (empty): the server's
  /// own ServiceCore. The cluster dispatcher substitutes its forwarding
  /// logic here, reusing the queue/backpressure/shutdown machinery.
  std::function<Json(const Json&, const std::atomic<bool>*)> handler;
  /// Loop-thread fast path, tried before a request is queued: when it
  /// returns true it must have appended one full response line (no
  /// newline) to the string. It must not block: every connection of the
  /// server waits while it runs. Cache hits answered here skip two thread
  /// handoffs and the queue entirely. Default (empty): the core's result
  /// tier (ServiceCore::try_serve_cached_line) when no custom handler is
  /// set; a custom handler (dispatcher, cluster backend) supplies its own
  /// or none.
  std::function<bool(const Json&, std::string&)> fast_path;
};

/// Monotonic admission counters (guarded by the queue mutex).
struct OverloadStats {
  std::uint64_t interactive_enqueued = 0;
  std::uint64_t batch_enqueued = 0;
  /// Queued batch entries evicted (answered overloaded+"shed":true) so an
  /// arriving interactive request could take their slot.
  std::uint64_t shed_batch = 0;
  /// Requests answered overloaded at admission (queue full, nothing to
  /// shed in the arriving request's favor).
  std::uint64_t overloaded_rejected = 0;
};

class ReplicationServer {
 public:
  /// Hint attached to every "overloaded" answer.
  static constexpr double kRetryAfterMs = 25.0;
  /// Live connections per server; the next client gets one "overloaded"
  /// line and is closed.
  static constexpr std::size_t kMaxConnections = 256;

  explicit ReplicationServer(ServerOptions options);
  ~ReplicationServer();

  ReplicationServer(const ReplicationServer&) = delete;
  ReplicationServer& operator=(const ReplicationServer&) = delete;

  /// Binds, listens, and spawns the loop and worker threads. Throws
  /// std::runtime_error when no listener can be bound.
  void start();
  /// Graceful stop: closes the listeners and every live connection,
  /// cancels in-flight work, joins all threads. Idempotent; call it from
  /// the thread that owns the server, never from a handler.
  void stop();

  bool running() const { return running_.load(); }
  const std::string& socket_path() const { return options_.socket_path; }
  /// Bound TCP port (resolves ephemeral binds); -1 when TCP is disabled
  /// or the server has not started.
  int tcp_port() const { return tcp_port_.load(); }
  ServiceCore& core() { return core_; }
  OverloadStats overload_stats() const;

 private:
  friend class BlockingWait;
  struct Job;
  /// Owned and touched by the loop thread only.
  struct Connection {
    int fd = -1;               ///< -1 once closed (swept by the loop)
    std::string in;            ///< bytes read past the last framed line
    std::string out;           ///< answer bytes the socket did not take yet
    std::unique_ptr<Job> job;  ///< the request queued or running, if any
    bool eof = false;          ///< peer stopped sending
  };
  /// Owned by its connection, which outlives it: the loop neither polls
  /// nor closes a connection until the worker hands its job back.
  struct Job {
    Json request;  ///< parsed once by the loop, moved in
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point started;
    Connection* conn = nullptr;
    std::string reply;  ///< the rendered answer line, set by the worker
  };

  void loop();
  void worker_loop();
  /// Under queue_mutex_: queued requests that free compute slots let
  /// start now (slots a resuming worker waits for are taken).
  std::size_t startable_locked() const;
  /// Under queue_mutex_: queued requests that no free compute slot and no
  /// available thread can begin now; admission bounds this by max_queue.
  std::size_t stuck_locked() const;
  /// Under queue_mutex_: wakes an idle worker for a startable request,
  /// and starts a worker when too few are idle.
  void staff_locked();
  /// BlockingWait's halves, on a worker thread: give the compute slot up,
  /// then wait for one again.
  void enter_wait();
  void leave_wait();
  /// False when accept() ran out of fds or memory.
  bool accept_from(int listen_fd);
  void read_from(Connection& conn);
  /// Handles buffered lines until the connection has a request
  /// outstanding, unsent bytes or no complete line; closes it once the
  /// peer has stopped sending and nothing is left to answer.
  void serve(Connection& conn);
  void handle_line(Connection& conn, std::string_view line);
  /// Writes one answer line through the net.* fault sites.
  void respond(Connection& conn, std::string_view line);
  void respond(Connection& conn, const Json& response);
  /// Sends what the socket takes; closes the connection on a dead peer.
  void flush(Connection& conn);
  Json server_stats() const;
  void wake();  ///< signals the eventfd; safe from any thread
  void teardown();

  ServerOptions options_;
  ServiceCore core_;
  const std::size_t slots_;  ///< max(options_.workers, 1): compute slots
  const std::size_t max_threads_;  ///< slots_ + options_.max_queue

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< set by stop() or "shutdown"
  std::atomic<int> tcp_port_{-1};
  int wake_fd_ = -1;  ///< eventfd; closed by stop() after the join

  // Loop-thread state.
  int listen_fds_[2] = {-1, -1};  ///< Unix-domain, TCP
  std::vector<std::unique_ptr<Connection>> connections_;
  std::string line_;  ///< reusable render buffer for inline answers
  /// Transport-level fault injection (net.* sites). `partitioned_` is the
  /// sticky consequence of "net.partition": once set, every connection
  /// keeps accepting bytes but nothing is ever answered.
  util::FaultInjector net_faults_;
  bool partitioned_ = false;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  /// Two priority lanes under one bound (options_.max_queue on the
  /// requests of both that nothing can begin now).
  /// Workers drain the interactive lane first; admission sheds the
  /// youngest batch entry when a full queue meets an interactive arrival.
  std::deque<Job*> interactive_queue_;
  std::deque<Job*> batch_queue_;
  OverloadStats overload_stats_;  ///< guarded by queue_mutex_
  /// Requests popped by a worker but not yet answered (watchdog scan set).
  std::vector<Job*> in_flight_;
  /// Answered requests waiting for the loop to write them.
  std::vector<Job*> done_;
  bool workers_exit_ = false;
  /// Worker threads by state; a thread inside a BlockingWait is in none.
  std::size_t computing_ = 0;  ///< holding a compute slot
  std::size_t idle_ = 0;       ///< waiting for a request (or starting)
  std::size_t resuming_ = 0;   ///< leaving a BlockingWait, waiting for a slot
  std::condition_variable slot_cv_;  ///< wakes resuming workers
  std::vector<std::thread> worker_threads_;  ///< guarded by queue_mutex_

  std::thread loop_thread_;
};

/// Marks a blocking wait inside a handler: a forward's connect, send and
/// wait for the reply line, say. On a ReplicationServer worker it gives
/// the worker's compute slot up for its lifetime, so a queued request can
/// compute meanwhile (on a worker the server starts if none is idle), and
/// its destructor waits for a free slot again. On any other thread, or
/// nested in another BlockingWait, it does nothing.
class BlockingWait {
 public:
  BlockingWait();
  ~BlockingWait();

  BlockingWait(const BlockingWait&) = delete;
  BlockingWait& operator=(const BlockingWait&) = delete;

 private:
  ReplicationServer* server_;  ///< null: a no-op
};

/// Minimal client for the line protocol: call() is the blocking round
/// trip; its halves, send() and try_receive(), let one thread poll() the
/// fd()s of several connections in flight (the dispatcher's hedged reads).
class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Connects to a Unix-domain socket, retrying `attempts` times at 10 ms
  /// spacing (covers the window where the server is still binding). The
  /// cluster health prober passes attempts=1 for a cheap liveness poke.
  void connect(const std::string& socket_path, int attempts = 100);
  /// Connects to a TCP endpoint (same retry behavior).
  void connect_tcp(const std::string& host, int port, int attempts = 100);
  /// Bounds this connection's I/O. Callable before OR after connect: set
  /// before, it also bounds each connect(2) attempt (non-blocking connect
  /// + poll), so a partitioned peer that accepts SYNs but never answers
  /// cannot wedge the caller; after connect (or on the established
  /// socket) it bounds every send/recv (SO_SNDTIMEO / SO_RCVTIMEO).
  /// 0 disables. After a timeout the connection may hold a half-read
  /// reply — close it, don't reuse it.
  void set_timeout_ms(double ms);
  int fd() const { return fd_; }
  void close();

  /// Sends one request line and blocks for the response line.
  Json call(const Json& request);
  /// Writes one request line (throws when the peer is gone).
  void send(const Json& request);
  /// One read() toward the response line — immediate once poll() reports
  /// fd() readable. True with `reply` filled when the line is complete;
  /// throws on timeout, error, or a peer that closed mid-reply.
  bool try_receive(Json& reply);

 private:
  /// Applies timeout_ms_ to the established socket (SO_RCVTIMEO/SNDTIMEO).
  void apply_io_timeout();

  int fd_ = -1;
  double timeout_ms_ = 0.0;  ///< 0 = unbounded connect and I/O
  std::string buffer_;       ///< bytes read past the last newline
  std::string request_buf_;  ///< reused per-call request render buffer
};

}  // namespace decompeval::service
