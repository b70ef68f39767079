// Service-layer tests: the JSON wire format, ServiceCore request handling
// (statuses, retries, caching, deadlines), and the Unix-domain-socket
// server round trip including watchdog cancellation, backpressure, and the
// event loop's bounds: threads and fds that do not grow with clients, fd
// exhaustion, the connection cap, pipelining, and hung-up clients. The
// worker pool: waits inside a BlockingWait overlap on one compute slot,
// handlers without it never outnumber the workers, a burst that free
// threads can start is admitted, the thread cap and stop() with workers
// blocked in waits.
#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/replication.h"
#include "service/json.h"
#include "service/line_cache.h"
#include "service/server.h"
#include "service/service.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using service::Json;
using service::ReplicationServer;
using service::ServerOptions;
using service::ServiceClient;
using service::ServiceCore;
using service::ServiceOptions;

std::string unique_socket_path(const char* tag) {
  // Short (sun_path is ~108 bytes) and unique per test process.
  return "/tmp/decompeval-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

Json make_request(const char* op) {
  Json r = Json::object();
  r.set("op", Json::string(op));
  return r;
}

// -- JSON ------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("s", Json::string("line\n\"quoted\"\\"));
  obj.set("n", Json::number(68));
  obj.set("pi", Json::number(3.141592653589793));
  obj.set("t", Json::boolean(true));
  obj.set("z", Json());
  Json arr = Json::array();
  arr.push_back(Json::number(1));
  arr.push_back(Json::string("two"));
  obj.set("a", arr);

  const std::string text = obj.dump();
  EXPECT_EQ(text.find('\n'), std::string::npos);  // single line, always
  const Json back = Json::parse(text);
  EXPECT_EQ(back.get_string("s", ""), "line\n\"quoted\"\\");
  EXPECT_EQ(back.get_number("n", 0), 68);
  EXPECT_EQ(back.get_number("pi", 0), 3.141592653589793);
  EXPECT_TRUE(back.get_bool("t", false));
  EXPECT_TRUE(back.get("z")->is_null());
  EXPECT_EQ(back.get("a")->items().size(), 2u);
  // dump is deterministic: re-dumping the parse is byte-identical.
  EXPECT_EQ(back.dump(), text);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), service::JsonError);
  EXPECT_THROW(Json::parse("{"), service::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), service::JsonError);
  EXPECT_THROW(Json::parse("[1,2,]"), service::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), service::JsonError);
  EXPECT_THROW(Json::parse("1.5 garbage"), service::JsonError);
  EXPECT_THROW(Json::parse("nul"), service::JsonError);
}

TEST(Json, DeepNestingIsRejectedNotAStackOverflow) {
  // An unterminated bracket flood must surface as JsonError (→ the
  // server's bad_request path), never recurse to a stack overflow.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), service::JsonError);
  // A well-formed but absurdly deep document fails the same way.
  EXPECT_THROW(Json::parse(std::string(1000, '[') + std::string(1000, ']')),
               service::JsonError);
  // Moderate nesting (well under the cap) still parses.
  EXPECT_NO_THROW(
      Json::parse(std::string(100, '[') + std::string(100, ']')));
}

TEST(Json, ObjectSetReplacesInPlace) {
  Json obj = Json::object();
  obj.set("k", Json::number(1));
  obj.set("other", Json::number(2));
  obj.set("k", Json::number(3));
  EXPECT_EQ(obj.get_number("k", 0), 3);
  EXPECT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "k");  // order preserved on replace
}

// -- ServiceCore -----------------------------------------------------------

TEST(ServiceCore, PingAndStats) {
  ServiceCore core;
  const Json pong = core.handle(make_request("ping"));
  EXPECT_EQ(pong.get_string("status", ""), "ok");
  EXPECT_EQ(pong.get_string("op", ""), "ping");
  EXPECT_EQ(pong.get_string("version", ""), core::version());

  const Json stats = core.handle(make_request("stats"));
  EXPECT_EQ(stats.get_string("status", ""), "ok");
  EXPECT_EQ(stats.get_number("requests", 0), 2);  // ping + this stats call
  EXPECT_EQ(stats.get_number("ok", 0), 1);        // the ping
}

TEST(ServiceCore, RejectsMalformedRequests) {
  ServiceCore core;
  EXPECT_EQ(core.handle(Json::number(5)).get_string("status", ""),
            "bad_request");
  EXPECT_EQ(core.handle(Json::object()).get_string("status", ""),
            "bad_request");
  const Json unknown = core.handle(make_request("fly_to_the_moon"));
  EXPECT_EQ(unknown.get_string("status", ""), "bad_request");
  EXPECT_NE(unknown.get_string("error", "").find("fly_to_the_moon"),
            std::string::npos);
}

TEST(ServiceCore, RunStudyIsBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> digests;
  for (const double threads : {1.0, 2.0, 4.0}) {
    ServiceCore core;  // fresh core: no cache crossover between counts
    Json req = make_request("run_study");
    req.set("seed", Json::number(7));
    req.set("threads", Json::number(threads));
    const Json r = core.handle(req);
    ASSERT_EQ(r.get_string("status", ""), "ok");
    digests.push_back(r.get_string("digest", ""));
    EXPECT_GT(r.get_number("responses", 0), 0);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(ServiceCore, CachesOkResultsPerSeed) {
  ServiceCore core;
  Json req = make_request("run_study");
  req.set("seed", Json::number(11));
  const Json first = core.handle(req);
  const Json second = core.handle(req);
  EXPECT_EQ(first.get_string("digest", ""), second.get_string("digest", ""));
  EXPECT_EQ(core.stats().cache_hits, 1u);

  // A different seed is a different cache line.
  req.set("seed", Json::number(12));
  const Json third = core.handle(req);
  EXPECT_EQ(core.stats().cache_hits, 1u);
  EXPECT_NE(third.get_string("digest", ""), first.get_string("digest", ""));
}

TEST(ServiceCore, DegradedStudyCarriesNotesAndIsNeverCached) {
  ServiceOptions options;
  options.fault_plan.set("study.shard", util::FaultSpec::once(2));
  ServiceCore core(options);
  Json req = make_request("run_study");
  req.set("seed", Json::number(7));
  const Json r = core.handle(req);
  EXPECT_EQ(r.get_string("status", ""), "degraded");
  ASSERT_NE(r.get("notes"), nullptr);
  ASSERT_EQ(r.get("failed_shards")->items().size(), 1u);
  EXPECT_NE(r.get("notes")->items()[0].as_string().find("shard dropped"),
            std::string::npos);

  // Degraded results must be recomputed, never served from cache.
  core.handle(req);
  EXPECT_EQ(core.stats().cache_hits, 0u);
  EXPECT_EQ(core.stats().degraded, 2u);
}

TEST(ServiceCore, TransientRequestFaultIsRetriedToSuccess) {
  ServiceOptions options;
  // every_nth(2) fires hits 1, 3, 5... Request 1 uses hit 0 (clean);
  // request 2 faults on hit 1 and succeeds on the hit-2 retry.
  options.fault_plan.set("service.request", util::FaultSpec::every_nth(2));
  options.backoff_initial_ms = 0.0;
  ServiceCore core(options);
  Json req = make_request("run_study");
  req.set("no_cache", Json::boolean(true));
  EXPECT_EQ(core.handle(req).get_string("status", ""), "ok");
  EXPECT_EQ(core.stats().retries, 0u);
  EXPECT_EQ(core.handle(req).get_string("status", ""), "ok");
  EXPECT_EQ(core.stats().retries, 1u);
}

TEST(ServiceCore, RetryBudgetExhaustionIsAStructuredError) {
  ServiceOptions options;
  options.fault_plan.set("service.request", util::FaultSpec::always());
  options.backoff_initial_ms = 0.0;
  ServiceCore core(options);
  const Json r = core.handle(make_request("run_study"));
  EXPECT_EQ(r.get_string("status", ""), "error");
  EXPECT_EQ(r.get_number("attempts", 0), 3);
  EXPECT_NE(r.get_string("error", "").find("retry budget exhausted"),
            std::string::npos);
  EXPECT_EQ(core.stats().retries, 2u);
  // The core is still healthy for fault-free ops.
  EXPECT_EQ(core.handle(make_request("ping")).get_string("status", ""), "ok");
}

// -- deadlines -------------------------------------------------------------

TEST(Deadlines, ExpiredDeadlineRejectsWithoutTouchingModelState) {
  // An already-expired deadline must be a pure rejection: run_replication
  // throws at the entry checkpoint before any pipeline stage runs.
  core::ReplicationConfig config;
  config.deadline = util::Deadline::after(std::chrono::nanoseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_THROW(core::run_replication(config), util::DeadlineExceeded);
}

TEST(Deadlines, MillisecondServiceDeadlineIsAStructuredTimeout) {
  ServiceCore core;
  Json req = make_request("run_replication");
  req.set("deadline_ms", Json::number(1));
  req.set("seed", Json::number(7));
  const Json r = core.handle(req);
  EXPECT_EQ(r.get_string("status", ""), "deadline_exceeded");
  EXPECT_EQ(r.get("digest"), nullptr);  // no partial payload
  // The core stays healthy afterwards.
  EXPECT_EQ(core.handle(make_request("ping")).get_string("status", ""), "ok");
  EXPECT_EQ(core.stats().deadline_exceeded, 1u);
}

// -- UDS server ------------------------------------------------------------

TEST(ReplicationServerTest, RoundTripsRequestsOverTheSocket) {
  ServerOptions options;
  options.socket_path = unique_socket_path("rt");
  ReplicationServer server(options);
  server.start();

  ServiceClient client;
  client.connect(server.socket_path());
  const Json pong = client.call(make_request("ping"));
  EXPECT_EQ(pong.get_string("status", ""), "ok");

  Json req = make_request("run_study");
  req.set("seed", Json::number(7));
  const Json study = client.call(req);
  EXPECT_EQ(study.get_string("status", ""), "ok");
  EXPECT_FALSE(study.get_string("digest", "").empty());

  // The connection keeps serving after a pipeline request.
  const Json after = client.call(make_request("ping"));
  EXPECT_EQ(after.get_string("status", ""), "ok");

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ReplicationServerTest, DefaultFastLaneServesWarmRepeatsOffTheQueue) {
  // Regression: the core's rendered result tier used to be filled only by
  // a handle_line() nothing called, so the default server's fast path
  // never hit and every identical repeat queued (and waited) again.
  ServerOptions options;
  options.socket_path = unique_socket_path("fl");
  ReplicationServer server(options);
  server.start();

  ServiceClient client;
  client.connect(server.socket_path());
  Json req = make_request("run_study");
  req.set("seed", Json::number(7));
  std::vector<std::string> lines;
  for (int i = 0; i < 5; ++i) {
    const Json r = client.call(req);
    ASSERT_EQ(r.get_string("status", ""), "ok");
    lines.push_back(r.dump());
  }
  for (const std::string& line : lines) EXPECT_EQ(line, lines.front());

  const Json stats = client.call(make_request("server_stats"));
  EXPECT_EQ(stats.get_number("batch_enqueued", -1), 1.0);
  EXPECT_EQ(server.core().stats().cache_hits, 4u);
  server.stop();
}

TEST(ReplicationServerTest, ShutdownOpStopsTheServer) {
  ServerOptions options;
  options.socket_path = unique_socket_path("sd");
  ReplicationServer server(options);
  server.start();
  ServiceClient client;
  client.connect(server.socket_path());
  const Json r = client.call(make_request("shutdown"));
  EXPECT_EQ(r.get_string("status", ""), "ok");
  for (int i = 0; i < 200 && server.running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(server.running());
}

TEST(ReplicationServerTest, WatchdogCancelsStalledRequests) {
  ServerOptions options;
  options.socket_path = unique_socket_path("wd");
  options.watchdog_ms = 30;
  // Only the first pipeline request stalls; the follow-up is clean.
  options.service.fault_plan.set("service.stall", util::FaultSpec::once(0));
  options.service.stall_max_ms = 5000;  // far beyond the watchdog
  ReplicationServer server(options);
  server.start();

  ServiceClient client;
  client.connect(server.socket_path());
  Json req = make_request("run_study");
  req.set("seed", Json::number(7));
  const Json stalled = client.call(req);
  EXPECT_EQ(stalled.get_string("status", ""), "deadline_exceeded");
  EXPECT_TRUE(stalled.get_bool("cancelled", false));

  // The worker is free again: the same request now completes.
  const Json clean = client.call(req);
  EXPECT_EQ(clean.get_string("status", ""), "ok");
  server.stop();
}

TEST(ReplicationServerTest, FullQueueAnswersOverloadedWithRetryHint) {
  ServerOptions options;
  options.socket_path = unique_socket_path("bp");
  options.max_queue = 0;  // degenerate bound: every request is backpressured
  ReplicationServer server(options);
  server.start();
  ServiceClient client;
  client.connect(server.socket_path());
  const Json r = client.call(make_request("ping"));
  EXPECT_EQ(r.get_string("status", ""), "overloaded");
  EXPECT_EQ(r.get_number("retry_after_ms", 0),
            ReplicationServer::kRetryAfterMs);
  server.stop();
}

TEST(ReplicationServerTest, OversizedRequestLineIsRejectedNotBuffered) {
  ServerOptions options;
  options.socket_path = unique_socket_path("big");
  ReplicationServer server(options);
  server.start();
  ServiceClient client;
  client.connect(server.socket_path());
  // A single request line past the server's cap (4 MiB) must answer
  // bad_request instead of growing the read buffer without bound.
  Json req = make_request("ping");
  req.set("pad", Json::string(std::string((4u << 20) + (16u << 10), 'a')));
  const Json r = client.call(req);
  EXPECT_EQ(r.get_string("status", ""), "bad_request");
  EXPECT_NE(r.get_string("error", "").find("size limit"), std::string::npos);
  server.stop();
}

TEST(ReplicationServerTest, StopWithQueuedAndInFlightRequestsDoesNotHang) {
  ServerOptions options;
  options.socket_path = unique_socket_path("sq");
  options.workers = 1;
  // Every pipeline request parks the lone worker at a cancellable
  // checkpoint, so stop() races against real in-flight + queued work.
  options.service.fault_plan.set("service.stall", util::FaultSpec::always());
  options.service.stall_max_ms = 100;
  ReplicationServer server(options);
  server.start();

  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i)
    clients.emplace_back([&server] {
      try {
        ServiceClient client;
        client.connect(server.socket_path());
        Json req = make_request("run_study");
        req.set("no_cache", Json::boolean(true));
        const Json r = client.call(req);
        // Any structured answer is acceptable (ok / deadline_exceeded /
        // "server shutting down" error); hanging or crashing is not.
        EXPECT_FALSE(r.get_string("status", "").empty());
      } catch (const std::exception&) {
        // Connection torn down mid-reply by shutdown: also acceptable.
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Regression: stop() must not deadlock joining a connection thread
  // blocked on a promise no retired worker will ever fulfil.
  server.stop();
  EXPECT_FALSE(server.running());
  for (auto& t : clients) t.join();
}

// Shared scaffolding for the exact-capacity boundary tests below: one
// worker parked inside a gated batch handler, so the queue contents are
// under full test control while admission decisions happen.
struct LaneGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> batch_entered{0};
  std::atomic<bool> ping_handled{false};
  std::atomic<bool> tagged_batch_saw_ping{false};

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }

  std::function<Json(const Json&, const std::atomic<bool>*)> handler() {
    return [this](const Json& request, const std::atomic<bool>*) {
      Json r = Json::object();
      r.set("status", Json::string("ok"));
      r.set("op", Json::string(request.get_string("op", "")));
      if (request.get_string("op", "") == "run_study") {
        batch_entered.fetch_add(1);
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
        // Records whether the interactive lane really overtook: by the
        // time the tagged batch entry runs, the ping queued after it
        // must already have been answered.
        if (request.get_string("tag", "") == "after-ping")
          tagged_batch_saw_ping.store(ping_handled.load());
      } else {
        ping_handled.store(true);
      }
      return r;
    };
  }
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

Json call_once(const std::string& socket_path, Json request) {
  ServiceClient client;
  client.connect(socket_path);
  return client.call(request);
}

TEST(ReplicationServerTest, OneBelowFullAdmitsBothLanesWithoutShedding) {
  LaneGate gate;
  ServerOptions options;
  options.socket_path = unique_socket_path("b1");
  options.workers = 1;
  options.max_queue = 2;
  options.handler = gate.handler();
  ReplicationServer server(options);
  server.start();

  // The worker parks inside the first batch request, leaving the queue
  // empty; one queued batch entry keeps it one below capacity.
  auto blocker = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("run_study"));
  });
  ASSERT_TRUE(wait_until([&] { return gate.batch_entered.load() == 1; }));
  auto queued_batch = std::async(std::launch::async, [&] {
    Json req = make_request("run_study");
    req.set("tag", Json::string("after-ping"));
    return call_once(server.socket_path(), req);
  });
  ASSERT_TRUE(
      wait_until([&] { return server.overload_stats().batch_enqueued == 2; }));

  // One-below-full: the interactive arrival is admitted without shedding
  // anything, filling the queue exactly to capacity.
  auto ping = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("ping"));
  });
  ASSERT_TRUE(wait_until(
      [&] { return server.overload_stats().interactive_enqueued == 1; }));
  EXPECT_EQ(server.overload_stats().shed_batch, 0u);
  EXPECT_EQ(server.overload_stats().overloaded_rejected, 0u);

  gate.release();
  EXPECT_EQ(ping.get().get_string("status", ""), "ok");
  EXPECT_EQ(queued_batch.get().get_string("status", ""), "ok");
  EXPECT_EQ(blocker.get().get_string("status", ""), "ok");
  // Interactive-first draining: the queued batch entry observed the
  // later-arriving ping already answered.
  EXPECT_TRUE(gate.tagged_batch_saw_ping.load());
  server.stop();
}

TEST(ReplicationServerTest, ExactlyFullQueueRejectsBatchAndShedsForInteractive) {
  LaneGate gate;
  ServerOptions options;
  options.socket_path = unique_socket_path("b2");
  options.workers = 1;
  options.max_queue = 2;
  options.handler = gate.handler();
  ReplicationServer server(options);
  server.start();

  // Park the worker, then fill the queue to exactly max_queue with two
  // batch entries (oldest first).
  auto blocker = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("run_study"));
  });
  ASSERT_TRUE(wait_until([&] { return gate.batch_entered.load() == 1; }));
  auto oldest = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("run_study"));
  });
  ASSERT_TRUE(
      wait_until([&] { return server.overload_stats().batch_enqueued == 2; }));
  auto youngest = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("run_study"));
  });
  ASSERT_TRUE(
      wait_until([&] { return server.overload_stats().batch_enqueued == 3; }));

  // Exactly full + batch arrival: immediate overloaded, nothing shed.
  const Json rejected =
      call_once(server.socket_path(), make_request("run_study"));
  EXPECT_EQ(rejected.get_string("status", ""), "overloaded");
  EXPECT_EQ(rejected.get_number("retry_after_ms", 0),
            ReplicationServer::kRetryAfterMs);
  EXPECT_FALSE(rejected.get_bool("shed", false));
  EXPECT_EQ(server.overload_stats().overloaded_rejected, 1u);
  EXPECT_EQ(server.overload_stats().shed_batch, 0u);

  // Exactly full + interactive arrival: the youngest batch entry is
  // shed (overloaded + "shed":true) and the ping takes its slot.
  auto ping = std::async(std::launch::async, [&] {
    return call_once(server.socket_path(), make_request("ping"));
  });
  const Json shed = youngest.get();
  EXPECT_EQ(shed.get_string("status", ""), "overloaded");
  EXPECT_TRUE(shed.get_bool("shed", false));
  EXPECT_EQ(shed.get_number("retry_after_ms", 0),
            ReplicationServer::kRetryAfterMs);
  EXPECT_EQ(server.overload_stats().shed_batch, 1u);
  EXPECT_EQ(server.overload_stats().interactive_enqueued, 1u);

  // The survivors drain normally: ping first, then the older batch entry.
  gate.release();
  EXPECT_EQ(ping.get().get_string("status", ""), "ok");
  EXPECT_EQ(oldest.get().get_string("status", ""), "ok");
  EXPECT_EQ(blocker.get().get_string("status", ""), "ok");
  server.stop();
}

// -- Event loop bounds -------------------------------------------------------

// Lowers (or raises) the soft RLIMIT_NOFILE for one test; restores it on
// exit, failed assertions included.
class SoftFdLimit {
 public:
  explicit SoftFdLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit r = saved_;
    r.rlim_cur = std::min(soft, saved_.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &r);
  }
  ~SoftFdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

// Entries of a /proc directory (/proc/self/fd counts its own handle).
std::size_t count_entries(const char* path) {
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (const dirent* e = ::readdir(dir))
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0)
      ++n;
  ::closedir(dir);
  return n;
}

// A bare Unix-socket connection with a 3 s receive timeout, for byte-level
// exchanges ServiceClient does not make (pipelining, half-close, reading
// to EOF).
int connect_raw(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

// Every byte until the peer closes; the timeout or an error ends it early.
std::string read_to_eof(int fd) {
  std::string all;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0)
    all.append(chunk, static_cast<std::size_t>(n));
  if (n < 0) all += "<no eof>";
  return all;
}

std::vector<Json> parse_lines(const std::string& text) {
  std::vector<Json> out;
  std::size_t from = 0;
  for (std::size_t nl; (nl = text.find('\n', from)) != std::string::npos;
       from = nl + 1)
    out.push_back(Json::parse(text.substr(from, nl - from)));
  return out;
}

Json ask(ServiceClient& client, const char* op) {
  return client.call(make_request(op));
}

std::string status_of(const Json& r) { return r.get_string("status", ""); }

TEST(ReplicationServerTest, ThousandConnectionsUnderA64FdLimitAreAllAnswered) {
  // Regression: each connection kept its fd (and an exited thread) until
  // stop(), and accept() failing with EMFILE ended the accept loop for
  // good, so the 60th client or so hung until its own timeout.
  ServerOptions options;
  options.socket_path = unique_socket_path("churn");
  ReplicationServer server(options);
  server.start();
  {
    const SoftFdLimit limit(64);
    for (int i = 0; i < 1000; ++i) {
      ServiceClient client;
      client.set_timeout_ms(3000);
      client.connect(server.socket_path());
      ASSERT_EQ(status_of(ask(client, "ping")), "ok") << "cycle " << i;
    }
  }
  server.stop();
}

TEST(ReplicationServerTest, AcceptResumesAfterTheProcessRanOutOfFds) {
  ServerOptions options;
  options.socket_path = unique_socket_path("emfile");
  ReplicationServer server(options);
  server.start();
  const SoftFdLimit limit(64);
  std::vector<std::unique_ptr<ServiceClient>> idle(4);
  for (auto& client : idle) {
    client = std::make_unique<ServiceClient>();
    client->connect(server.socket_path());
    ASSERT_EQ(status_of(ask(*client, "ping")), "ok");
  }
  // Idle fds take what is left, then give one back: the next client's
  // socket gets it, and the server's accept() finds none (EMFILE).
  std::vector<int> taken;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;)
    taken.push_back(fd);
  ASSERT_EQ(errno, EMFILE);
  ::close(taken.back());
  taken.pop_back();
  ServiceClient next;
  next.set_timeout_ms(3000);
  next.connect(server.socket_path(), 1);
  next.send(make_request("ping"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The idle holders close; the server must pick the waiting client up.
  for (const int fd : taken) ::close(fd);
  idle.clear();
  Json reply;
  while (!next.try_receive(reply)) {
  }
  EXPECT_EQ(status_of(reply), "ok");
  ServiceClient after;
  after.set_timeout_ms(3000);
  after.connect(server.socket_path());
  EXPECT_EQ(status_of(ask(after, "ping")), "ok");
  server.stop();
}

TEST(ReplicationServerTest, ThreadsAndFdsDoNotGrowWithClients) {
  // ThreadSanitizer starts a helper thread at the first pthread_create;
  // one created and joined here puts it in the baseline.
  std::thread([] {}).join();
  const std::size_t threads_before = count_entries("/proc/self/task");
  ServerOptions options;
  options.socket_path = unique_socket_path("bounds");
  options.workers = 2;
  ReplicationServer server(options);
  server.start();
  // The loop plus the workers, however many clients connect.
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before + 3);
  const std::size_t fds_before = count_entries("/proc/self/fd");

  std::vector<std::unique_ptr<ServiceClient>> idle(64);
  for (auto& client : idle) {
    client = std::make_unique<ServiceClient>();
    client->connect(server.socket_path());
    ASSERT_EQ(status_of(ask(*client, "ping")), "ok");
  }
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before + 3);
  idle.clear();

  for (int i = 0; i < 1000; ++i) {
    ServiceClient client;
    client.set_timeout_ms(3000);
    client.connect(server.socket_path());
    ASSERT_EQ(status_of(ask(client, "ping")), "ok") << "cycle " << i;
  }
  // Closed connections give their fd back as the loop sees them go.
  EXPECT_TRUE(wait_until(
      [&] { return count_entries("/proc/self/fd") <= fds_before + 4; }))
      << count_entries("/proc/self/fd") << " fds, " << fds_before
      << " before";
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before + 3);
  server.stop();
}

TEST(ReplicationServerTest, ConnectionCapAnswersOverloadedOnceThenServesAgain) {
  constexpr std::size_t kCap = ReplicationServer::kMaxConnections;
  // Both ends of kCap + 1 connections live in this process.
  const SoftFdLimit limit(2 * kCap + 64);
  ServerOptions options;
  options.socket_path = unique_socket_path("cap");
  options.workers = 1;
  ReplicationServer server(options);
  server.start();
  std::vector<std::unique_ptr<ServiceClient>> idle(kCap);
  for (auto& client : idle) {
    client = std::make_unique<ServiceClient>();
    client->connect(server.socket_path());
    ASSERT_EQ(status_of(ask(*client, "ping")), "ok");
  }
  EXPECT_EQ(ask(*idle.front(), "server_stats").get_number("connections", -1),
            static_cast<double>(kCap));

  // Past the cap: exactly one overloaded line, then EOF.
  const int extra = connect_raw(server.socket_path());
  ASSERT_GE(extra, 0);
  const std::vector<Json> lines = parse_lines(read_to_eof(extra));
  ::close(extra);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(status_of(lines[0]), "overloaded");
  EXPECT_EQ(lines[0].get_number("retry_after_ms", 0),
            ReplicationServer::kRetryAfterMs);

  // One client leaves; the next one to arrive is served.
  idle.pop_back();
  ASSERT_TRUE(wait_until([&] {
    return ask(*idle.front(), "server_stats").get_number("connections", -1) ==
           static_cast<double>(kCap - 1);
  }));
  ServiceClient next;
  next.set_timeout_ms(3000);
  next.connect(server.socket_path());
  EXPECT_EQ(status_of(ask(next, "ping")), "ok");
  server.stop();
}

TEST(ReplicationServerTest, PipelinedLinesThenHalfCloseGetEveryAnswerInOrder) {
  ServerOptions options;
  options.socket_path = unique_socket_path("pipe");
  ReplicationServer server(options);
  server.start();
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  // Queued (ping), loop-answered (server_stats) and malformed lines, all
  // sent before any answer is read, then no more bytes.
  const std::string lines =
      "{\"op\":\"ping\"}\n{\"op\":\"server_stats\"}\n{oops\n"
      "{\"op\":\"ping\"}\n{\"op\":\"server_stats\"}\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(lines.size()));
  ::shutdown(fd, SHUT_WR);
  const std::vector<Json> answers = parse_lines(read_to_eof(fd));
  ::close(fd);
  ASSERT_EQ(answers.size(), 5u);
  EXPECT_EQ(status_of(answers[0]), "ok");
  EXPECT_FALSE(answers[0].get_string("version", "").empty());
  // Each stats answer sees exactly the pings sent before it.
  EXPECT_EQ(answers[1].get_number("interactive_enqueued", -1), 1.0);
  EXPECT_EQ(status_of(answers[2]), "bad_request");
  EXPECT_FALSE(answers[3].get_string("version", "").empty());
  EXPECT_EQ(answers[4].get_number("interactive_enqueued", -1), 2.0);
  server.stop();
}

// A handler that takes 300 ms and says when it starts and ends.
struct SlowHandler {
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};

  std::function<Json(const Json&, const std::atomic<bool>*)> handler() {
    return [this](const Json& request, const std::atomic<bool>*) {
      entered.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      finished.store(true);
      return service::ok_response(request.get_string("op", ""));
    };
  }
};

// Sends one request, hangs up while the handler runs (a hedge loser, a
// timed-out forward or ping), and returns the process CPU milliseconds
// spent from the hang-up until the handler returned.
double cpu_ms_while_hung_up(const std::string& socket_path, SlowHandler& slow) {
  const int fd = connect_raw(socket_path);
  EXPECT_GE(fd, 0);
  const std::string line = "{\"op\":\"run_study\"}\n";
  EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  EXPECT_TRUE(wait_until([&] { return slow.entered.load(); }));
  timespec cpu0{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu0);
  ::close(fd);
  EXPECT_TRUE(wait_until([&] { return slow.finished.load(); }));
  timespec cpu1{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu1);
  return static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) * 1e3 +
         static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) / 1e6;
}

TEST(ReplicationServerTest, ClientThatHangsUpMidRequestCostsNoCpu) {
  SlowHandler slow;
  ServerOptions options;
  options.socket_path = unique_socket_path("hup");
  options.handler = slow.handler();
  ReplicationServer server(options);
  server.start();
  // poll() reports the hang-up whatever the events mask; a loop that kept
  // polling the connection would spin for the whole request.
  EXPECT_LT(cpu_ms_while_hung_up(server.socket_path(), slow), 50.0);
  server.stop();
}

TEST(ReplicationServerTest, HungUpConnectionIsGoneOnceItsRequestEnds) {
  SlowHandler slow;
  ServerOptions options;
  options.socket_path = unique_socket_path("hupc");
  options.handler = slow.handler();
  ReplicationServer server(options);
  server.start();
  ServiceClient probe;
  probe.connect(server.socket_path());
  const double baseline =
      ask(probe, "server_stats").get_number("connections", -1);
  EXPECT_EQ(baseline, 1.0);
  cpu_ms_while_hung_up(server.socket_path(), slow);
  EXPECT_TRUE(wait_until([&] {
    return ask(probe, "server_stats").get_number("connections", -1) ==
           baseline;
  }));
  server.stop();
}

TEST(ReplicationServerTest, ServerStatsReportsRunningWorkersAndConnections) {
  ServerOptions options;
  options.socket_path = unique_socket_path("stats");
  options.workers = 0;  // still runs one worker
  ReplicationServer server(options);
  server.start();
  std::vector<std::unique_ptr<ServiceClient>> clients(3);
  for (auto& client : clients) {
    client = std::make_unique<ServiceClient>();
    client->connect(server.socket_path());
    ASSERT_EQ(status_of(ask(*client, "ping")), "ok");
  }
  const Json stats = ask(*clients.front(), "server_stats");
  EXPECT_EQ(stats.get_number("workers", -1), 1.0);
  EXPECT_EQ(stats.get_number("threads", -1), 1.0);
  EXPECT_EQ(stats.get_number("connections", -1), 3.0);
  server.stop();
}

// -- the worker pool and BlockingWait ----------------------------------------

// Counts the handlers inside a section and keeps the highest count seen.
struct Occupancy {
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};

  void enter() {
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  void leave() { inside.fetch_sub(1); }
};

// Sends a ping from a new thread and records its answer's status
// ("closed" when the connection went away first).
std::thread ping_in_thread(const std::string& socket_path,
                           std::string& status) {
  return std::thread([&socket_path, &status] {
    try {
      ServiceClient client;
      client.connect(socket_path);
      status = status_of(client.call(make_request("ping")));
    } catch (const std::exception&) {
      status = "closed";
    }
  });
}

std::vector<std::thread> ping_concurrently(const std::string& socket_path,
                                           std::vector<std::string>& statuses) {
  std::vector<std::thread> clients;
  for (std::string& status : statuses)
    clients.push_back(ping_in_thread(socket_path, status));
  return clients;
}

TEST(ReplicationServerTest, WaitsInsideBlockingWaitOverlapOnOneWorker) {
  Occupancy waiting;
  ServerOptions options;
  options.socket_path = unique_socket_path("bwait");
  options.workers = 1;
  options.handler = [&waiting](const Json& request, const std::atomic<bool>*) {
    const service::BlockingWait wait;
    waiting.enter();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    waiting.leave();
    return service::ok_response(request.get_string("op", ""));
  };
  ReplicationServer server(options);
  server.start();
  std::vector<std::string> statuses(4);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::thread& t : ping_concurrently(server.socket_path(), statuses))
    t.join();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  for (const std::string& status : statuses) EXPECT_EQ(status, "ok");
  // One at a time the four waits take 600 ms.
  EXPECT_LT(elapsed_ms, 450.0);
  EXPECT_EQ(waiting.peak.load(), 4);
  ServiceClient probe;
  probe.connect(server.socket_path());
  const Json stats = ask(probe, "server_stats");
  EXPECT_EQ(stats.get_number("workers", -1), 1.0);
  EXPECT_EQ(stats.get_number("threads", -1), 4.0);
  server.stop();
}

TEST(ReplicationServerTest, HandlersWithoutTheMarkerNeverOutnumberWorkers) {
  Occupancy computing;
  ServerOptions options;
  options.socket_path = unique_socket_path("spin");
  options.workers = 2;
  options.handler = [&computing](const Json& request,
                                 const std::atomic<bool>*) {
    computing.enter();
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    while (std::chrono::steady_clock::now() < until) {
    }
    computing.leave();
    return service::ok_response(request.get_string("op", ""));
  };
  ReplicationServer server(options);
  server.start();
  std::vector<std::string> statuses(6);
  for (std::thread& t : ping_concurrently(server.socket_path(), statuses))
    t.join();
  for (const std::string& status : statuses) EXPECT_EQ(status, "ok");
  EXPECT_LE(computing.peak.load(), 2);
  ServiceClient probe;
  probe.connect(server.socket_path());
  EXPECT_EQ(ask(probe, "server_stats").get_number("threads", -1), 2.0);
  server.stop();
}

// A handler that waits inside a BlockingWait until `open` or its request
// is cancelled.
struct WaitGate {
  Occupancy waiting;
  std::atomic<bool> open{false};

  std::function<Json(const Json&, const std::atomic<bool>*)> handler() {
    return [this](const Json& request, const std::atomic<bool>* cancel) {
      const service::BlockingWait wait;
      waiting.enter();
      while (!open.load() && !cancel->load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      waiting.leave();
      return service::ok_response(request.get_string("op", ""));
    };
  }
};

// Connects one client per request and sends every request before any
// answer is read, so the loop sees them all at once.
std::vector<std::unique_ptr<ServiceClient>> send_pings(
    const std::string& socket_path, std::size_t n) {
  std::vector<std::unique_ptr<ServiceClient>> clients(n);
  for (auto& client : clients) {
    client = std::make_unique<ServiceClient>();
    client->connect(socket_path);
  }
  for (auto& client : clients) client->send(make_request("ping"));
  return clients;
}

std::string receive_status(ServiceClient& client) {
  Json reply;
  while (!client.try_receive(reply)) {
  }
  return status_of(reply);
}

TEST(ReplicationServerTest, BurstThatFreeThreadsCanStartIsAdmitted) {
  // Regression: admission counted the requests a woken or just-started
  // worker had yet to pop, so a burst was refused while threads were free.
  WaitGate gate;
  ServerOptions options;
  options.socket_path = unique_socket_path("burst");
  options.workers = 1;
  options.max_queue = 2;
  options.handler = gate.handler();
  ReplicationServer server(options);
  server.start();
  auto clients = send_pings(server.socket_path(), 3);
  // Three threads may run, so all three pings start waiting.
  ASSERT_TRUE(wait_until([&] {
    return gate.waiting.inside.load() +
               static_cast<int>(server.overload_stats().overloaded_rejected) ==
           3;
  }));
  EXPECT_EQ(server.overload_stats().overloaded_rejected, 0u);
  gate.open.store(true);
  for (auto& client : clients) EXPECT_EQ(receive_status(*client), "ok");
  server.stop();
}

TEST(ReplicationServerTest, WaitingWorkersStopAtWorkersPlusMaxQueueThreads) {
  WaitGate gate;
  ServerOptions options;
  options.socket_path = unique_socket_path("wcap");
  options.workers = 1;
  options.max_queue = 2;
  options.handler = gate.handler();
  ReplicationServer server(options);
  server.start();
  // Three requests wait on the three threads the cap allows.
  auto waiting = send_pings(server.socket_path(), 3);
  ASSERT_TRUE(wait_until([&] { return gate.waiting.inside.load() == 3; }));
  // With no thread left to begin them, exactly max_queue more queue...
  auto queued = send_pings(server.socket_path(), 2);
  ASSERT_TRUE(wait_until(
      [&] { return server.overload_stats().interactive_enqueued == 5; }));
  // ...and the next is refused.
  auto refused = send_pings(server.socket_path(), 1);
  EXPECT_EQ(receive_status(*refused.front()), "overloaded");
  EXPECT_EQ(server.overload_stats().overloaded_rejected, 1u);
  ServiceClient probe;
  probe.connect(server.socket_path());
  EXPECT_EQ(ask(probe, "server_stats").get_number("threads", -1), 3.0);
  EXPECT_EQ(gate.waiting.peak.load(), 3);
  gate.open.store(true);
  for (auto& client : waiting) EXPECT_EQ(receive_status(*client), "ok");
  for (auto& client : queued) EXPECT_EQ(receive_status(*client), "ok");
  EXPECT_EQ(ask(probe, "server_stats").get_number("threads", -1), 3.0);
  server.stop();
}

TEST(ReplicationServerTest, StopJoinsEveryWorkerBlockedInAWait) {
  std::thread([] {}).join();  // TSan's helper thread joins the baseline
  const std::size_t threads_before = count_entries("/proc/self/task");
  WaitGate gate;
  ServerOptions options;
  options.socket_path = unique_socket_path("wstop");
  options.workers = 1;
  options.handler = gate.handler();
  ReplicationServer server(options);
  server.start();
  std::vector<std::string> statuses(3);
  std::vector<std::thread> clients =
      ping_concurrently(server.socket_path(), statuses);
  EXPECT_TRUE(wait_until([&] { return gate.waiting.inside.load() == 3; }));
  // The loop, three workers and three clients.
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before + 7);
  server.stop();  // the test hanging here is the failure
  EXPECT_EQ(gate.waiting.inside.load(), 0);
  for (std::thread& t : clients) t.join();
  for (const std::string& status : statuses) EXPECT_EQ(status, "closed");
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before);
}

TEST(ServiceCoreTest, ResultCacheIsLruBounded) {
  const auto request = [](double seed) {
    Json r = make_request("run_study");
    r.set("seed", Json::number(seed));
    return r;
  };
  const auto response = [](const char* digest) {
    Json r = service::ok_response("run_study");
    r.set("digest", Json::string(digest));
    return r;
  };
  service::RenderedLineCache cache(2);
  cache.put(request(1), response("a"));
  cache.put(request(2), response("b"));
  // A hit appends the rendered line byte for byte and makes it the most
  // recently used, so the next put evicts seed 2.
  std::string out = "prefix:";
  ASSERT_TRUE(cache.find(request(1), out));
  EXPECT_EQ(out, "prefix:" + response("a").dump());
  cache.put(request(3), response("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  out.clear();
  EXPECT_FALSE(cache.find(request(2), out));
  EXPECT_TRUE(out.empty());
  // A put for a cached key replaces its line in place.
  cache.put(request(1), response("a2"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  ASSERT_TRUE(cache.find(request(1), out));
  ASSERT_TRUE(cache.find(request(3), out));
  EXPECT_EQ(out, response("a2").dump() + response("c").dump());

  // The core's tier: a warm repeat is a hit, under the constant bound.
  ServiceCore core;
  ASSERT_EQ(core.handle(request(1)).get_string("status", ""), "ok");
  core.handle(request(1));
  EXPECT_EQ(core.stats().cache_hits, 1u);
  const Json stats = core.handle(make_request("cache_stats"));
  EXPECT_EQ(stats.get_number("result_cache_capacity", -1), 256.0);
}

}  // namespace
