// Supervisor contract suite (CTest label: cluster). Exercises real
// fork/exec'd cluster_backend processes: serve-through-supervisor,
// kill -9 → restart with backoff → journal re-warm, the
// "supervisor.restart" fault site, max_restarts give-up, wedged-backend
// ping kills, and the no-zombies teardown guarantee.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/supervisor.h"
#include "service/server.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using cluster::SupervisedBackend;
using cluster::Supervisor;
using cluster::SupervisorOptions;
using service::Json;

// The exec'd backend binary lives in build/examples, next to this test's
// build/tests. DECOMPEVAL_BACKEND_BIN overrides for odd layouts.
std::string backend_binary() {
  if (const char* env = std::getenv("DECOMPEVAL_BACKEND_BIN")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  EXPECT_GT(n, 0);
  std::string self(buf, static_cast<std::size_t>(n));
  return self.substr(0, self.rfind('/')) + "/../examples/cluster_backend";
}

std::string unique_path(const std::string& tag, const std::string& suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/decompeval-sup-" + tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1)) + suffix;
}

SupervisedBackend backend_spec(const std::string& id,
                               const std::string& socket_path,
                               const std::string& shard_dir,
                               std::vector<std::string> extra_args = {}) {
  SupervisedBackend spec;
  spec.id = id;
  spec.socket_path = socket_path;
  // The journal lives NEXT TO the cache directory, not inside it: the
  // cache janitor sweeps stale non-.json files in its directory.
  spec.argv = {backend_binary(), "--socket", socket_path,
               "--cache-dir", shard_dir,
               "--journal", shard_dir + ".journal",
               "--id", id};
  for (std::string& arg : extra_args) spec.argv.push_back(std::move(arg));
  return spec;
}

void cleanup_shard(const std::string& shard_dir) {
  std::filesystem::remove_all(shard_dir);
  std::remove((shard_dir + ".journal").c_str());
}

Json study_request(std::uint64_t seed) {
  Json req = Json::object();
  req.set("op", Json::string("run_study"));
  req.set("seed", Json::number(static_cast<double>(seed)));
  return req;
}

Json call_backend(const std::string& socket_path, const Json& request,
                  double timeout_ms = 30000.0) {
  service::ServiceClient client;
  client.connect(socket_path, /*attempts=*/50);
  client.set_timeout_ms(timeout_ms);
  return client.call(request);
}

// True once no child of this process remains (everything reaped).
bool no_children_left() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

bool wait_for(const std::function<bool()>& done, std::uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

TEST(SupervisorTest, ServesThroughExecdBackendAndReapsOnStop) {
  const std::string socket_path = unique_path("serve", ".sock");
  const std::string shard_dir = unique_path("serve", ".cache");
  SupervisorOptions options;
  options.backends = {backend_spec("b0", socket_path, shard_dir)};
  {
    Supervisor supervisor(options);
    supervisor.start();
    ASSERT_TRUE(supervisor.wait_until_serving("b0", 15000));
    EXPECT_TRUE(supervisor.alive("b0"));
    EXPECT_GT(supervisor.pid_of("b0"), 0);
    const Json response = call_backend(socket_path, study_request(3));
    EXPECT_EQ(response.get_string("status", ""), "ok");
    EXPECT_GE(supervisor.stats().spawns, 1u);
    supervisor.stop();
  }
  EXPECT_TRUE(no_children_left());
  cleanup_shard(shard_dir);
}

TEST(SupervisorTest, Kill9RestartsBackendAndRewarmsFromJournal) {
  const std::string socket_path = unique_path("kill9", ".sock");
  const std::string shard_dir = unique_path("kill9", ".cache");
  SupervisorOptions options;
  options.backends = {backend_spec("b0", socket_path, shard_dir)};
  Supervisor supervisor(options);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("b0", 15000));

  // Warm the shard: the result lands in the disk cache (a cacheable
  // request is not journaled).
  const std::string reference =
      call_backend(socket_path, study_request(5)).dump();
  const pid_t first_pid = supervisor.pid_of("b0");

  supervisor.kill_backend("b0", SIGKILL);
  ASSERT_TRUE(wait_for([&] { return supervisor.restarts_of("b0") >= 1; },
                       20000));
  EXPECT_TRUE(supervisor.alive("b0"));
  EXPECT_NE(supervisor.pid_of("b0"), first_pid);
  const cluster::SupervisorStats stats = supervisor.stats();
  EXPECT_GE(stats.exits_observed, 1u);
  EXPECT_GE(stats.restarts, 1u);

  // The restarted process answers the same request bit-identically from
  // the disk cache, which survived the kill.
  EXPECT_EQ(call_backend(socket_path, study_request(5)).dump(), reference);

  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  EXPECT_FALSE(supervisor.alive("b0"));
  cleanup_shard(shard_dir);
}

TEST(SupervisorTest, RestartFaultDefersTheRestartThenRecovers) {
  const std::string socket_path = unique_path("fault", ".sock");
  const std::string shard_dir = unique_path("fault", ".cache");
  SupervisorOptions options;
  options.backends = {backend_spec("b0", socket_path, shard_dir)};
  options.fault_plan.set("supervisor.restart", util::FaultSpec::once(0));
  Supervisor supervisor(options);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("b0", 15000));

  supervisor.kill_backend("b0", SIGKILL);
  // The first due restart attempt is skipped by the fault and rescheduled
  // with doubled backoff; the second attempt succeeds.
  ASSERT_TRUE(wait_for([&] { return supervisor.restarts_of("b0") >= 1; },
                       20000));
  EXPECT_EQ(supervisor.stats().restart_faults, 1u);
  EXPECT_TRUE(supervisor.alive("b0"));

  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  cleanup_shard(shard_dir);
}

TEST(SupervisorTest, MaxRestartsZeroMeansGiveUpAndStayDown) {
  const std::string socket_path = unique_path("giveup", ".sock");
  const std::string shard_dir = unique_path("giveup", ".cache");
  SupervisorOptions options;
  options.backends = {backend_spec("b0", socket_path, shard_dir)};
  options.max_restarts = 0;
  Supervisor supervisor(options);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("b0", 15000));

  supervisor.kill_backend("b0", SIGKILL);
  ASSERT_TRUE(wait_for([&] { return supervisor.given_up("b0"); }, 20000));
  EXPECT_FALSE(supervisor.alive("b0"));
  EXPECT_EQ(supervisor.restarts_of("b0"), 0u);
  EXPECT_GE(supervisor.stats().gave_up, 1u);
  // Stays down: no new pid appears.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(supervisor.alive("b0"));

  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  cleanup_shard(shard_dir);
  std::remove(socket_path.c_str());  // SIGKILL left it behind
}

TEST(SupervisorTest, WedgedBackendIsPingKilledAndRestarted) {
  const std::string socket_path = unique_path("wedge", ".sock");
  const std::string shard_dir = unique_path("wedge", ".cache");
  SupervisorOptions options;
  // --workers 1: the wedged work request starves the ping path too, so
  // the backend is alive for waitpid but dead to probes.
  options.backends = {backend_spec("b0", socket_path, shard_dir,
                                   {"--wedge-after-requests", "1",
                                    "--workers", "1"})};
  options.ping_interval_ms = 50;
  options.ping_failures_before_kill = 2;
  options.ping_timeout_ms = 200.0;
  Supervisor supervisor(options);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("b0", 15000));

  // Trip the wedge: this request blocks forever server-side, so the
  // client call times out — that is the point.
  try {
    call_backend(socket_path, study_request(1), /*timeout_ms=*/300.0);
  } catch (const std::exception&) {
    // Expected: the backend never answers.
  }
  ASSERT_TRUE(wait_for([&] { return supervisor.stats().hang_kills >= 1; },
                       20000));
  ASSERT_TRUE(wait_for([&] { return supervisor.restarts_of("b0") >= 1; },
                       20000));
  // The restarted process serves again. Probe with a control op: a work
  // request would trip the (equally fresh) wedge budget all over again.
  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  EXPECT_EQ(call_backend(socket_path, ping).get_string("status", ""), "ok");

  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  cleanup_shard(shard_dir);
}

TEST(SupervisorTest, StopAfterAbruptKillLeavesNoZombies) {
  const std::string socket_a = unique_path("zomb-a", ".sock");
  const std::string socket_b = unique_path("zomb-b", ".sock");
  const std::string dir_a = unique_path("zomb-a", ".cache");
  const std::string dir_b = unique_path("zomb-b", ".cache");
  SupervisorOptions options;
  options.backends = {backend_spec("a", socket_a, dir_a),
                      backend_spec("b", socket_b, dir_b)};
  Supervisor supervisor(options);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("a", 15000));
  ASSERT_TRUE(supervisor.wait_until_serving("b", 15000));
  const pid_t pid_a = supervisor.pid_of("a");
  const pid_t pid_b = supervisor.pid_of("b");

  // Kill one child and stop immediately — stop() must reap the corpse,
  // the survivor, and any restart the watcher raced in between.
  supervisor.kill_backend("a", SIGKILL);
  supervisor.stop();

  EXPECT_TRUE(no_children_left());
  // Both original pids are gone from the process table (kill(0) fails).
  EXPECT_NE(::kill(pid_a, 0), 0);
  EXPECT_NE(::kill(pid_b, 0), 0);
  cleanup_shard(dir_a);
  cleanup_shard(dir_b);
  std::remove(socket_a.c_str());  // SIGKILL left it behind
  std::remove(socket_b.c_str());
}

}  // namespace
