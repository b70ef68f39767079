// Restart soak battery (CTest label: soak — excluded from every default
// sweep; run via `scripts/check.sh --soak` or `ctest -L soak`).
//
// Twenty kill -9 / restart cycles against a supervised, replicated
// (R=2) two-shard cluster under continuous request load. The bar after
// every single cycle, not just at the end: no request is ever lost or
// answers differently from the cold-pass reference, the supervisor
// resurrects and re-warms the victim, and teardown leaves no orphaned
// or zombie backend process. The cycle alternates which backend dies so
// both shards take every role (victim, surviving replica) ten times.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/dispatcher.h"
#include "cluster/supervisor.h"
#include "service/server.h"

namespace {

using namespace decompeval;
using cluster::Dispatcher;
using cluster::DispatcherOptions;
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
  return "/tmp/decompeval-soak-" + tag + "-" + std::to_string(::getpid()) +
         suffix;
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

// True once no child of this process remains (everything reaped).
bool no_children_left() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

// Every entry in `dir` is a complete, parseable cache file holding a
// clean "ok" response — 20 kills left no torn write behind.
void assert_cache_dir_clean(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ASSERT_EQ(entry.path().extension(), ".json")
        << "temp/partial file left behind: " << entry.path();
    std::ifstream in(entry.path());
    std::ostringstream content;
    content << in.rdbuf();
    Json envelope;
    ASSERT_NO_THROW(envelope = Json::parse(content.str())) << entry.path();
    const Json* response = envelope.get("response");
    ASSERT_NE(response, nullptr) << entry.path();
    EXPECT_EQ(response->get_string("status", ""), "ok") << entry.path();
  }
}

TEST(SoakTest, TwentyKillRestartCyclesUnderLoadLoseNothing) {
  constexpr int kCycles = 20;
  constexpr std::uint64_t kSeeds = 5;

  SupervisorOptions supervise;
  DispatcherOptions dispatch;
  std::vector<std::string> ids = {"soak-a", "soak-b"};
  std::vector<std::string> shard_dirs;
  for (const std::string& id : ids) {
    const std::string socket_path = unique_path(id, ".sock");
    shard_dirs.push_back(unique_path(id, ".cache"));
    cleanup_shard(shard_dirs.back());
    SupervisedBackend spec;
    spec.id = id;
    spec.socket_path = socket_path;
    // The journal lives NEXT TO the cache directory, not inside it: the
    // cache janitor sweeps stale non-.json files in its directory.
    spec.argv = {backend_binary(), "--socket", socket_path,
                 "--cache-dir", shard_dirs.back(),
                 "--journal", shard_dirs.back() + ".journal",
                 "--id", id};
    supervise.backends.push_back(spec);
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = socket_path;
    dispatch.backends.push_back(endpoint);
  }
  Supervisor supervisor(supervise);
  supervisor.start();
  for (const std::string& id : ids)
    ASSERT_TRUE(supervisor.wait_until_serving(id, 15000)) << id;

  dispatch.replication_factor = 2;
  dispatch.health_interval_ms = 20;
  Dispatcher dispatcher(dispatch);
  dispatcher.start();

  // Cold pass: every key's result is computed and cached on its
  // primary. A kill moves the victim's keys to the surviving shard, which
  // recomputes them bit-identically.
  std::vector<std::string> reference;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Json r = dispatcher.handle(study_request(seed), nullptr);
    ASSERT_EQ(r.get_string("status", ""), "ok") << "seed=" << seed;
    reference.push_back(r.dump());
  }

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::string& victim = ids[static_cast<std::size_t>(cycle) % 2];
    const std::uint64_t restarts_before = supervisor.restarts_of(victim);
    supervisor.kill_backend(victim, SIGKILL);

    // Load continues while the victim is down and while it restarts:
    // every response must match the reference bit-for-bit.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
      ASSERT_EQ(dispatcher.handle(study_request(seed), nullptr).dump(),
                reference[seed - 1])
          << "cycle=" << cycle << " victim=" << victim << " seed=" << seed;

    // Let the supervisor finish the resurrection before the next kill —
    // the soak is about surviving every cycle, not overlapping them.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (supervisor.restarts_of(victim) <= restarts_before &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_GT(supervisor.restarts_of(victim), restarts_before)
        << "cycle=" << cycle << " victim=" << victim;
    ASSERT_TRUE(supervisor.wait_until_serving(victim, 15000))
        << "cycle=" << cycle << " victim=" << victim;
    // The dispatcher's health prober must also see the resurrection:
    // killing the partner while this shard is still marked down would
    // leave a key with zero live replicas — an outage, not a soak.
    const auto up_deadline = std::chrono::steady_clock::now() +
                             std::chrono::seconds(20);
    while (!dispatcher.backend_up(victim) &&
           std::chrono::steady_clock::now() < up_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(dispatcher.backend_up(victim))
        << "cycle=" << cycle << " victim=" << victim;
  }

  // One more full pass with everything healthy, then the books.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
    EXPECT_EQ(dispatcher.handle(study_request(seed), nullptr).dump(),
              reference[seed - 1]);
  EXPECT_EQ(dispatcher.stats().exhausted, 0u);
  const cluster::SupervisorStats stats = supervisor.stats();
  EXPECT_GE(stats.restarts, static_cast<std::uint64_t>(kCycles));
  EXPECT_GE(stats.exits_observed, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(stats.gave_up, 0u);

  dispatcher.stop();
  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  for (const std::string& dir : shard_dirs) {
    assert_cache_dir_clean(dir);
    cleanup_shard(dir);
  }
}

}  // namespace
