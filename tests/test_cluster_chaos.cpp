// Cluster chaos suite (CTest labels: chaos, cluster).
//
// Extends the deterministic fault sweeps to the cluster's four sites —
// "cluster.forward", "cluster.backend", "cache.read", "cache.write" —
// plus real backend-kill scenarios: ring failover with in-process
// backends, and kill -9 of supervised fork/exec'd backend processes
// mid-stream at replication_factor=2. The invariants: every request
// ends in a structured ok/degraded/error/timeout response (no crash,
// no hang), zero requests are lost at R=2, no stale or partial cache
// file is ever left on disk, a degraded result is never cached, and a
// backend that served only cacheable requests leaves an empty journal.
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
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/disk_cache.h"
#include "cluster/dispatcher.h"
#include "cluster/journal.h"
#include "cluster/supervisor.h"
#include "core/replication.h"
#include "service/server.h"

namespace {

using namespace decompeval;
using cluster::ClusterBackend;
using cluster::ClusterBackendOptions;
using cluster::DiskCache;
using cluster::DiskCacheOptions;
using cluster::Dispatcher;
using cluster::DispatcherOptions;
using service::Json;
using util::FaultPlan;
using util::FaultSpec;

const std::vector<std::pair<std::string, FaultSpec>>& schedules() {
  static const std::vector<std::pair<std::string, FaultSpec>> kSchedules = {
      {"never", FaultSpec::never()},
      {"once@0", FaultSpec::once(0)},
      {"every2", FaultSpec::every_nth(2)},
      {"always", FaultSpec::always()},
  };
  return kSchedules;
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/decompeval-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/decompeval-cchaos-" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

Json study_request(std::uint64_t seed) {
  Json req = Json::object();
  req.set("op", Json::string("run_study"));
  req.set("seed", Json::number(static_cast<double>(seed)));
  return req;
}

bool structured_status(const std::string& status) {
  return status == "ok" || status == "degraded" || status == "error" ||
         status == "deadline_exceeded" || status == "overloaded";
}

// Every entry in `dir` must be a complete, parseable cache file whose
// payload is a clean "ok" response — no temp litter, no torn writes,
// no cached degradation.
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

TEST(ClusterChaos, CacheFaultSweepNeverCrashesOrPoisonsTheCache) {
  for (const char* site : {"cache.read", "cache.write"}) {
    for (const auto& [schedule_name, spec] : schedules()) {
      const std::string label = std::string(site) + " x " + schedule_name;
      const std::string dir = fresh_cache_dir("sweep");

      FaultPlan plan;
      plan.set(site, spec);
      util::FaultInjector faults(plan);
      ClusterBackendOptions options;
      options.cache.directory = dir;
      options.cache.version = core::version();
      options.cache.faults = &faults;
      ClusterBackend backend(options);

      // Two seeds, twice each: the repeat exercises whatever mix of
      // hits/misses the schedule produces.
      for (int round = 0; round < 2; ++round)
        for (const std::uint64_t seed : {3u, 4u}) {
          const Json r = backend.handle(study_request(seed), nullptr);
          // Cache faults only cost reuse, never correctness.
          EXPECT_EQ(r.get_string("status", ""), "ok")
              << label << " seed=" << seed;
        }
      assert_cache_dir_clean(dir);

      // A write fault must abort the store outright: with "always", no
      // entry may ever appear.
      if (std::string(site) == "cache.write" && schedule_name == "always") {
        EXPECT_TRUE(!std::filesystem::exists(dir) ||
                    std::filesystem::is_empty(dir))
            << label;
        EXPECT_GT(backend.cache().stats().store_failures, 0u) << label;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(ClusterChaos, DispatcherFaultSweepAlwaysAnswersStructured) {
  for (const char* site : {"cluster.forward", "cluster.backend"}) {
    for (const auto& [schedule_name, spec] : schedules()) {
      const std::string label = std::string(site) + " x " + schedule_name;

      std::vector<std::unique_ptr<ClusterBackend>> backends;
      std::vector<std::unique_ptr<service::ReplicationServer>> servers;
      DispatcherOptions dispatch;
      dispatch.health_interval_ms = 10;  // heal fast under "always"
      dispatch.fault_plan.set(site, spec);
      for (int i = 0; i < 2; ++i) {
        const std::string id =
            "chaos-" + std::string(site) + "-" + std::to_string(i);
        backends.push_back(
            std::make_unique<ClusterBackend>(ClusterBackendOptions{}));
        service::ServerOptions server_options;
        server_options.socket_path = unique_socket_path(id + schedule_name);
        server_options.handler = backends.back()->handler();
        servers.push_back(
            std::make_unique<service::ReplicationServer>(server_options));
        servers.back()->start();
        cluster::BackendEndpoint endpoint;
        endpoint.id = id;
        endpoint.socket_path = server_options.socket_path;
        dispatch.backends.push_back(endpoint);
      }
      Dispatcher dispatcher(dispatch);
      dispatcher.start();

      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Json r = dispatcher.handle(study_request(seed), nullptr);
        const std::string status = r.get_string("status", "");
        EXPECT_TRUE(structured_status(status))
            << label << " seed=" << seed << " gave '" << status << "'";
        if (status == "error") {
          EXPECT_FALSE(r.get_string("error", "").empty()) << label;
        }
      }
      // The dispatcher still answers control traffic after the sweep.
      Json stats_req = Json::object();
      stats_req.set("op", Json::string("cluster_stats"));
      EXPECT_EQ(dispatcher.handle(stats_req, nullptr).get_string("status", ""),
                "ok")
          << label;
      dispatcher.stop();
      for (auto& server : servers) server->stop();
    }
  }
}

TEST(ClusterChaos, BackendKillMidStreamFailsOverWithoutStaleCacheFiles) {
  std::vector<std::unique_ptr<ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::vector<std::string> dirs;
  DispatcherOptions dispatch;
  dispatch.health_interval_ms = 20;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "kill-" + std::to_string(i);
    dirs.push_back(fresh_cache_dir(id));
    ClusterBackendOptions backend_options;
    backend_options.cache.directory = dirs.back();
    backend_options.cache.version = core::version();
    backends.push_back(std::make_unique<ClusterBackend>(backend_options));
    service::ServerOptions server_options;
    server_options.socket_path = unique_socket_path(id);
    server_options.handler = backends.back()->handler();
    servers.push_back(
        std::make_unique<service::ReplicationServer>(server_options));
    servers.back()->start();
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = server_options.socket_path;
    dispatch.backends.push_back(endpoint);
  }
  Dispatcher dispatcher(dispatch);
  dispatcher.start();

  // Warm half the keys, kill a backend, then hit both the warm and cold
  // halves. Everything must still answer ok via the ring.
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    ASSERT_EQ(dispatcher.handle(study_request(seed), nullptr)
                  .get_string("status", ""),
              "ok");
  servers[1]->stop();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Json r = dispatcher.handle(study_request(seed), nullptr);
    EXPECT_EQ(r.get_string("status", ""), "ok") << "seed=" << seed;
  }
  EXPECT_EQ(dispatcher.stats().exhausted, 0u);
  for (const std::string& dir : dirs) assert_cache_dir_clean(dir);

  dispatcher.stop();
  for (auto& server : servers) server->stop();
  for (const std::string& dir : dirs) std::filesystem::remove_all(dir);
}

// --- supervised-process chaos: kill -9 real backends mid-stream ------------

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

cluster::SupervisedBackend supervised_spec(
    const std::string& id, const std::string& socket_path,
    const std::string& shard_dir, std::vector<std::string> extra_args = {}) {
  cluster::SupervisedBackend spec;
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

TEST(ClusterChaos, SupervisedKill9MidStreamLosesNothingAtR2) {
  constexpr int kBackends = 3;
  cluster::SupervisorOptions supervise;
  DispatcherOptions dispatch;
  std::vector<std::string> shard_dirs;
  for (int i = 0; i < kBackends; ++i) {
    const std::string id = "sk9-" + std::to_string(i);
    shard_dirs.push_back(fresh_cache_dir(id));
    cleanup_shard(shard_dirs.back());
    const std::string socket_path = unique_socket_path(id);
    supervise.backends.push_back(
        supervised_spec(id, socket_path, shard_dirs.back()));
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = socket_path;
    dispatch.backends.push_back(endpoint);
  }
  cluster::Supervisor supervisor(supervise);
  supervisor.start();
  for (const auto& spec : supervise.backends)
    ASSERT_TRUE(supervisor.wait_until_serving(spec.id, 15000)) << spec.id;

  dispatch.replication_factor = 2;
  dispatch.health_interval_ms = 20;
  Dispatcher dispatcher(dispatch);
  dispatcher.start();

  // Cold pass: every result is computed and cached on its primary.
  // Record the reference dumps.
  std::vector<std::string> reference;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Json r = dispatcher.handle(study_request(seed), nullptr);
    ASSERT_EQ(r.get_string("status", ""), "ok") << "seed=" << seed;
    reference.push_back(r.dump());
  }

  // Kill -9 a backend MID-stream: three requests in, the process dies,
  // the remaining three (plus a re-ask of the first three) must still
  // answer bit-identically from the surviving backends, which recompute
  // what the victim owned.
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    EXPECT_EQ(dispatcher.handle(study_request(seed), nullptr).dump(),
              reference[seed - 1]);
  supervisor.kill_backend("sk9-0", SIGKILL);
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    EXPECT_EQ(dispatcher.handle(study_request(seed), nullptr).dump(),
              reference[seed - 1])
        << "request lost after kill -9, seed=" << seed;
  EXPECT_EQ(dispatcher.stats().exhausted, 0u);

  // The supervisor restarts and re-warms the victim; once it is back,
  // the stream stays whole and bit-identical through another full pass.
  ASSERT_TRUE(wait_for([&] { return supervisor.restarts_of("sk9-0") >= 1; },
                       20000));
  ASSERT_TRUE(supervisor.wait_until_serving("sk9-0", 15000));
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    EXPECT_EQ(dispatcher.handle(study_request(seed), nullptr).dump(),
              reference[seed - 1]);
  EXPECT_EQ(dispatcher.stats().exhausted, 0u);

  dispatcher.stop();
  supervisor.stop();
  EXPECT_TRUE(no_children_left());

  // Post-mortem on what the kill left on disk: every cache directory is
  // parseable with only clean "ok" entries, and every journal replays
  // clean and empty — cacheable requests are never journaled.
  for (const std::string& dir : shard_dirs) {
    assert_cache_dir_clean(dir);
    const std::string journal_path = dir + ".journal";
    const cluster::ReplayedJournal replayed =
        cluster::Journal::replay(journal_path);
    EXPECT_TRUE(replayed.clean) << journal_path << ": " << replayed.warning;
    EXPECT_EQ(replayed.records.size(), 0u) << journal_path;
    cleanup_shard(dir);
  }
}

TEST(ClusterChaos, CrashLoopingBackendKeepsTheStreamWhole) {
  // One backend _Exit(9)s on every second work request it sees; its
  // partner is healthy. At R=2 with supervision, a stream of requests
  // never loses one: an in-flight death fails over to the replica, and
  // the supervisor keeps resurrecting the crash-looper.
  const std::string dir_a = fresh_cache_dir("loop-a");
  const std::string dir_b = fresh_cache_dir("loop-b");
  cleanup_shard(dir_a);
  cleanup_shard(dir_b);
  const std::string socket_a = unique_socket_path("loop-a");
  const std::string socket_b = unique_socket_path("loop-b");
  cluster::SupervisorOptions supervise;
  supervise.backends = {
      supervised_spec("loop-a", socket_a, dir_a,
                      {"--exit-after-requests", "2"}),
      supervised_spec("loop-b", socket_b, dir_b)};
  cluster::Supervisor supervisor(supervise);
  supervisor.start();
  ASSERT_TRUE(supervisor.wait_until_serving("loop-a", 15000));
  ASSERT_TRUE(supervisor.wait_until_serving("loop-b", 15000));

  DispatcherOptions dispatch;
  dispatch.replication_factor = 2;
  dispatch.health_interval_ms = 20;
  const std::vector<std::pair<std::string, std::string>> endpoints = {
      {"loop-a", socket_a}, {"loop-b", socket_b}};
  for (const auto& [id, socket_path] : endpoints) {
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = socket_path;
    dispatch.backends.push_back(endpoint);
  }
  Dispatcher dispatcher(dispatch);
  dispatcher.start();

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Json r = dispatcher.handle(study_request(seed), nullptr);
    EXPECT_EQ(r.get_string("status", ""), "ok") << "seed=" << seed;
  }
  EXPECT_EQ(dispatcher.stats().exhausted, 0u);

  dispatcher.stop();
  supervisor.stop();
  EXPECT_TRUE(no_children_left());
  assert_cache_dir_clean(dir_a);
  assert_cache_dir_clean(dir_b);
  cleanup_shard(dir_a);
  cleanup_shard(dir_b);
  std::remove(socket_a.c_str());  // a backend that _Exit()s leaves it
  std::remove(socket_b.c_str());
}

TEST(ClusterChaos, DegradedBackendResultsAreNeverWrittenToDisk) {
  const std::string dir = fresh_cache_dir("degraded");
  ClusterBackendOptions options;
  options.cache.directory = dir;
  options.cache.version = core::version();
  options.service.fault_plan.set("study.shard", FaultSpec::always());
  options.service.backoff_initial_ms = 0.0;
  ClusterBackend backend(options);

  const Json r = backend.handle(study_request(5), nullptr);
  const std::string status = r.get_string("status", "");
  EXPECT_TRUE(status == "degraded" || status == "error") << status;
  EXPECT_TRUE(!std::filesystem::exists(dir) || std::filesystem::is_empty(dir));
  EXPECT_EQ(backend.cache().stats().stores, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
