// Sharded-cluster contract suite (CTest labels: tier1, cluster).
//
// Covers the consistent-hash ring, the persistent disk cache (round
// trips, version invalidation, corruption tolerance, concurrent
// writers), the TCP transport, and the dispatcher end-to-end: a request
// served through the dispatcher is bit-identical to asking a backend
// directly, to the offline pipeline, and to a cold-restart disk-cache
// hit. Replicated stream writes: an absolute write reaches its replicas
// while the primary still holds it, copies converge, a primary that is
// ahead catches its replica up, and a failover is not resent.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/disk_cache.h"
#include "cluster/dispatcher.h"
#include "cluster/hash_ring.h"
#include "core/replication.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace decompeval;
using cluster::ClusterBackend;
using cluster::ClusterBackendOptions;
using cluster::DiskCache;
using cluster::DiskCacheOptions;
using cluster::Dispatcher;
using cluster::DispatcherOptions;
using cluster::HashRing;
using service::Json;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/decompeval-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

// Fresh (empty) per-test cache directory under /tmp.
std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/decompeval-cache-" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

Json study_request(std::uint64_t seed) {
  Json req = Json::object();
  req.set("op", Json::string("run_study"));
  req.set("seed", Json::number(static_cast<double>(seed)));
  return req;
}

Json replication_request(double threads) {
  Json req = Json::object();
  req.set("op", Json::string("run_replication"));
  req.set("seed", Json::number(7));
  req.set("threads", Json::number(threads));
  req.set("run_models", Json::boolean(true));
  req.set("run_metrics", Json::boolean(false));
  return req;
}

DiskCacheOptions cache_options(const std::string& dir) {
  DiskCacheOptions o;
  o.directory = dir;
  o.version = core::version();
  return o;
}

TEST(HashRingTest, RoutingIsDeterministicAndFailoverOrderIsStable) {
  HashRing a(32), b(32);
  for (const char* id : {"alpha", "beta", "gamma"}) {
    a.add(id);
    b.add(id);
  }
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto route_a = a.route(key, 3);
    ASSERT_EQ(route_a.size(), 3u) << key;
    EXPECT_EQ(route_a, b.route(key, 3)) << key;
    // Distinct candidates, primary first.
    const std::set<std::string> distinct(route_a.begin(), route_a.end());
    EXPECT_EQ(distinct.size(), 3u) << key;
    EXPECT_EQ(a.primary(key), route_a.front()) << key;
  }
}

TEST(HashRingTest, KeysSpreadAcrossAllBackends) {
  HashRing ring(64);
  for (const char* id : {"alpha", "beta", "gamma", "delta"}) ring.add(id);
  std::set<std::string> primaries;
  for (int i = 0; i < 200; ++i)
    primaries.insert(ring.primary("seed=" + std::to_string(i)));
  EXPECT_EQ(primaries.size(), 4u);
}

TEST(HashRingTest, ReAddingABackendIsANoOp) {
  HashRing ring(16);
  ring.add("alpha");
  ring.add("alpha");
  EXPECT_EQ(ring.backend_count(), 1u);
}

TEST(DiskCacheTest, StoreThenLoadRoundTripsAcrossInstances) {
  const std::string dir = fresh_cache_dir("roundtrip");
  Json response = Json::object();
  response.set("status", Json::string("ok"));
  response.set("digest", Json::string("abc123"));

  const Json request = study_request(7);
  std::string digest;
  {
    DiskCache cache(cache_options(dir));
    digest = cache.digest(request);
    ASSERT_TRUE(cache.store(digest, response));
    Json loaded;
    ASSERT_TRUE(cache.load(digest, &loaded));  // read back from disk
    EXPECT_EQ(loaded.dump(), response.dump());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
  }
  // A fresh instance (cold restart) reads the same bytes from disk.
  DiskCache cold(cache_options(dir));
  Json loaded;
  ASSERT_TRUE(cold.load(digest, &loaded));
  EXPECT_EQ(loaded.dump(), response.dump());
  EXPECT_EQ(cold.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DiskCacheTest, CanonicalKeyIgnoresVolatileFieldsAndOrder) {
  Json a = Json::object();
  a.set("op", Json::string("run_study"));
  a.set("seed", Json::number(7));
  a.set("threads", Json::number(4));
  a.set("no_cache", Json::boolean(true));
  a.set("deadline_ms", Json::number(500));
  Json b = Json::object();
  b.set("seed", Json::number(7));
  b.set("op", Json::string("run_study"));
  EXPECT_EQ(service::canonical_request_key(a),
            service::canonical_request_key(b));
  Json c = Json::object();
  c.set("op", Json::string("run_study"));
  c.set("seed", Json::number(8));
  EXPECT_NE(service::canonical_request_key(a),
            service::canonical_request_key(c));
}

TEST(DiskCacheTest, BinaryVersionMismatchMissesAndLeavesTheFileAlone) {
  const std::string dir = fresh_cache_dir("version");
  Json response = Json::object();
  response.set("status", Json::string("ok"));
  const Json request = study_request(7);

  DiskCacheOptions v1 = cache_options(dir);
  v1.version = "1.0.0-test";
  DiskCache old_cache(v1);
  const std::string old_digest = old_cache.digest(request);
  ASSERT_TRUE(old_cache.store(old_digest, response));

  DiskCacheOptions v2 = cache_options(dir);
  v2.version = "2.0.0-test";
  DiskCache new_cache(v2);
  // The digest itself changes with the version, so the old entry can
  // never be addressed by the new binary...
  EXPECT_NE(new_cache.digest(request), old_digest);
  Json loaded;
  EXPECT_FALSE(new_cache.load(new_cache.digest(request), &loaded));
  // ...and even a forced lookup of the old digest is rejected by the
  // envelope's recorded version (defense in depth), with a warning.
  EXPECT_FALSE(new_cache.load(old_digest, &loaded));
  EXPECT_EQ(new_cache.stats().invalid_files, 1u);
  ASSERT_FALSE(new_cache.warnings().empty());
  // The old file is untouched — the old binary still hits it.
  Json still_there;
  DiskCache old_again(v1);
  EXPECT_TRUE(old_again.load(old_digest, &still_there));
  std::filesystem::remove_all(dir);
}

TEST(DiskCacheTest, CorruptedAndTruncatedFilesAreMissesWithWarnings) {
  const std::string dir = fresh_cache_dir("corrupt");
  DiskCache cache(cache_options(dir));
  const Json request = study_request(7);
  const std::string digest = cache.digest(request);

  for (const std::string& garbage :
       {std::string("not json at all"),
        std::string("{\"cache_version\":\"x\",\"resp"),  // truncated
        std::string("")}) {
    {
      std::ofstream out(cache.path_for(digest), std::ios::trunc);
      out << garbage;
    }
    DiskCache fresh(cache_options(dir));  // bypass the memory front
    Json loaded;
    EXPECT_FALSE(fresh.load(digest, &loaded)) << "garbage: " << garbage;
    EXPECT_EQ(fresh.stats().invalid_files, 1u);
    ASSERT_FALSE(fresh.warnings().empty());
    EXPECT_NE(fresh.warnings().back().find(digest), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskCacheTest, ConcurrentWritersOfTheSameDigestLeaveOneValidFile) {
  const std::string dir = fresh_cache_dir("writers");
  DiskCache cache(cache_options(dir));
  const Json request = study_request(7);
  const std::string digest = cache.digest(request);
  Json response = Json::object();
  response.set("status", Json::string("ok"));
  response.set("payload", Json::string("identical-for-every-writer"));

  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i)
    writers.emplace_back([&] { cache.store(digest, response); });
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(cache.stats().stores, 8u);
  EXPECT_EQ(cache.stats().store_failures, 0u);

  // Exactly one final file, fully valid; no temp litter.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1u);
  DiskCache fresh(cache_options(dir));
  Json loaded;
  ASSERT_TRUE(fresh.load(digest, &loaded));
  EXPECT_EQ(loaded.dump(), response.dump());
  std::filesystem::remove_all(dir);
}

TEST(DiskCacheTest, DegradedResponsesAreNeverStored) {
  const std::string dir = fresh_cache_dir("degraded");
  DiskCache cache(cache_options(dir));
  Json degraded = Json::object();
  degraded.set("status", Json::string("degraded"));
  EXPECT_FALSE(cache.store("deadbeef", degraded));
  EXPECT_FALSE(std::filesystem::exists(cache.path_for("deadbeef")));
  std::filesystem::remove_all(dir);
}

TEST(ClusterTest, TcpTransportAnswersIdenticallyToUnix) {
  service::ServerOptions options;
  options.socket_path = unique_socket_path("tcpunix");
  options.tcp_port = 0;  // ephemeral
  options.workers = 2;
  service::ReplicationServer server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  service::ServiceClient unix_client, tcp_client;
  unix_client.connect(options.socket_path);
  tcp_client.connect_tcp("127.0.0.1", server.tcp_port());

  const Json req = study_request(7);
  const Json via_unix = unix_client.call(req);
  const Json via_tcp = tcp_client.call(req);
  ASSERT_EQ(via_unix.get_string("status", ""), "ok");
  EXPECT_EQ(via_unix.dump(), via_tcp.dump());
  server.stop();
}

TEST(ClusterTest, TcpOnlyServerNeedsNoSocketPath) {
  service::ServerOptions options;
  options.tcp_port = 0;
  service::ReplicationServer server(options);
  server.start();
  service::ServiceClient client;
  client.connect_tcp("127.0.0.1", server.tcp_port());
  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  EXPECT_EQ(client.call(ping).get_string("status", ""), "ok");
  server.stop();
}

TEST(ClusterTest, ServerWithNoListenerRefusesToStart) {
  service::ServerOptions options;  // no socket_path, tcp disabled
  service::ReplicationServer server(options);
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(ClusterTest, ColdRestartServesBitIdenticalResultFromDisk) {
  const std::string dir = fresh_cache_dir("restart");
  const Json request = study_request(11);
  std::string first;
  {
    ClusterBackendOptions options;
    options.cache = cache_options(dir);
    ClusterBackend backend(options);
    first = backend.handle(request, nullptr).dump();
    EXPECT_EQ(backend.cache().stats().stores, 1u);
  }
  // "Restart": a brand-new process image would rebuild exactly this
  // state — fresh core, fresh memory cache, same directory.
  ClusterBackendOptions options;
  options.cache = cache_options(dir);
  ClusterBackend restarted(options);
  const Json again = restarted.handle(request, nullptr);
  EXPECT_EQ(again.dump(), first);
  EXPECT_EQ(restarted.cache().stats().disk_hits, 1u);
  EXPECT_EQ(restarted.core().stats().requests, 0u);  // never recomputed

  // cache_stats reports the disk layer on top of the core's counters.
  Json stats_req = Json::object();
  stats_req.set("op", Json::string("cache_stats"));
  const Json stats = restarted.handle(stats_req, nullptr);
  EXPECT_EQ(stats.get_string("status", ""), "ok");
  EXPECT_EQ(stats.get_number("disk_hits", -1), 1.0);
  EXPECT_EQ(stats.get_bool("disk_enabled", false), true);
  std::filesystem::remove_all(dir);
}

// `n` backends served over Unix sockets at the default 2 workers, each
// with its own disk cache dir, listed in `dispatch` for a dispatcher.
// `wrap` may decorate each backend's handler, and `net_faults[i]` arms
// backend i's net.* sites.
struct BackendSet {
  using Handler = std::function<Json(const Json&, const std::atomic<bool>*)>;

  std::vector<std::unique_ptr<ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::vector<std::string> cache_dirs;
  DispatcherOptions dispatch;

  BackendSet(const std::string& tag, std::size_t n,
             const std::function<Handler(Handler)>& wrap = {},
             const std::vector<util::FaultPlan>& net_faults = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string id = tag + "-backend-" + std::to_string(i);
      cache_dirs.push_back(fresh_cache_dir(id));
      ClusterBackendOptions backend_options;
      backend_options.cache = cache_options(cache_dirs.back());
      backends.push_back(std::make_unique<ClusterBackend>(backend_options));
      service::ServerOptions server_options;
      server_options.socket_path = unique_socket_path(id);
      server_options.handler = wrap ? wrap(backends.back()->handler())
                                    : backends.back()->handler();
      if (i < net_faults.size()) server_options.fault_plan = net_faults[i];
      servers.push_back(
          std::make_unique<service::ReplicationServer>(server_options));
      servers.back()->start();
      cluster::BackendEndpoint endpoint;
      endpoint.id = id;
      endpoint.socket_path = server_options.socket_path;
      dispatch.backends.push_back(endpoint);
    }
  }

  ~BackendSet() {
    for (auto& server : servers) server->stop();
    for (const std::string& dir : cache_dirs) std::filesystem::remove_all(dir);
  }

  // The first seed from `from` whose run_study key the ring puts on
  // backend `primary` first.
  std::uint64_t seed_owned_by(const Dispatcher& dispatcher,
                              std::size_t primary, std::uint64_t from) const {
    for (std::uint64_t seed = from;; ++seed)
      if (dispatcher.ring().primary(service::canonical_request_key(
              study_request(seed))) == dispatch.backends[primary].id)
        return seed;
  }
};

// A BackendSet behind a dispatcher and a front server, ready to use.
struct TestCluster : BackendSet {
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<service::ReplicationServer> front;
  std::string front_socket;

  explicit TestCluster(const std::string& tag, std::size_t n,
                       util::FaultPlan dispatcher_faults = {},
                       std::size_t replication_factor = 1)
      : BackendSet(tag, n) {
    dispatch.fault_plan = std::move(dispatcher_faults);
    dispatch.health_interval_ms = 20;
    dispatch.replication_factor = replication_factor;
    dispatcher = std::make_unique<Dispatcher>(dispatch);
    dispatcher->start();

    service::ServerOptions front_options;
    front_socket = unique_socket_path(tag + "-front");
    front_options.socket_path = front_socket;
    front_options.workers = 2;
    front_options.max_queue = 16;
    front_options.handler = dispatcher->handler();
    front = std::make_unique<service::ReplicationServer>(front_options);
    front->start();
  }

  ~TestCluster() {
    if (front) front->stop();
    if (dispatcher) dispatcher->stop();
  }
};

TEST(ClusterTest, DispatcherMatchesDirectBackendAndOfflineBitForBit) {
  // Offline reference digest.
  core::ReplicationConfig config;
  config.seed = 7;
  config.run_metrics = false;
  const core::ReplicationReport offline = core::run_replication(config);
  ASSERT_FALSE(offline.degraded);
  char expected[20];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(fnv1a(offline.rendered)));

  TestCluster cluster("identity", 2);
  service::ServiceClient client;
  client.connect(cluster.front_socket);

  // Dispatcher-served result at every thread count == offline digest.
  std::string dispatcher_dump;
  for (const double threads : {1.0, 2.0, 4.0}) {
    const Json r = client.call(replication_request(threads));
    ASSERT_EQ(r.get_string("status", ""), "ok") << "threads=" << threads;
    EXPECT_EQ(r.get_string("digest", ""), expected) << "threads=" << threads;
    if (dispatcher_dump.empty()) dispatcher_dump = r.dump();
    EXPECT_EQ(r.dump(), dispatcher_dump) << "threads=" << threads;
  }

  // Direct call to whichever backend owns the key: identical bytes.
  const std::string key =
      service::canonical_request_key(replication_request(1));
  const std::string owner = cluster.dispatcher->ring().primary(key);
  for (std::size_t i = 0; i < cluster.backends.size(); ++i) {
    if (cluster.servers[i]->socket_path().find(owner) == std::string::npos)
      continue;
    service::ServiceClient direct;
    direct.connect(cluster.servers[i]->socket_path());
    EXPECT_EQ(direct.call(replication_request(1)).dump(), dispatcher_dump);
  }
}

TEST(ClusterTest, AnnotateThroughDispatcherMatchesDirectCoreBitForBit) {
  const std::string source =
      "int first(int a1) { int v5; v5 = a1; return v5 + v5; }\n"
      "\n"
      "int second(int a2) {\n  int dead = a2;\n  return a2;\n}\n";
  const auto annotate_request = [&](double threads) {
    Json req = Json::object();
    req.set("op", Json::string("annotate"));
    req.set("source", Json::string(source));
    req.set("threads", Json::number(threads));
    return req;
  };

  // Offline reference: a standalone core answering the same request.
  service::ServiceCore reference;
  const Json offline = reference.handle(annotate_request(1));
  ASSERT_EQ(offline.get_string("status", ""), "ok");
  const std::string expected = offline.dump();

  TestCluster cluster("annotate", 2);
  service::ServiceClient client;
  client.connect(cluster.front_socket);
  for (const double threads : {1.0, 2.0, 4.0}) {
    const Json r = client.call(annotate_request(threads));
    EXPECT_EQ(r.dump(), expected) << "threads=" << threads;
  }

  // Incremental serving: the baseline steers routing but never leaks into
  // the payload, so a baseline-carrying edit equals its from-scratch twin.
  std::string edited = source;
  const std::size_t at = edited.find("v5 + v5");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 7, "v5 * v5");
  Json incremental = Json::object();
  incremental.set("op", Json::string("annotate"));
  incremental.set("source", Json::string(edited));
  incremental.set("baseline", Json::string(source));
  Json scratch = Json::object();
  scratch.set("op", Json::string("annotate"));
  scratch.set("source", Json::string(edited));
  EXPECT_EQ(client.call(incremental).dump(),
            reference.handle(scratch).dump());
}

TEST(ClusterTest, FailoverToNextRingNodeWhenABackendDies) {
  TestCluster cluster("failover", 2);
  service::ServiceClient client;
  client.connect(cluster.front_socket);

  // Kill backend 0 outright. Every seed — including those whose primary
  // was the dead backend — must still be answered by the survivor.
  cluster.servers[0]->stop();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Json r = client.call(study_request(seed));
    EXPECT_EQ(r.get_string("status", ""), "ok") << "seed=" << seed;
  }
  const cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_GT(stats.forwarded, 0u);
}

TEST(ClusterTest, HealthProberRestoresARecoveredBackend) {
  TestCluster cluster("recover", 2);
  const std::string dead_id = cluster.dispatcher->ring().backends()[0];
  const std::string dead_socket = cluster.servers[0]->socket_path();
  cluster.servers[0]->stop();

  service::ServiceClient client;
  client.connect(cluster.front_socket);
  // Drive requests until the dispatcher notices the outage.
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    client.call(study_request(seed));
  ASSERT_FALSE(cluster.dispatcher->backend_up(dead_id));

  // Revive on the same socket; the prober should mark it up again.
  service::ServerOptions revived_options;
  revived_options.socket_path = dead_socket;
  revived_options.handler = cluster.backends[0]->handler();
  service::ReplicationServer revived(revived_options);
  revived.start();
  for (int i = 0; i < 200 && !cluster.dispatcher->backend_up(dead_id); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(cluster.dispatcher->backend_up(dead_id));
  revived.stop();
}

TEST(ClusterTest, DispatcherShutdownWithQueuedAndInFlightNeverDeadlocks) {
  // Backends that stall every request, a single front worker, and more
  // clients than queue slots: stopping the front server mid-burst must
  // answer or close every connection — never deadlock.
  util::FaultPlan stall_plan;
  stall_plan.set("service.stall", util::FaultSpec::always());

  std::vector<std::unique_ptr<ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  DispatcherOptions dispatch;
  for (int i = 0; i < 2; ++i) {
    const std::string id = "stall-backend-" + std::to_string(i);
    ClusterBackendOptions backend_options;
    backend_options.service.fault_plan = stall_plan;
    backend_options.service.stall_max_ms = 100;
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

  service::ServerOptions front_options;
  front_options.socket_path = unique_socket_path("stall-front");
  front_options.workers = 1;
  front_options.max_queue = 2;
  front_options.handler = dispatcher.handler();
  service::ReplicationServer front(front_options);
  front.start();

  std::atomic<int> structured{0}, closed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      try {
        service::ServiceClient c;
        c.connect(front_options.socket_path);
        const Json r = c.call(study_request(100 + i));
        if (!r.get_string("status", "").empty()) ++structured;
      } catch (const std::exception&) {
        ++closed;  // connection torn down by shutdown — acceptable
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  front.stop();  // must return; the test hanging here is the failure
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(structured.load() + closed.load(), 4);
  dispatcher.stop();
  for (auto& server : servers) server->stop();
}

// --- replication: ring invariants -----------------------------------------

TEST(HashRingTest, ReplicasForIsTheDistinctPrefixOfTheFailoverWalk) {
  HashRing ring(64);
  const std::vector<std::string> ids = {"a", "b", "c", "d", "e"};
  for (const std::string& id : ids) ring.add(id);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto walk = ring.route(key, ids.size());
    ASSERT_EQ(walk.size(), ids.size()) << key;
    for (std::size_t r = 1; r <= ids.size(); ++r) {
      const auto replicas = ring.replicas_for(key, r);
      ASSERT_EQ(replicas.size(), r) << key << " r=" << r;
      // R distinct backends, and exactly the first R of the walk — so the
      // write set and the read/failover order always agree.
      const std::set<std::string> distinct(replicas.begin(), replicas.end());
      EXPECT_EQ(distinct.size(), r) << key << " r=" << r;
      for (std::size_t j = 0; j < r; ++j)
        EXPECT_EQ(replicas[j], walk[j]) << key << " r=" << r << " j=" << j;
    }
    EXPECT_EQ(ring.replicas_for(key, 1).front(), ring.primary(key)) << key;
  }
}

TEST(HashRingTest, RemovingABackendOnlyPromotesWalkSuccessors) {
  // Property test over 10k keys: when one backend leaves, a key's replica
  // set changes only by promoting the next walk candidate — survivors
  // keep their spot — and only keys that replicated onto the departed
  // backend move at all (expected fraction R/N; assert 2R/N for slack).
  constexpr std::size_t kKeys = 10000;
  constexpr std::size_t kR = 2;
  const std::vector<std::string> ids = {"n0", "n1", "n2", "n3",
                                        "n4", "n5", "n6", "n7"};
  const std::string departed = "n3";
  HashRing before(64), after(64);
  for (const std::string& id : ids) {
    before.add(id);
    if (id != departed) after.add(id);
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto replicas_before = before.replicas_for(key, kR);
    const auto replicas_after = after.replicas_for(key, kR);
    // The departed backend's points vanish; every other point keeps its
    // position, so the after-walk is the before-walk with `departed`
    // deleted. Its prefix is therefore exactly:
    const auto full_walk = before.route(key, ids.size());
    std::vector<std::string> expected;
    for (const std::string& id : full_walk) {
      if (id == departed) continue;
      expected.push_back(id);
      if (expected.size() == kR) break;
    }
    ASSERT_EQ(replicas_after, expected) << key;
    if (replicas_after != replicas_before) {
      ++changed;
      // Only keys that actually held data on the departed backend move.
      EXPECT_NE(std::find(replicas_before.begin(), replicas_before.end(),
                          departed),
                replicas_before.end())
          << key;
    }
  }
  EXPECT_LE(changed, kKeys * 2 * kR / ids.size())
      << "removing one of " << ids.size() << " backends rebalanced "
      << changed << " of " << kKeys << " keys";
  EXPECT_GT(changed, 0u);  // the property test actually exercised moves
}

// --- replication: dispatcher fan-out --------------------------------------

// The answer line of a request sent straight to `socket_path`.
Json call_at(const std::string& socket_path, const Json& request) {
  service::ServiceClient client;
  client.connect(socket_path);
  return client.call(request);
}

TEST(ClusterTest, CacheableReadsReachOnlyThePrimaryAndFailOverBitIdentically) {
  TestCluster cluster("replfan", 3, {}, /*replication_factor=*/2);
  service::ServiceClient client;
  client.connect(cluster.front_socket);

  // One cold read and five warm repeats, each forwarded (the dispatcher
  // caches nothing here).
  const Json request = study_request(21);
  const Json cold = client.call(request);
  ASSERT_EQ(cold.get_string("status", ""), "ok");
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(client.call(request).dump(), cold.dump());

  // R=2 replicates stream writes only: the read's ring replica was sent
  // nothing at all and stored nothing.
  const std::string key = service::canonical_request_key(request);
  const auto replicas = cluster.dispatcher->ring().replicas_for(key, 2);
  ASSERT_EQ(replicas.size(), 2u);
  std::size_t primary = 0, replica = 0;
  for (std::size_t i = 0; i < cluster.backends.size(); ++i) {
    const std::string id = "replfan-backend-" + std::to_string(i);
    if (id == replicas[0]) primary = i;
    if (id == replicas[1]) replica = i;
  }
  const Json replica_server = call_at(
      cluster.servers[replica]->socket_path(),
      Json::parse(R"({"op":"server_stats"})"));
  EXPECT_EQ(replica_server.get_number("interactive_enqueued", -1), 0.0);
  EXPECT_EQ(replica_server.get_number("batch_enqueued", -1), 0.0);
  EXPECT_EQ(cluster.backends[replica]->cache().stats().stores, 0u);
  EXPECT_EQ(cluster.backends[primary]->cache().stats().stores, 1u);
  cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_EQ(stats.replicated, 0u);
  EXPECT_EQ(stats.replication_failures, 0u);

  // Stop the primary: the walk lands the retry on the replica, which
  // computes the same bytes and stores them — zero lost requests.
  cluster.servers[primary]->stop();
  const Json failover = client.call(request);
  EXPECT_EQ(failover.dump(), cold.dump());
  stats = cluster.dispatcher->stats();
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.replicated, 0u);
  EXPECT_EQ(cluster.backends[replica]->cache().stats().stores, 1u);
}

TEST(ClusterTest, ForgedCacheInstallIsABadRequestAndNeverServed) {
  TestCluster cluster("forged", 2, {}, /*replication_factor=*/2);
  const Json read = study_request(23);
  // The retired install op's exact shape, carrying a made-up answer for a
  // key nobody has computed yet.
  Json forged = Json::object();
  forged.set("op", Json::string("cache_install"));
  forged.set("request", read);
  forged.set("response",
             Json::parse(R"({"status":"ok","op":"run_study",)"
                         R"("digest":"0000000000000000","recruited":1,)"
                         R"("responses":1,"excluded":0})"));

  service::ServiceCore core;
  EXPECT_EQ(core.handle(forged).get_string("status", ""), "bad_request");
  for (const auto& server : cluster.servers)
    EXPECT_EQ(call_at(server->socket_path(), forged).get_string("status", ""),
              "bad_request");
  EXPECT_EQ(call_at(cluster.front_socket, forged).get_string("status", ""),
            "bad_request");
  for (const auto& backend : cluster.backends)
    EXPECT_EQ(backend->cache().stats().stores, 0u);

  // The key still reads as computed, through the front and from each
  // backend alike.
  const std::string computed = core.handle(read).dump();
  EXPECT_EQ(call_at(cluster.front_socket, read).dump(), computed);
  for (const auto& server : cluster.servers)
    EXPECT_EQ(call_at(server->socket_path(), read).dump(), computed);
}

TEST(ClusterTest, OneWorkerFrontForwardsConcurrentReadsInOverlappingTime) {
  // Backend requests wait (up to 2 s each) until two have been inside at
  // once, so forwards that overlap in time pass at once.
  std::mutex mutex;
  std::condition_variable cv;
  int inside = 0, peak = 0;
  const auto overlap = [&](BackendSet::Handler handle) -> BackendSet::Handler {
    return [&, handle](const Json& request, const std::atomic<bool>* cancel) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        peak = std::max(peak, ++inside);
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(2), [&] { return peak >= 2; });
      }
      Json response = handle(request, cancel);
      const std::lock_guard<std::mutex> lock(mutex);
      --inside;
      return response;
    };
  };
  BackendSet set("overlap", 2, overlap);
  Dispatcher dispatcher(set.dispatch);
  dispatcher.start();
  service::ServerOptions front_options;
  front_options.socket_path = unique_socket_path("overlap-front");
  front_options.workers = 1;
  front_options.handler = dispatcher.handler();
  service::ReplicationServer front(front_options);
  front.start();

  std::vector<std::string> statuses(4);
  std::vector<std::thread> clients;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < statuses.size(); ++i)
    clients.emplace_back([&, i] {
      service::ServiceClient client;
      client.connect(front_options.socket_path);
      statuses[i] = client.call(study_request(300 + i)).get_string("status", "");
    });
  for (std::thread& t : clients) t.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  for (const std::string& status : statuses) EXPECT_EQ(status, "ok");
  EXPECT_GE(peak, 2);
  // One forward at a time, every request would wait out the 2 s.
  EXPECT_LT(elapsed_s, 4.0);
  service::ServiceClient probe;
  probe.connect(front_options.socket_path);
  const Json stats = probe.call(Json::parse(R"({"op":"server_stats"})"));
  EXPECT_EQ(stats.get_number("workers", -1), 1.0);
  EXPECT_GE(stats.get_number("threads", -1), 2.0);
  front.stop();
  dispatcher.stop();
}

TEST(ClusterTest, StalledStreamWriteCountsAsAFailureAndLeavesTheReplicaUp) {
  // Backend 1's second answer never leaves: that is the stream absorb
  // replicated below (its first is the replicated open).
  util::FaultPlan stall_second;
  stall_second.set("net.stall", util::FaultSpec::once(1));
  BackendSet set("slowwrite", 2, {}, {util::FaultPlan{}, stall_second});
  set.dispatch.replication_factor = 2;
  set.dispatch.forward_timeout_ms = 300;
  set.dispatch.health_interval_ms = 0;  // no prober to mask a down mark
  Dispatcher dispatcher(set.dispatch);
  const std::string replica = set.dispatch.backends[1].id;
  const auto open_request = [](const std::string& stream) {
    Json r = Json::object();
    r.set("op", Json::string("stream_open"));
    r.set("stream", Json::string(stream));
    r.set("population", Json::number(24));
    return r;
  };
  // The first stream id from "s0" on whose ring walk `backend` is first.
  const auto stream_owned_by = [&](std::size_t backend) {
    for (int i = 0;; ++i) {
      const std::string stream = "s" + std::to_string(i);
      std::string key;
      service::routing_key(open_request(stream), key);
      if (dispatcher.ring().primary(key) == set.dispatch.backends[backend].id)
        return stream;
    }
  };

  // A cacheable read, warmed on its owner directly so it answers well
  // inside the short timeout, sends the replica nothing.
  const std::uint64_t on_primary = set.seed_owned_by(dispatcher, 0, 1);
  ASSERT_EQ(call_at(set.servers[0]->socket_path(), study_request(on_primary))
                .get_string("status", ""),
            "ok");
  EXPECT_EQ(dispatcher.handle(study_request(on_primary), nullptr)
                .get_string("status", ""),
            "ok");
  cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 0u);
  EXPECT_EQ(stats.replication_failures, 0u);

  // A stream on backend 0: its open reaches the replica, its absorb is
  // applied there but the answer stalls past the timeout.
  const std::string stream = stream_owned_by(0);
  EXPECT_EQ(dispatcher.handle(open_request(stream), nullptr)
                .get_string("status", ""),
            "ok");
  Json absorb = Json::object();
  absorb.set("op", Json::string("stream_absorb"));
  absorb.set("stream", Json::string(stream));
  absorb.set("upto", Json::number(20));
  EXPECT_EQ(dispatcher.handle(absorb, nullptr).get_string("status", ""),
            "ok");
  stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 1u);
  EXPECT_EQ(stats.replication_failures, 1u);
  EXPECT_TRUE(dispatcher.backend_up(replica));

  // The replica still serves what it owns, with nothing skipped, and
  // replicates it back.
  EXPECT_EQ(dispatcher.handle(open_request(stream_owned_by(1)), nullptr)
                .get_string("status", ""),
            "ok");
  stats = dispatcher.stats();
  EXPECT_EQ(stats.down_skips, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.replicated, 2u);
  dispatcher.stop();
}

// --- stream writes: replica legs beside the primary's ----------------------

Json stream_op(const std::string& op, const std::string& stream) {
  Json r = Json::object();
  r.set("op", Json::string(op));
  r.set("stream", Json::string(stream));
  if (op == "stream_open") r.set("population", Json::number(24));
  return r;
}

Json absorb_upto(const std::string& stream, double upto) {
  Json r = stream_op("stream_absorb", stream);
  r.set("upto", Json::number(upto));
  return r;
}

// The first stream id from "s0" whose ring walk starts at `backend`.
std::string stream_owned_by(const Dispatcher& dispatcher,
                            const BackendSet& set, std::size_t backend) {
  for (int i = 0;; ++i) {
    const std::string stream = "s" + std::to_string(i);
    std::string key;
    service::routing_key(stream_op("stream_open", stream), key);
    if (dispatcher.ring().primary(key) == set.dispatch.backends[backend].id)
      return stream;
  }
}

// Backend `backend`'s stream_stats, asked on its own socket.
Json stats_at(const BackendSet& set, std::size_t backend,
              const std::string& stream) {
  return call_at(set.servers[backend]->socket_path(),
                 stream_op("stream_stats", stream));
}

TEST(ClusterTest, AbsoluteStreamWriteReachesTheReplicaWhileThePrimaryIsHeld) {
  // Backend 0 holds every stream_absorb until the latch opens.
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> wrapped{0};
  const auto hold_first = [&](BackendSet::Handler handle) {
    const bool held = wrapped.fetch_add(1) == 0;
    return BackendSet::Handler(
        [&, handle, held](const Json& request, const std::atomic<bool>* cancel) {
          if (held && request.get_string("op", "") == "stream_absorb") {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return released; });
          }
          return handle(request, cancel);
        });
  };
  BackendSet set("heldprimary", 2, hold_first);
  set.dispatch.replication_factor = 2;
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  ASSERT_EQ(dispatcher.handle(stream_op("stream_open", stream), nullptr)
                .get_string("status", ""),
            "ok");

  Json answer;
  std::thread writer(
      [&] { answer = dispatcher.handle(absorb_upto(stream, 120), nullptr); });
  // The replica applies the write while the primary still holds it. A
  // replica leg that waited for the primary's answer would never get here
  // before the latch opens: this wait would run out.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool replica_applied = false;
  while (!replica_applied && std::chrono::steady_clock::now() < give_up) {
    replica_applied = stats_at(set, 1, stream).get_number("emitted", -1) == 120;
    if (!replica_applied)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(replica_applied);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_EQ(answer.get_string("status", ""), "ok");
  EXPECT_EQ(answer.get_number("emitted", -1), 120.0);
  EXPECT_EQ(stats_at(set, 1, stream).get_string("digest", ""),
            stats_at(set, 0, stream).get_string("digest", ""));
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 2u);  // the open and the absorb
  EXPECT_EQ(stats.replication_failures, 0u);
  dispatcher.stop();
}

TEST(ClusterTest, ThreeCopiesOfAbsoluteStreamWritesConverge) {
  BackendSet set("threecopies", 3);
  set.dispatch.replication_factor = 3;
  Dispatcher dispatcher(set.dispatch);
  Json open = stream_op("stream_open", "s");
  open.set("refit_every", Json::number(60));
  open.set("fit_starts", Json::number(2));
  ASSERT_EQ(dispatcher.handle(open, nullptr).get_string("status", ""), "ok");
  EXPECT_EQ(dispatcher.stats().replicated, 2u);
  // Each write lands on all three backends: two replica applies per write,
  // through two refit points.
  for (const double upto : {50.0, 100.0, 150.0}) {
    SCOPED_TRACE(upto);
    const std::uint64_t before = dispatcher.stats().replicated;
    const Json answer = dispatcher.handle(absorb_upto("s", upto), nullptr);
    ASSERT_EQ(answer.get_string("status", ""), "ok");
    EXPECT_EQ(answer.get_number("emitted", -1), upto);
    EXPECT_EQ(dispatcher.stats().replicated, before + 2);
  }
  const Json first = stats_at(set, 0, "s");
  EXPECT_EQ(first.get_number("refits_run", -1), 2.0);
  for (std::size_t b = 1; b < 3; ++b)
    EXPECT_EQ(stats_at(set, b, "s").get_string("digest", ""),
              first.get_string("digest", ""))
        << "backend " << b;
  EXPECT_EQ(dispatcher.stats().replication_failures, 0u);
  dispatcher.stop();
}

TEST(ClusterTest, PrimaryAheadOfTheTargetStillCatchesItsReplicaUp) {
  BackendSet set("ahead", 2);
  set.dispatch.replication_factor = 2;
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  ASSERT_EQ(dispatcher.handle(stream_op("stream_open", stream), nullptr)
                .get_string("status", ""),
            "ok");
  // The primary alone runs ahead, as after a write whose replica leg was
  // lost.
  ASSERT_EQ(call_at(set.servers[0]->socket_path(), absorb_upto(stream, 200))
                .get_string("status", ""),
            "ok");
  ASSERT_EQ(stats_at(set, 1, stream).get_number("emitted", -1), 0.0);

  // The replica's leg carries the request's 120; the primary answers 200,
  // and the replica is sent that target too before the client hears back.
  const Json answer = dispatcher.handle(absorb_upto(stream, 120), nullptr);
  EXPECT_EQ(answer.get_string("status", ""), "ok");
  EXPECT_EQ(answer.get_number("emitted", -1), 200.0);
  EXPECT_EQ(stats_at(set, 1, stream).get_number("emitted", -1), 200.0);
  EXPECT_EQ(stats_at(set, 1, stream).get_string("digest", ""),
            stats_at(set, 0, stream).get_string("digest", ""));
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 2u);  // one per write, the open's included
  EXPECT_EQ(stats.replication_failures, 0u);
  dispatcher.stop();
}

TEST(ClusterTest, FailedPrimaryLetsTheReplicaLegServeWithoutAResend) {
  BackendSet set("replicaserves", 2);
  set.dispatch.replication_factor = 2;
  set.dispatch.health_interval_ms = 0;  // no prober to restore the primary
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  set.servers[0]->stop();
  // The open's replica leg went out beside the primary's. When the primary
  // fails, the walk takes that leg's answer instead of resending the
  // open, which would answer "already_open": true.
  const Json answer =
      dispatcher.handle(stream_op("stream_open", stream), nullptr);
  EXPECT_EQ(answer.get_string("status", ""), "ok");
  EXPECT_FALSE(answer.get_bool("already_open", true));
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.replicated, 0u);
  EXPECT_EQ(stats.replication_failures, 1u);  // the primary missed it
  EXPECT_FALSE(dispatcher.backend_up(set.dispatch.backends[0].id));
  EXPECT_EQ(set.backends[1]->streaming().open_streams(), 1u);
  dispatcher.stop();
}

// Wraps only the first handler it is given (backend 0's): `sheds` picks
// the requests it answers "overloaded", as a server sheds a queued batch
// entry, without handling them.
std::function<BackendSet::Handler(BackendSet::Handler)> shed_on_first(
    std::function<bool(const Json&)> sheds) {
  auto wrapped = std::make_shared<std::atomic<int>>(0);
  return [wrapped, sheds](BackendSet::Handler handle) {
    const bool first = wrapped->fetch_add(1) == 0;
    return BackendSet::Handler(
        [first, sheds, handle](const Json& request,
                               const std::atomic<bool>* cancel) {
          if (first && sheds(request))
            return service::failure_response("overloaded",
                                             "request queue is full");
          return handle(request, cancel);
        });
  };
}

TEST(ClusterTest, PrimaryThatShedsAStreamWriteIsSentItAfterTheReplicaServes) {
  // The primary sheds the open and the first absorb. It applied neither
  // and stays up, so each reaches it once the replica has served.
  std::atomic<bool> open_shed{false};
  std::atomic<bool> absorb_shed{false};
  BackendSet set("shedprimary", 2, shed_on_first([&](const Json& request) {
                   const std::string op = request.get_string("op", "");
                   if (op == "stream_open") return !open_shed.exchange(true);
                   return op == "stream_absorb" && !absorb_shed.exchange(true);
                 }));
  set.dispatch.replication_factor = 2;
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  const auto expect_in_step = [&](double emitted) {
    for (std::size_t b = 0; b < 2; ++b)
      EXPECT_EQ(stats_at(set, b, stream).get_number("emitted", -1), emitted)
          << "backend " << b;
    EXPECT_EQ(stats_at(set, 1, stream).get_string("digest", ""),
              stats_at(set, 0, stream).get_string("digest", ""));
  };

  // The open's copy on the replica serves.
  const Json opened =
      dispatcher.handle(stream_op("stream_open", stream), nullptr);
  EXPECT_EQ(opened.get_string("status", ""), "ok");
  EXPECT_FALSE(opened.get_bool("already_open", true));
  EXPECT_EQ(dispatcher.stats().overloaded_retries, 1u);
  EXPECT_EQ(dispatcher.stats().replicated, 1u);
  expect_in_step(0);

  // The replica's copy of the absorb serves; the primary is sent it after.
  EXPECT_EQ(dispatcher.handle(absorb_upto(stream, 120), nullptr)
                .get_number("emitted", -1),
            120.0);
  EXPECT_EQ(dispatcher.stats().overloaded_retries, 2u);
  EXPECT_EQ(dispatcher.stats().replicated, 2u);
  expect_in_step(120);

  // So the next absorb, on the primary, starts where both stand.
  EXPECT_EQ(dispatcher.handle(absorb_upto(stream, 150), nullptr)
                .get_number("emitted", -1),
            150.0);
  expect_in_step(150);
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 3u);
  EXPECT_EQ(stats.replication_failures, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  dispatcher.stop();
}

TEST(ClusterTest, CancelledStreamWriteWaitsForAndBooksItsCopy) {
  // The primary sheds its first absorb, and the client gives up as it does.
  std::atomic<bool> cancelled{false};
  BackendSet set("cancelcopy", 2, shed_on_first([&](const Json& request) {
                   return request.get_string("op", "") == "stream_absorb" &&
                          !cancelled.exchange(true);
                 }));
  set.dispatch.replication_factor = 2;
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  ASSERT_EQ(dispatcher.handle(stream_op("stream_open", stream), nullptr)
                .get_string("status", ""),
            "ok");

  // The copy went out with the first attempt, so the refusal waits for it
  // and books it.
  const Json refused =
      dispatcher.handle(absorb_upto(stream, 120), &cancelled);
  EXPECT_EQ(refused.get_string("status", ""), "deadline_exceeded");
  EXPECT_EQ(stats_at(set, 1, stream).get_number("emitted", -1), 120.0);
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.overloaded_retries, 1u);
  EXPECT_EQ(stats.replicated, 2u);  // the open and the absorb's copy
  EXPECT_EQ(stats.replication_failures, 0u);
  dispatcher.stop();
}

TEST(ClusterTest, CopyAppliedBesideAPrimaryErrorIsBooked) {
  BackendSet set("lonereplica", 2);
  set.dispatch.replication_factor = 2;
  Dispatcher dispatcher(set.dispatch);
  const std::string stream = stream_owned_by(dispatcher, set, 0);
  // Only the replica has the stream, as after an open its primary missed
  // while it was down.
  ASSERT_EQ(call_at(set.servers[1]->socket_path(),
                    stream_op("stream_open", stream))
                .get_string("status", ""),
            "ok");

  // The primary's error is the client's answer; the copy beside it applied.
  const Json answer = dispatcher.handle(absorb_upto(stream, 120), nullptr);
  EXPECT_EQ(answer.get_string("status", ""), "error");
  EXPECT_EQ(stats_at(set, 1, stream).get_number("emitted", -1), 120.0);
  cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.replicated, 1u);
  EXPECT_EQ(stats.replication_failures, 0u);

  // A write that no backend applies leaves no replica behind: nothing is
  // booked.
  const Json ghost = dispatcher.handle(absorb_upto("ghost", 10), nullptr);
  EXPECT_EQ(ghost.get_string("status", ""), "error");
  stats = dispatcher.stats();
  EXPECT_EQ(stats.replicated, 1u);
  EXPECT_EQ(stats.replication_failures, 0u);
  dispatcher.stop();
}

// --- disk cache: growth bound ---------------------------------------------

TEST(DiskCacheTest, MaxBytesRefusesGrowthExactlyAtTheBoundary) {
  // Learn the two entries' exact on-disk sizes in an unbounded cache.
  const std::string probe_dir = fresh_cache_dir("maxbytes-probe");
  Json response_a = Json::object();
  response_a.set("status", Json::string("ok"));
  response_a.set("payload", Json::string("aaaaaaaaaaaaaaaa"));
  Json response_b = Json::object();
  response_b.set("status", Json::string("ok"));
  response_b.set("payload", Json::string("bbbbbbbbbbbbbbbbbbbbbbbb"));
  std::uint64_t size_a = 0, size_b = 0;
  {
    DiskCache probe(cache_options(probe_dir));
    ASSERT_TRUE(probe.store("digest-a", response_a, "key-a"));
    size_a = probe.stats().bytes;
    ASSERT_TRUE(probe.store("digest-b", response_b, "key-b"));
    size_b = probe.stats().bytes - size_a;
  }
  std::filesystem::remove_all(probe_dir);

  // Exactly enough for both: the boundary store succeeds.
  const std::string dir = fresh_cache_dir("maxbytes");
  {
    DiskCacheOptions options = cache_options(dir);
    options.max_bytes = size_a + size_b;
    DiskCache cache(options);
    EXPECT_TRUE(cache.store("digest-a", response_a, "key-a"));
    EXPECT_TRUE(cache.store("digest-b", response_b, "key-b"));
    EXPECT_EQ(cache.stats().growth_refusals, 0u);
    // Overwriting an entry frees its bytes first: a same-size replace
    // always fits even with the cache exactly full.
    EXPECT_TRUE(cache.store("digest-a", response_a, "key-a"));
  }
  std::filesystem::remove_all(dir);

  // One byte short: the second store is refused with a structured
  // warning, leaves no file behind, and the first entry is untouched.
  const std::string tight_dir = fresh_cache_dir("maxbytes-tight");
  DiskCacheOptions options = cache_options(tight_dir);
  options.max_bytes = size_a + size_b - 1;
  DiskCache cache(options);
  ASSERT_TRUE(cache.store("digest-a", response_a, "key-a"));
  EXPECT_FALSE(cache.store("digest-b", response_b, "key-b"));
  EXPECT_EQ(cache.stats().growth_refusals, 1u);
  EXPECT_EQ(cache.stats().store_failures, 1u);
  EXPECT_EQ(cache.stats().bytes, size_a);
  ASSERT_FALSE(cache.warnings().empty());
  EXPECT_NE(cache.warnings().back().find("max_bytes"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for("digest-b")));
  Json loaded;
  EXPECT_TRUE(cache.load("digest-a", &loaded));
  std::filesystem::remove_all(tight_dir);
}

TEST(ClusterTest, BackendSurfacesGrowthRefusalsThroughCacheStats) {
  const std::string dir = fresh_cache_dir("refusal");
  ClusterBackendOptions options;
  options.cache = cache_options(dir);
  options.cache.max_bytes = 16;  // far too small for any real response
  ClusterBackend backend(options);

  // The request is still served — the bound degrades reuse, never
  // availability — and the refusal surfaces as a counter plus warning.
  const Json r = backend.handle(study_request(9), nullptr);
  EXPECT_EQ(r.get_string("status", ""), "ok");
  Json stats_req = Json::object();
  stats_req.set("op", Json::string("cache_stats"));
  const Json stats = backend.handle(stats_req, nullptr);
  EXPECT_EQ(stats.get_number("disk_growth_refusals", 0), 1.0);
  EXPECT_EQ(stats.get_number("disk_max_bytes", 0), 16.0);
  const Json* warnings = stats.get("disk_warnings");
  ASSERT_NE(warnings, nullptr);
  ASSERT_FALSE(warnings->items().empty());
  EXPECT_NE(std::string(warnings->items().front().as_string())
                .find("max_bytes"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- disk cache: janitor ---------------------------------------------------

void set_mtime_ms_ago(const std::string& path, std::int64_t ms_ago) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const std::int64_t target_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count() -
      ms_ago;
  struct timespec times[2];
  times[0].tv_sec = target_ms / 1000;
  times[0].tv_nsec = (target_ms % 1000) * 1'000'000;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(DiskCacheTest, GcEvictsLruButNeverTheNewestVersionOfAKey) {
  const std::string dir = fresh_cache_dir("gc");
  DiskCache cache(cache_options(dir));
  Json response = Json::object();
  response.set("status", Json::string("ok"));
  response.set("payload", Json::string("payload-payload-payload"));
  ASSERT_TRUE(cache.store("d1", response, "key-1"));
  ASSERT_TRUE(cache.store("d2", response, "key-2"));
  ASSERT_TRUE(cache.store("d3", response, "key-3"));

  // An old *version* of key-1 (same recorded key, different digest file)
  // and stale temp litter from a crashed writer.
  std::filesystem::copy_file(cache.path_for("d1"), cache.path_for("0ld"));
  set_mtime_ms_ago(cache.path_for("0ld"), 600'000);
  {
    std::ofstream litter(dir + "/.orphan.tmp.1234.0");
    litter << "torn";
  }
  set_mtime_ms_ago(dir + "/.orphan.tmp.1234.0", 600'000);
  // Stage distinct ages so LRU order is deterministic: d1 oldest.
  set_mtime_ms_ago(cache.path_for("d1"), 300'000);
  set_mtime_ms_ago(cache.path_for("d2"), 200'000);
  set_mtime_ms_ago(cache.path_for("d3"), 100'000);

  // Size pass: ask for an impossible bound. The old version and the
  // litter go; the newest file of each key survives — the size pass
  // never deletes the freshest copy of a live entry.
  cluster::CacheGcOptions bounds;
  bounds.max_bytes = 1;
  const cluster::CacheGcReport report = cache.gc(bounds);
  EXPECT_EQ(report.temp_files_deleted, 1u);
  EXPECT_EQ(report.files_deleted, 1u);  // only the old version of key-1
  EXPECT_EQ(report.newest_kept, 3u);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for("0ld")));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for("d1")));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for("d2")));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for("d3")));

  // Byte totals are exact after gc.
  std::uint64_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    on_disk += std::filesystem::file_size(entry.path());
  EXPECT_EQ(cache.stats().bytes, on_disk);

  // Age pass: the TTL overrides newest-of-key immunity, so a full cache
  // of live keys can still free space.
  cluster::CacheGcOptions ttl;
  ttl.max_age_ms = 150'000;  // d1 (300s) and d2 (200s) are too old
  const cluster::CacheGcReport aged = cache.gc(ttl);
  EXPECT_EQ(aged.files_deleted, 2u);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for("d1")));
  EXPECT_FALSE(std::filesystem::exists(cache.path_for("d2")));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for("d3")));
  EXPECT_EQ(cache.stats().gc_runs, 2u);
  std::filesystem::remove_all(dir);
}

TEST(ClusterTest, DiskHitsRefreshMtimeSoGcOrderIsLruNotFifo) {
  const std::string dir = fresh_cache_dir("lru");
  DiskCache cache(cache_options(dir));
  Json response = Json::object();
  response.set("status", Json::string("ok"));
  ASSERT_TRUE(cache.store("old-but-hot", response, "key-hot"));
  ASSERT_TRUE(cache.store("young-but-cold", response, "key-cold"));
  set_mtime_ms_ago(cache.path_for("old-but-hot"), 500'000);
  set_mtime_ms_ago(cache.path_for("young-but-cold"), 400'000);

  // A disk hit touches the entry: use a fresh instance so the in-memory
  // LRU front cannot short-circuit the disk read.
  DiskCache reader(cache_options(dir));
  Json loaded;
  ASSERT_TRUE(reader.load("old-but-hot", &loaded));

  // TTL at 300s: without the touch, "old-but-hot" (500s ago) would be
  // deleted. With LRU semantics it was just used, so only the genuinely
  // cold entry (400s ago) goes.
  cluster::CacheGcOptions ttl;
  ttl.max_age_ms = 300'000;
  reader.gc(ttl);
  EXPECT_TRUE(std::filesystem::exists(reader.path_for("old-but-hot")));
  EXPECT_FALSE(std::filesystem::exists(reader.path_for("young-but-cold")));
  std::filesystem::remove_all(dir);
}

}  // namespace
