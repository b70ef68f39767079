// Op-table contract suite (CTest labels: tier1, cluster).
//
// Every row of service::op_table() is checked against what the layers
// actually do with it: its admission lane through classify_lane, and —
// through an in-process R=2 cluster (two socket-served backends with disk
// caches and journals behind a replicating dispatcher) — that cacheable
// rows are stored on the primary's disk only, never journaled or
// replicated; that stream-write rows are journaled in absolute form and
// replicated as commands; and that every other row does none of these.
// Names with no row are rejected as bad requests by the core, the backend
// and the dispatcher, with no side effect anywhere, and so is a count
// field ("threads", "seed", a corpus or janitor bound) that is not a
// non-negative integer in its range.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/dispatcher.h"
#include "cluster/journal.h"
#include "core/replication.h"
#include "service/ops.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace decompeval;
using service::Json;
using service::OpSpec;
using service::RequestLane;

Json op_request(std::string_view name) {
  Json r = Json::object();
  r.set("op", Json::string(name));
  return r;
}

TEST(OpTable, RowsAreUniqueAndFoundByName) {
  std::set<std::string_view> names;
  for (const OpSpec& spec : service::op_table()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_EQ(service::find_op(spec.name), &spec) << spec.name;
    EXPECT_EQ(service::find_op(op_request(spec.name)), &spec) << spec.name;
    // A stream write is a stream op: it must route to its stream's owner.
    if (spec.stream_write) {
      EXPECT_EQ(spec.routing, service::Routing::kStreamId) << spec.name;
    }
    EXPECT_FALSE(spec.cacheable && spec.stream_write) << spec.name;
  }
  EXPECT_EQ(service::find_op(Json::number(1)), nullptr);
  EXPECT_EQ(service::find_op(Json::object()), nullptr);
}

TEST(OpTable, EveryRowQueuesInItsLane) {
  for (const OpSpec& spec : service::op_table())
    EXPECT_EQ(service::classify_lane(op_request(spec.name)), spec.lane)
        << spec.name;
  EXPECT_EQ(service::classify_lane(op_request("frobnicate")),
            RequestLane::kInteractive);
}

// Two journaled, disk-cached backends behind a dispatcher with
// replication_factor 2, so every ring walk's first two nodes are the
// whole cluster: the primary and its one replica.
struct OpCluster {
  std::string dir;
  std::vector<std::unique_ptr<cluster::ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::unique_ptr<cluster::Dispatcher> dispatcher;

  explicit OpCluster(const std::string& tag)
      : dir("/tmp/decompeval-ops-" + tag + "-" +
            std::to_string(::getpid())) {
    std::filesystem::remove_all(dir);
    cluster::DispatcherOptions dispatch;
    dispatch.health_interval_ms = 20;
    dispatch.replication_factor = 2;
    for (int i = 0; i < 2; ++i) {
      const std::string id = "ops-" + std::to_string(i);
      const std::string home = dir + "/" + id;
      std::filesystem::create_directories(home);
      cluster::ClusterBackendOptions options;
      options.cache.directory = home + "/cache";
      options.cache.version = core::version();
      options.journal.path = home + "/commands.journal";
      backends.push_back(std::make_unique<cluster::ClusterBackend>(options));
      service::ServerOptions server_options;
      server_options.socket_path = dir + "-" + id + ".sock";
      server_options.workers = 2;
      server_options.handler = backends.back()->handler();
      server_options.fast_path = backends.back()->fast_path();
      servers.push_back(
          std::make_unique<service::ReplicationServer>(server_options));
      servers.back()->start();
      cluster::BackendEndpoint endpoint;
      endpoint.id = id;
      endpoint.socket_path = server_options.socket_path;
      dispatch.backends.push_back(endpoint);
    }
    dispatcher = std::make_unique<cluster::Dispatcher>(dispatch);
    dispatcher->start();
  }

  ~OpCluster() {
    dispatcher->stop();
    for (auto& server : servers) server->stop();
    std::filesystem::remove_all(dir);
  }

  /// Journal records, on `backend`, whose op is `name`.
  std::vector<Json> journaled(std::size_t backend, std::string_view name) {
    std::vector<Json> out;
    for (const std::string& record :
         cluster::Journal::replay(backends[backend]->journal().path())
             .records) {
      Json command = Json::parse(record);
      if (command.get_string("op", "") == name) out.push_back(command);
    }
    return out;
  }

  std::size_t journaled_total(std::string_view name) {
    return journaled(0, name).size() + journaled(1, name).size();
  }

  bool on_disk(std::size_t backend, const Json& request) {
    cluster::DiskCache& cache = backends[backend]->cache();
    return std::filesystem::exists(cache.path_for(cache.digest(request)));
  }

  std::size_t primary_of(const Json& request) {
    std::string key;
    service::routing_key(request, key);
    return dispatcher->ring().primary(key) == "ops-0" ? 0 : 1;
  }

  std::uint64_t installs() { return dispatcher->stats().replicated; }
};

// A request for `spec` that its layer can act on.
Json exercise_request(const OpSpec& spec) {
  Json r = op_request(spec.name);
  if (spec.name == "run_study" || spec.name == "run_replication") {
    r.set("seed", Json::number(3));
    r.set("run_models", Json::boolean(false));
  } else if (spec.name == "annotate") {
    r.set("source", Json::string("int f(int a1) { int v2; v2 = a1; "
                                 "return v2 + 1; }\n"));
  } else if (spec.routing == service::Routing::kStreamId) {
    r.set("stream", Json::string("s"));
    if (spec.name == "stream_open") {
      r.set("population", Json::number(24));
      r.set("window_events", Json::number(256));
    } else if (spec.name == "stream_absorb") {
      r.set("upto", Json::number(40));
    }
  }
  return r;
}

TEST(OpTable, RowsDecideJournalingCachingAndReplication) {
  OpCluster cluster("rows");
  // "shutdown" stops the backend server it reaches, so it runs last.
  std::vector<const OpSpec*> rows;
  for (const OpSpec& spec : service::op_table()) rows.push_back(&spec);
  std::stable_partition(rows.begin(), rows.end(), [](const OpSpec* spec) {
    return spec->name != "shutdown";
  });

  for (const OpSpec* spec : rows) {
    SCOPED_TRACE(std::string(spec->name));
    const Json request = exercise_request(*spec);
    const std::size_t primary = cluster.primary_of(request);
    const std::size_t replica = 1 - primary;
    const std::size_t journaled_before = cluster.journaled_total(spec->name);
    const std::uint64_t installs_before = cluster.installs();

    if (spec->cacheable) {
      // Never journaled: a request cancelled at admission leaves no
      // record, and neither does one that is served.
      std::atomic<bool> cancelled{true};
      Json doomed = request;
      doomed.set("threads", Json::number(2));
      EXPECT_EQ(cluster.backends[primary]
                    ->handle(doomed, &cancelled)
                    .get_string("status", ""),
                "deadline_exceeded");
      EXPECT_EQ(cluster.journaled_total(spec->name), 0u);
      EXPECT_FALSE(cluster.on_disk(primary, request));

      // Served: stored on the primary's disk only; nothing reaches the
      // replica.
      ASSERT_EQ(cluster.dispatcher->handle(request, nullptr)
                    .get_string("status", ""),
                "ok");
      EXPECT_TRUE(cluster.on_disk(primary, request));
      EXPECT_FALSE(cluster.on_disk(replica, request));
      EXPECT_EQ(cluster.installs(), installs_before);
      EXPECT_EQ(cluster.journaled_total(spec->name), 0u);
    } else if (spec->stream_write) {
      ASSERT_EQ(cluster.dispatcher->handle(request, nullptr)
                    .get_string("status", ""),
                "ok");
      // Executed and journaled on both backends, in absolute form.
      EXPECT_EQ(cluster.installs(), installs_before + 1);
      for (std::size_t b = 0; b < 2; ++b) {
        const std::vector<Json> records = cluster.journaled(b, spec->name);
        ASSERT_FALSE(records.empty()) << "backend " << b;
        EXPECT_EQ(records.back().get("count"), nullptr);
        if (spec->name == "stream_absorb") {
          EXPECT_EQ(records.back().get_number("upto", -1), 40.0);
        }
        EXPECT_EQ(cluster.backends[b]->streaming().open_streams(), 1u);
        EXPECT_FALSE(cluster.on_disk(b, request));
      }
      EXPECT_EQ(cluster.journaled_total(spec->name), journaled_before + 2);
    } else {
      cluster.dispatcher->handle(request, nullptr);
      EXPECT_EQ(cluster.journaled_total(spec->name), journaled_before);
      EXPECT_FALSE(cluster.on_disk(0, request));
      EXPECT_FALSE(cluster.on_disk(1, request));
      EXPECT_EQ(cluster.installs(), installs_before);
    }
  }
  // Both replicas of the stream absorbed the same absolute prefix.
  EXPECT_EQ(cluster.backends[0]->streaming().view("s").absorbed, 40u);
  EXPECT_EQ(cluster.backends[1]->streaming().view("s").digest,
            cluster.backends[0]->streaming().view("s").digest);
}

// Every count field an op reads ("threads", "seed", the embedding corpus
// and the janitor's bounds) is read through Json::get_count: a negative,
// fractional, non-finite or non-number value is a bad request at the
// core, the backend and the dispatcher, refused before anything is
// computed, journaled, stored, collected or replicated. So is a corpus
// size outside [1, 200,000], which trains no embedding. A missing
// "threads" means every idle helper, and any count is served.
TEST(OpTable, BadThreadsAreBadRequestsEverywhere) {
  OpCluster cluster("threads");
  service::ServiceCore core;
  ASSERT_EQ(cluster.dispatcher
                ->handle(exercise_request(*service::find_op("stream_open")),
                         nullptr)
                .get_string("status", ""),
            "ok");
  const std::uint64_t installs_before = cluster.installs();
  const std::size_t absorbs_before = cluster.journaled_total("stream_absorb");
  const auto bad_everywhere = [&](const Json& request) {
    if (service::find_op(request)->cacheable) {
      EXPECT_EQ(core.handle(request).get_string("status", ""), "bad_request");
    }
    for (auto& backend : cluster.backends)
      EXPECT_EQ(backend->handle(request, nullptr).get_string("status", ""),
                "bad_request");
    EXPECT_EQ(
        cluster.dispatcher->handle(request, nullptr).get_string("status", ""),
        "bad_request");
    EXPECT_FALSE(cluster.on_disk(0, request));
    EXPECT_FALSE(cluster.on_disk(1, request));
  };
  const std::pair<const char*, const char*> count_fields[] = {
      {"run_study", "threads"},
      {"run_replication", "threads"},
      {"annotate", "threads"},
      {"stream_absorb", "threads"},
      {"run_study", "seed"},
      {"run_replication", "seed"},
      {"run_replication", "corpus_sentences"},
      {"run_replication", "corpus_seed"},
      {"cache_gc", "max_bytes"},
      {"cache_gc", "max_age_ms"},
  };
  for (const char* bad : {"-1", "2.5", "1e400", "-1e400", "\"4\""}) {
    const Json value =
        *Json::parse(std::string(R"({"v":)") + bad + "}").get("v");
    for (const auto& [name, field] : count_fields) {
      SCOPED_TRACE(std::string(name) + " " + field + "=" + bad);
      Json request = exercise_request(*service::find_op(name));
      request.set(field, value);
      bad_everywhere(request);
    }
  }
  // A TTL past INT64_MAX ms would turn negative in the age comparison.
  Json ttl = exercise_request(*service::find_op("cache_gc"));
  ttl.set("max_age_ms", Json::number(1e19));
  bad_everywhere(ttl);
  EXPECT_EQ(cluster.installs(), installs_before);
  EXPECT_EQ(cluster.journaled_total("stream_absorb"), absorbs_before);
  EXPECT_EQ(cluster.backends[0]->streaming().view("s").absorbed, 0u);
  EXPECT_EQ(cluster.backends[1]->streaming().view("s").absorbed, 0u);
  for (auto& backend : cluster.backends)
    EXPECT_EQ(backend->cache().stats().gc_runs, 0u);

  // An empty or over-cap corpus trains nothing anywhere.
  const auto embed_models = [](auto& layer) {
    return layer.handle(op_request("cache_stats"), nullptr)
        .get_number("embed_cache_size", -1);
  };
  for (const double sentences : {0.0, 200001.0, 1e9}) {
    SCOPED_TRACE("corpus_sentences=" + std::to_string(sentences));
    Json request = exercise_request(*service::find_op("run_replication"));
    request.set("run_metrics", Json::boolean(true));
    request.set("corpus_sentences", Json::number(sentences));
    bad_everywhere(request);
    EXPECT_EQ(embed_models(core), 0.0);
    for (auto& backend : cluster.backends)
      EXPECT_EQ(embed_models(*backend), 0.0);
  }

  // A missing "threads" and any count are served ("no_cache": each one
  // computes).
  Json request = exercise_request(*service::find_op("run_study"));
  request.set("no_cache", Json::boolean(true));
  EXPECT_EQ(core.handle(request).get_string("status", ""), "ok");
  for (const double threads : {0.0, 3.0, 64.0}) {
    request.set("threads", Json::number(threads));
    EXPECT_EQ(core.handle(request).get_string("status", ""), "ok")
        << "threads=" << threads;
  }
}

// An absorb without "upto", such as one with a relative "count", is a bad
// request, refused before it is journaled, whether it is sent straight to
// a backend or through the dispatcher at R=2: no backend journals it or
// moves the stream, and no replica applies it.
TEST(OpTable, CountAbsorbIsRefusedBeforeItIsJournaled) {
  OpCluster cluster("count");
  for (const char* name : {"stream_open", "stream_absorb"})
    ASSERT_EQ(cluster.dispatcher
                  ->handle(exercise_request(*service::find_op(name)), nullptr)
                  .get_string("status", ""),
              "ok")
        << name;
  const auto appends = [&](std::size_t b) {
    return cluster.backends[b]
        ->handle(op_request("journal_stats"), nullptr)
        .get_number("appends", -1);
  };
  const auto emitted = [&](std::size_t b) {
    Json stats = op_request("stream_stats");
    stats.set("stream", Json::string("s"));
    return cluster.backends[b]->handle(stats, nullptr).get_number("emitted",
                                                                  -1);
  };
  const double appends_before[] = {appends(0), appends(1)};
  const std::uint64_t installs_before = cluster.installs();
  const auto expect_untouched = [&] {
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_EQ(appends(b), appends_before[b]) << "backend " << b;
      EXPECT_EQ(emitted(b), 40.0) << "backend " << b;
    }
    EXPECT_EQ(cluster.installs(), installs_before);
  };

  Json count = op_request("stream_absorb");
  count.set("stream", Json::string("s"));
  count.set("count", Json::number(10));
  for (std::size_t b = 0; b < 2; ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    EXPECT_EQ(cluster.backends[b]->handle(count, nullptr).get_string(
                  "status", ""),
              "bad_request");
    expect_untouched();
  }
  SCOPED_TRACE("dispatcher");
  EXPECT_EQ(
      cluster.dispatcher->handle(count, nullptr).get_string("status", ""),
      "bad_request");
  expect_untouched();
}

TEST(OpTable, UnknownNamesAreBadRequestsEverywhere) {
  OpCluster cluster("unknown");
  service::ServiceCore core;
  // "stream_foo" looks like a stream op but has no row: it must neither
  // route by stream id nor reach the stream engine.
  // "cache_install" is the retired replica-install op: a client that
  // sends one must not plant a forged answer anywhere.
  for (const char* name : {"stream_foo", "frobnicate", "cache_install"}) {
    SCOPED_TRACE(name);
    Json request = op_request(name);
    request.set("stream", Json::string("s"));
    EXPECT_EQ(service::find_op(request), nullptr);
    std::string routed;
    service::routing_key(request, routed);
    EXPECT_EQ(routed, service::canonical_request_key(request));

    EXPECT_EQ(core.handle(request).get_string("status", ""), "bad_request");
    for (auto& backend : cluster.backends)
      EXPECT_EQ(backend->handle(request, nullptr).get_string("status", ""),
                "bad_request");
    EXPECT_EQ(
        cluster.dispatcher->handle(request, nullptr).get_string("status", ""),
        "bad_request");

    EXPECT_EQ(cluster.journaled_total(name), 0u);
    EXPECT_FALSE(cluster.on_disk(0, request));
    EXPECT_FALSE(cluster.on_disk(1, request));
    EXPECT_EQ(cluster.backends[0]->streaming().open_streams(), 0u);
    EXPECT_EQ(cluster.backends[1]->streaming().open_streams(), 0u);
  }
  EXPECT_EQ(cluster.installs(), 0u);
}

}  // namespace
