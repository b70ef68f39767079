// Overload-resilience chaos suite (CTest label: overload).
//
// Drives the dispatcher's deadline propagation and hedged reads and the
// server's two-lane queue through transport chaos:
//   - net.stall / net.partial / net.partition sweeps at replication
//     factor 2 with hedging armed — every request answers exactly once,
//     with a structured status, bit-identical to the faults-off bytes;
//   - hedges never duplicate non-cacheable side effects, and one hedged
//     attempt books both of its connections' outcomes;
//   - hedge_delay_ms is the hedge delay itself: it does not move with the
//     latencies a backend has shown;
//   - a sustained batch flood cannot starve the interactive lane
//     (p99 ratio >= 5x, sheds observed);
//   - deadline budgets shrink hop by hop and refuse once spent;
//   - with hedging, replication and the two-lane front armed and no
//     faults, the full stack stays bit-identical to the offline pipeline
//     at threads 1/2/4.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/disk_cache.h"
#include "cluster/dispatcher.h"
#include "core/replication.h"
#include "service/server.h"
#include "service/service.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using cluster::ClusterBackend;
using cluster::ClusterBackendOptions;
using cluster::DiskCache;
using cluster::Dispatcher;
using cluster::DispatcherOptions;
using service::Json;
using util::FaultPlan;
using util::FaultSpec;

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/decompeval-ovl-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/decompeval-ovl-cache-" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

Json study_request(std::uint64_t seed) {
  Json req = Json::object();
  req.set("op", Json::string("run_study"));
  req.set("seed", Json::number(static_cast<double>(seed)));
  return req;
}

Json ok_response(const Json& request) {
  Json r = Json::object();
  r.set("status", Json::string("ok"));
  r.set("op", Json::string(request.get_string("op", "")));
  r.set("seed", Json::number(request.get_number("seed", 0.0)));
  return r;
}

Json overloaded_handler_response() {
  Json r = Json::object();
  r.set("status", Json::string("overloaded"));
  r.set("retry_after_ms", Json::number(1));
  return r;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t at = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[at];
}

// Two custom-handler backends behind real Unix-socket servers plus a
// dispatcher — the harness every targeted resilience test below uses.
// `net_faults[i]` arms that backend's transport-level fault plan.
struct HandlerCluster {
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::unique_ptr<Dispatcher> dispatcher;
  std::vector<std::string> ids;

  HandlerCluster(
      const std::string& tag, DispatcherOptions dispatch,
      std::vector<std::function<Json(const Json&, const std::atomic<bool>*)>>
          handlers,
      std::vector<FaultPlan> net_faults = {}) {
    for (std::size_t i = 0; i < handlers.size(); ++i) {
      const std::string id = tag + "-" + std::to_string(i);
      ids.push_back(id);
      service::ServerOptions server_options;
      server_options.socket_path = unique_socket_path(id);
      server_options.workers = 2;
      server_options.handler = std::move(handlers[i]);
      if (i < net_faults.size()) server_options.fault_plan = net_faults[i];
      servers.push_back(
          std::make_unique<service::ReplicationServer>(server_options));
      servers.back()->start();
      cluster::BackendEndpoint endpoint;
      endpoint.id = id;
      endpoint.socket_path = server_options.socket_path;
      dispatch.backends.push_back(endpoint);
    }
    dispatcher = std::make_unique<Dispatcher>(dispatch);
    dispatcher->start();
  }

  ~HandlerCluster() {
    dispatcher->stop();
    for (auto& server : servers) server->stop();
  }

  // Index of the ring primary for `request` (ids are ring identities).
  std::size_t primary_of(const Json& request) const {
    const std::string key = service::canonical_request_key(request);
    const std::string id = dispatcher->ring().primary(key);
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == id) return i;
    ADD_FAILURE() << "unknown primary " << id;
    return 0;
  }
};

// --- net.* sweep -----------------------------------------------------------

TEST(OverloadChaos, NetFaultSweepWithHedgingStaysStructuredAndBitIdentical) {
  // Faults-off reference bytes: a standalone backend answering the same
  // requests (dispatcher forwarding is verbatim, so these are the bytes
  // every sweep below must reproduce).
  ClusterBackend reference_backend{ClusterBackendOptions{}};
  std::vector<std::string> reference;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    reference.push_back(
        reference_backend.handle(study_request(seed), nullptr).dump());

  const std::vector<std::pair<const char*, FaultSpec>> configs = {
      {"net.stall", FaultSpec::once(0)},     {"net.stall", FaultSpec::every_nth(2)},
      {"net.stall", FaultSpec::always()},    {"net.partial", FaultSpec::once(0)},
      {"net.partial", FaultSpec::every_nth(2)},
      {"net.partition", FaultSpec::once(0)},
  };
  for (const auto& [site, spec] : configs) {
    const std::string label =
        std::string(site) + "/" + spec.describe();
    std::vector<std::unique_ptr<ClusterBackend>> backends;
    std::vector<std::unique_ptr<service::ReplicationServer>> servers;
    DispatcherOptions dispatch;
    dispatch.replication_factor = 2;
    dispatch.health_interval_ms = 10;
    dispatch.forward_timeout_ms = 120;
    dispatch.probe_timeout_ms = 60;
    dispatch.hedge_delay_ms = 15;          // hedging armed
    for (int i = 0; i < 2; ++i) {
      const std::string id = "sweep-" + std::to_string(i);
      backends.push_back(
          std::make_unique<ClusterBackend>(ClusterBackendOptions{}));
      service::ServerOptions server_options;
      server_options.socket_path =
          unique_socket_path(id + "-" + spec.describe());
      server_options.handler = backends.back()->handler();
      if (i == 0) server_options.fault_plan.set(site, spec);  // chaos victim
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

    // Two full passes: the second re-reads what the first pass
    // computed. Every request must answer exactly once, "ok", with the
    // faults-off bytes — the healthy replica plus hedging covers every
    // schedule, so nothing is lost and nothing is torn.
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Json r = dispatcher.handle(study_request(seed), nullptr);
        EXPECT_EQ(r.get_string("status", ""), "ok")
            << label << " round=" << round << " seed=" << seed;
        EXPECT_EQ(r.dump(), reference[seed - 1])
            << label << " round=" << round << " seed=" << seed;
      }
    }
    EXPECT_EQ(dispatcher.stats().exhausted, 0u) << label;
    dispatcher.stop();
    for (auto& server : servers) server->stop();
  }
}

// --- hedging side-effect discipline ---------------------------------------

TEST(OverloadChaos, HedgesNeverDuplicateNonCacheableSideEffects) {
  std::array<std::atomic<int>, 2> executions{};
  const auto handler = [&executions](int index, std::uint64_t sleep_ms) {
    return [&executions, index, sleep_ms](const Json& request,
                                          const std::atomic<bool>*) {
      executions[static_cast<std::size_t>(index)].fetch_add(1);
      if (sleep_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      return ok_response(request);
    };
  };
  DispatcherOptions dispatch;
  dispatch.hedge_delay_ms = 5;
  dispatch.health_interval_ms = 10;
  HandlerCluster cluster("hedge", dispatch,
                         {handler(0, 50), handler(1, 0)});

  // Side-effecting (no_cache) requests must never hedge: exactly one
  // backend execution each, even with a slow primary.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Json req = study_request(seed);
    req.set("no_cache", Json::boolean(true));
    EXPECT_EQ(cluster.dispatcher->handle(req, nullptr).get_string("status", ""),
              "ok")
        << "seed=" << seed;
  }
  EXPECT_EQ(cluster.dispatcher->stats().hedges, 0u);
  EXPECT_EQ(executions[0].load() + executions[1].load(), 6);

  // Positive control: a cacheable read whose primary is the slow backend
  // hedges to the fast replica and the hedge wins — one response to the
  // caller, identical bytes no matter which side answered.
  std::uint64_t slow_seed = 0;
  for (std::uint64_t seed = 10; seed < 60; ++seed) {
    if (cluster.primary_of(study_request(seed)) == 0) {
      slow_seed = seed;
      break;
    }
  }
  ASSERT_NE(slow_seed, 0u) << "no seed routed to the slow backend";
  const Json hedged =
      cluster.dispatcher->handle(study_request(slow_seed), nullptr);
  EXPECT_EQ(hedged.get_string("status", ""), "ok");
  EXPECT_EQ(hedged.dump(), ok_response(study_request(slow_seed)).dump());
  const cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
}

TEST(OverloadChaos, HedgeCoversAStalledPrimaryWithoutFailover) {
  // net.stall swallows every response from backend 0, and with
  // replication off nothing else ever touches that backend, so only the
  // hedge to the healthy replica can answer — long before the primary's
  // (deliberately huge) forward timeout would fail the request over.
  FaultPlan stall;
  stall.set("net.stall", FaultSpec::always());
  DispatcherOptions dispatch;
  dispatch.hedge_delay_ms = 10;
  dispatch.forward_timeout_ms = 5000;
  dispatch.health_interval_ms = 0;
  const auto handler = [](const Json& request, const std::atomic<bool>*) {
    return ok_response(request);
  };
  HandlerCluster cluster("stallhedge", dispatch, {handler, handler},
                         {stall, FaultPlan{}});

  std::uint64_t stalled_seed = 0;
  for (std::uint64_t seed = 1; seed < 60; ++seed) {
    if (cluster.primary_of(study_request(seed)) == 0) {
      stalled_seed = seed;
      break;
    }
  }
  ASSERT_NE(stalled_seed, 0u);
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const Json r = cluster.dispatcher->handle(study_request(stalled_seed),
                                              nullptr);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_EQ(r.get_string("status", ""), "ok") << "i=" << i;
    EXPECT_LT(ms, 2000.0) << "answered by timeout, not by the hedge";
  }
  const cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_GE(stats.hedges, 5u);
  EXPECT_GE(stats.hedge_wins, 5u);
  EXPECT_EQ(stats.failovers, 0u);  // cancelled primaries are not failures
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(OverloadChaos, HedgedAttemptBooksBothConnections) {
  // The primary answers at 100 ms, long after a 5 ms hedge delay; the
  // hedge answers at 200 ms. Both answers land on one attempt, and the
  // margins are wide enough to hold under a sanitizer.
  std::atomic<int> primary{-1};
  std::atomic<bool> hedge_answers_ok{true};
  const auto handler = [&](int index) {
    return [&, index](const Json& request, const std::atomic<bool>*) {
      const bool is_primary = index == primary.load();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(is_primary ? 100 : 200));
      if (is_primary || !hedge_answers_ok.load())
        return overloaded_handler_response();
      return ok_response(request);
    };
  };
  DispatcherOptions dispatch;
  dispatch.hedge_delay_ms = 5;
  dispatch.health_interval_ms = 0;
  HandlerCluster cluster("hedgebook", dispatch, {handler(0), handler(1)});

  // The primary is overloaded after the hedge fired: the caller gets the
  // hedge's bytes, and the overload is a spill, not a transport failure.
  const Json spill = study_request(21);
  primary.store(static_cast<int>(cluster.primary_of(spill)));
  const Json won = cluster.dispatcher->handle(spill, nullptr);
  EXPECT_EQ(won.dump(), ok_response(spill).dump());
  cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.overloaded_retries, 1u);
  EXPECT_EQ(stats.failovers, 0u);

  // Both connections answer overloaded: the walk has nothing left, and
  // the structured refusal counts both backends as attempted.
  hedge_answers_ok.store(false);
  const Json refused_request = study_request(22);
  primary.store(static_cast<int>(cluster.primary_of(refused_request)));
  const Json refused = cluster.dispatcher->handle(refused_request, nullptr);
  EXPECT_EQ(refused.get_string("status", ""), "error");
  EXPECT_NE(refused.get_string("error", "").find("no backend available"),
            std::string::npos);
  EXPECT_EQ(refused.get_number("attempted", -1), 2.0);
  stats = cluster.dispatcher->stats();
  EXPECT_EQ(stats.hedges, 2u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.overloaded_retries, 3u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(OverloadChaos, EveryReadSlowerThanTheHedgeDelayIsHedged) {
  // Both backends answer in 20 ms, four times the 5 ms hedge delay, so
  // every read is hedged however many reads came before it. A delay that
  // grew towards a backend's observed p95 would stop hedging once each
  // backend had answered a few reads, and hedge about half of these.
  const auto handler = [](const Json& request, const std::atomic<bool>*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ok_response(request);
  };
  DispatcherOptions dispatch;
  dispatch.hedge_delay_ms = 5;
  dispatch.health_interval_ms = 0;
  HandlerCluster cluster("fixed-delay", dispatch, {handler, handler});

  for (std::uint64_t seed = 1; seed <= 80; ++seed)
    ASSERT_EQ(cluster.dispatcher->handle(study_request(seed), nullptr)
                  .get_string("status", ""),
              "ok")
        << "seed=" << seed;
  const cluster::DispatcherStats stats = cluster.dispatcher->stats();
  EXPECT_GT(stats.hedges, 60u);
  EXPECT_EQ(stats.exhausted, 0u);
}

// --- two-lane admission under sustained batch overload ---------------------

TEST(OverloadChaos, InteractiveLaneOvertakesBatchUnderSustainedOverload) {
  service::ServerOptions options;
  options.socket_path = unique_socket_path("lanes");
  options.workers = 1;  // one slot: queueing policy is the whole story
  options.max_queue = 8;
  std::atomic<bool> stop{false};
  options.handler = [](const Json& request, const std::atomic<bool>*) {
    if (service::classify_lane(request) == service::RequestLane::kBatch)
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return ok_response(request);
  };
  service::ReplicationServer server(options);
  server.start();

  // Ten batch clients keep the queue saturated for the whole window; one
  // interactive client pings through the flood.
  std::vector<double> interactive_ms;
  std::vector<std::vector<double>> batch_ms(10);
  std::atomic<int> shed_seen{0};
  std::vector<std::thread> batch_clients;
  for (std::size_t i = 0; i < batch_ms.size(); ++i) {
    batch_clients.emplace_back([&, i] {
      service::ServiceClient client;
      client.connect(server.socket_path());
      std::uint64_t seed = 100 * (i + 1);
      while (!stop.load()) {
        const auto t0 = std::chrono::steady_clock::now();
        const Json r = client.call(study_request(seed++));
        const std::string status = r.get_string("status", "");
        if (status == "ok") {
          batch_ms[i].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        } else {
          ASSERT_EQ(status, "overloaded");
          EXPECT_GT(r.get_number("retry_after_ms", 0), 0.0);
          if (r.get_bool("shed", false)) shed_seen.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
        }
      }
    });
  }
  {
    service::ServiceClient client;
    client.connect(server.socket_path());
    Json ping = Json::object();
    ping.set("op", Json::string("ping"));
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2500);
    while (std::chrono::steady_clock::now() < until) {
      const auto t0 = std::chrono::steady_clock::now();
      const Json r = client.call(ping);
      ASSERT_EQ(r.get_string("status", ""), "ok");
      interactive_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true);
  for (auto& t : batch_clients) t.join();

  std::vector<double> batch_all;
  for (const auto& lane : batch_ms)
    batch_all.insert(batch_all.end(), lane.begin(), lane.end());
  ASSERT_GE(interactive_ms.size(), 40u);
  ASSERT_GE(batch_all.size(), 10u);
  const double interactive_p99 = percentile(interactive_ms, 0.99);
  const double batch_p99 = percentile(batch_all, 0.99);
  // The acceptance bar: interactive p99 at least 5x better than batch
  // p99 while the batch flood is shedding.
  EXPECT_LE(interactive_p99 * 5.0, batch_p99)
      << "interactive p99=" << interactive_p99 << "ms batch p99=" << batch_p99
      << "ms";
  const service::OverloadStats overload = server.overload_stats();
  EXPECT_GT(overload.shed_batch, 0u);
  EXPECT_GT(overload.overloaded_rejected, 0u);
  EXPECT_GT(shed_seen.load(), 0);
  server.stop();
}

// --- deadline propagation --------------------------------------------------

TEST(OverloadChaos, DeadlinePropagationDecrementsBudgetAndRefusesOnceSpent) {
  std::atomic<std::uint64_t> fake_ms{1000};
  std::atomic<int> victim{-1};
  std::array<std::atomic<double>, 2> seen_deadline{};
  seen_deadline[0].store(-1.0);
  seen_deadline[1].store(-1.0);
  std::atomic<int> ok_serves{0};
  const auto handler = [&](int index) {
    return [&, index](const Json& request, const std::atomic<bool>*) {
      const double burn = request.get_number("burn_ms", 0.0);
      if (burn > 0 && index == victim.load()) {
        fake_ms.fetch_add(static_cast<std::uint64_t>(burn));
        return overloaded_handler_response();
      }
      seen_deadline[static_cast<std::size_t>(index)].store(
          request.get_number("deadline_ms", -1.0));
      ok_serves.fetch_add(1);
      return ok_response(request);
    };
  };
  DispatcherOptions dispatch;
  dispatch.health_interval_ms = 0;
  dispatch.now_ms = [&fake_ms] { return fake_ms.load(); };
  HandlerCluster cluster("deadline", dispatch, {handler(0), handler(1)});

  // The primary burns 60 of a 100ms budget and answers overloaded; the
  // spill-over backend must see the decremented figure, not the original.
  Json spill = study_request(11);
  spill.set("deadline_ms", Json::number(100));
  spill.set("burn_ms", Json::number(60));
  victim.store(static_cast<int>(cluster.primary_of(spill)));
  const std::size_t other = 1 - static_cast<std::size_t>(victim.load());
  const Json r1 = cluster.dispatcher->handle(spill, nullptr);
  EXPECT_EQ(r1.get_string("status", ""), "ok");
  EXPECT_EQ(ok_serves.load(), 1);
  EXPECT_EQ(seen_deadline[other].load(), 40.0);  // 100 - 60 burned

  // Burning the whole budget refuses locally: the second backend never
  // sees a request whose budget is already gone.
  Json refuse = study_request(12);
  refuse.set("deadline_ms", Json::number(100));
  refuse.set("burn_ms", Json::number(200));
  victim.store(static_cast<int>(cluster.primary_of(refuse)));
  const Json r2 = cluster.dispatcher->handle(refuse, nullptr);
  EXPECT_EQ(r2.get_string("status", ""), "deadline_exceeded");
  EXPECT_FALSE(r2.get_string("error", "").empty());
  EXPECT_EQ(ok_serves.load(), 1);  // nobody served the dead request
  EXPECT_EQ(cluster.dispatcher->stats().deadline_refusals, 1u);
}

// --- faults-off bit-identity with everything armed -------------------------

TEST(OverloadChaos, AllFeaturesArmedFaultsOffBitIdenticalToOffline) {
  // Every resilience feature on at once — deadline propagation, hedging,
  // replication, two-lane front — and zero faults: the stack
  // must stay byte-identical to the offline pipeline at every thread
  // count.
  std::vector<std::unique_ptr<ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::vector<std::string> cache_dirs;
  DispatcherOptions dispatch;
  dispatch.replication_factor = 2;
  dispatch.health_interval_ms = 20;
  dispatch.hedge_delay_ms = 10;
  for (int i = 0; i < 2; ++i) {
    const std::string id = "armed-" + std::to_string(i);
    cache_dirs.push_back(fresh_cache_dir(id));
    ClusterBackendOptions backend_options;
    backend_options.cache.directory = cache_dirs.back();
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
  service::ServerOptions front_options;
  front_options.socket_path = unique_socket_path("armed-front");
  front_options.workers = 4;
  front_options.max_queue = 16;
  front_options.handler = dispatcher.handler();
  service::ReplicationServer front(front_options);
  front.start();

  service::ServiceClient client;
  client.connect(front.socket_path());

  // run_replication: dispatcher bytes match the offline report digest at
  // threads 1/2/4, and every thread count produces the same line.
  core::ReplicationConfig config;
  config.seed = 7;
  config.run_metrics = false;
  const core::ReplicationReport offline = core::run_replication(config);
  ASSERT_FALSE(offline.degraded);
  std::string first_dump;
  for (const double threads : {1.0, 2.0, 4.0}) {
    Json req = Json::object();
    req.set("op", Json::string("run_replication"));
    req.set("seed", Json::number(7));
    req.set("threads", Json::number(threads));
    req.set("run_models", Json::boolean(true));
    req.set("run_metrics", Json::boolean(false));
    const Json r = client.call(req);
    ASSERT_EQ(r.get_string("status", ""), "ok") << "threads=" << threads;
    if (first_dump.empty()) first_dump = r.dump();
    EXPECT_EQ(r.dump(), first_dump) << "threads=" << threads;
  }

  // annotate: byte-equal to a standalone core at every thread count.
  const std::string source =
      "int first(int a1) { int v5; v5 = a1; return v5 + v5; }\n";
  service::ServiceCore reference;
  Json annotate = Json::object();
  annotate.set("op", Json::string("annotate"));
  annotate.set("source", Json::string(source));
  const std::string expected = reference.handle(annotate).dump();
  for (const double threads : {1.0, 2.0, 4.0}) {
    Json req = annotate;
    req.set("threads", Json::number(threads));
    EXPECT_EQ(client.call(req).dump(), expected) << "threads=" << threads;
  }

  front.stop();
  dispatcher.stop();
  for (auto& server : servers) server->stop();
  for (const std::string& dir : cache_dirs) std::filesystem::remove_all(dir);
}

}  // namespace
