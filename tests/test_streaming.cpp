// Streaming study engine contract suite (CTest labels: tier1, streaming).
//
// Covers the arrival processes (Poisson inter-arrival distribution by a
// KS test, bursty on/off occupancy, batching invariance), the windowed
// state's counters, the headline determinism property (a streamed run is
// bit-identical at threads 1/2/4 and replays bit-for-bit from the
// backend journal), the cold-refit contract (a windowed refit equals a
// from-scratch default fit of the same window's tuples), the stream.*
// fault sites, and the cluster citizenship of the stream op family:
// journaled writes that re-warm a restarted backend, stream-id routing,
// ring replication, and the server_stats probe the server's loop thread
// answers.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/rq1_correctness.h"
#include "cluster/backend.h"
#include "cluster/dispatcher.h"
#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "service/server.h"
#include "service/service.h"
#include "streaming/arrival.h"
#include "streaming/engine.h"
#include "streaming/state.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using service::Json;
using streaming::Arrival;
using streaming::ArrivalProcess;
using streaming::SessionView;
using streaming::StreamEngine;
using streaming::StreamState;
using streaming::WindowOptions;
using streaming::WorkloadConfig;
using streaming::WorkloadGenerator;

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/decompeval-stream-" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/decompeval-stream-" + tag + "-" +
         std::to_string(::getpid()) + ".sock";
}

Json open_request(const std::string& stream, std::uint64_t refit_every = 0) {
  Json req = Json::object();
  req.set("op", Json::string("stream_open"));
  req.set("stream", Json::string(stream));
  req.set("population", Json::number(24));
  req.set("window_events", Json::number(256));
  if (refit_every > 0) {
    req.set("refit_every", Json::number(static_cast<double>(refit_every)));
    req.set("fit_starts", Json::number(2));
  }
  return req;
}

Json absorb_request(const std::string& stream, std::uint64_t upto) {
  Json req = Json::object();
  req.set("op", Json::string("stream_absorb"));
  req.set("stream", Json::string(stream));
  req.set("upto", Json::number(static_cast<double>(upto)));
  return req;
}

Json stream_request(const std::string& op, const std::string& stream) {
  Json req = Json::object();
  req.set("op", Json::string(op));
  req.set("stream", Json::string(stream));
  return req;
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

TEST(StreamingWorkload, PoissonInterArrivalsPassKolmogorovSmirnov) {
  WorkloadConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate_per_s = 100.0;
  config.population = 16;
  WorkloadGenerator generator(config, &snippets::study_snippets());

  std::vector<double> gaps;
  std::uint64_t prev = 0;
  for (int i = 0; i < 4000; ++i) {
    const Arrival a = generator.next();
    gaps.push_back(static_cast<double>(a.virtual_us - prev) / 1e6);
    prev = a.virtual_us;
  }
  // One-sample KS against Exp(rate). The microsecond clock quantizes
  // gaps, but at 100/s the granularity error is ~1e-4 — far below the
  // rejection threshold.
  std::sort(gaps.begin(), gaps.end());
  double d = 0.0;
  const double n = static_cast<double>(gaps.size());
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const double cdf = 1.0 - std::exp(-config.rate_per_s * gaps[i]);
    d = std::max(d, std::abs(cdf - static_cast<double>(i) / n));
    d = std::max(d, std::abs(static_cast<double>(i + 1) / n - cdf));
  }
  // Critical value at alpha = 0.01 is 1.63 / sqrt(n) ~ 0.0258.
  EXPECT_LT(d, 1.63 / std::sqrt(n));
  // And the empirical rate is near nominal.
  const double mean_gap =
      static_cast<double>(prev) / 1e6 / static_cast<double>(gaps.size());
  EXPECT_NEAR(mean_gap, 1.0 / config.rate_per_s, 0.1 / config.rate_per_s);
}

TEST(StreamingWorkload, BurstyOccupancyMatchesOnOffConfiguration) {
  WorkloadConfig config;
  config.process = ArrivalProcess::kBursty;
  config.rate_per_s = 200.0;
  config.burst_on_mean_s = 2.0;
  config.burst_off_mean_s = 6.0;
  config.off_acceptance = 0.05;
  config.population = 16;
  WorkloadGenerator generator(config, &snippets::study_snippets());

  // Phase timeline occupancy: fraction of time spent "on" should match
  // on_mean / (on_mean + off_mean) = 0.25.
  std::uint64_t on_us = 0;
  const std::uint64_t horizon_us = 4000ull * 1000 * 1000;  // 4000 s
  const std::uint64_t step_us = 100 * 1000;
  for (std::uint64_t t = 0; t < horizon_us; t += step_us)
    if (generator.phase_on_at(t)) on_us += step_us;
  const double occupancy =
      static_cast<double>(on_us) / static_cast<double>(horizon_us);
  EXPECT_NEAR(occupancy, 0.25, 0.06);

  // Emitted arrivals concentrate in on-phases: the off-phase share of
  // arrivals should be far below the off-phase share of time (0.75),
  // near off_time * off_acceptance / (on_time + off_time * acceptance).
  std::uint64_t in_on = 0;
  std::uint64_t total = 3000;
  std::uint64_t last_us = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    const Arrival a = generator.next();
    if (generator.phase_on_at(a.virtual_us)) ++in_on;
    last_us = a.virtual_us;
  }
  const double on_share =
      static_cast<double>(in_on) / static_cast<double>(total);
  EXPECT_GT(on_share, 0.80);
  // Thinning stretches virtual time: the emitted rate over the run must
  // sit well below the peak rate.
  const double emitted_rate =
      static_cast<double>(total) / (static_cast<double>(last_us) / 1e6);
  EXPECT_LT(emitted_rate, 0.45 * config.rate_per_s);
  EXPECT_GT(emitted_rate, 0.10 * config.rate_per_s);
}

TEST(StreamingWorkload, GenerationIsBatchingInvariant) {
  WorkloadConfig config;
  config.process = ArrivalProcess::kBursty;
  config.population = 12;
  WorkloadGenerator one(config, &snippets::study_snippets());
  WorkloadGenerator other(config, &snippets::study_snippets());

  std::vector<Arrival> first;
  for (int i = 0; i < 200; ++i) first.push_back(one.next());

  // Same sequence regardless of how calls are interleaved with reads.
  for (int i = 0; i < 200; ++i) {
    const Arrival a = other.next();
    EXPECT_EQ(a.serialize(), first[static_cast<std::size_t>(i)].serialize())
        << "arrival " << i;
  }
}

// ---------------------------------------------------------------------------
// Incremental state
// ---------------------------------------------------------------------------

TEST(StreamingState, WindowCountsEqualRecountOfWindowContents) {
  WorkloadConfig config;
  config.population = 12;
  WorkloadGenerator generator(config, &snippets::study_snippets());
  WindowOptions window;
  window.max_events = 64;
  StreamState state(window);
  for (int i = 0; i < 500; ++i) state.absorb(generator.next());
  EXPECT_EQ(state.window().size(), 64u);
  EXPECT_EQ(state.absorbed(), 500u);
  EXPECT_EQ(state.evicted(), 436u);

  for (const study::Treatment arm :
       {study::Treatment::kHexRays, study::Treatment::kDirty}) {
    streaming::TreatmentCounts expect;
    for (const Arrival& a : state.window())
      if (a.treatment == arm) expect.add(a);
    const streaming::TreatmentCounts& got = state.window_counts(arm);
    EXPECT_EQ(got.arrivals, expect.arrivals);
    EXPECT_EQ(got.answered, expect.answered);
    EXPECT_EQ(got.gradeable, expect.gradeable);
    EXPECT_EQ(got.correct, expect.correct);
    EXPECT_EQ(got.opinions, expect.opinions);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(got.likert_name[i], expect.likert_name[i]);
      EXPECT_EQ(got.likert_type[i], expect.likert_type[i]);
    }
  }
}

TEST(StreamingState, AgeBoundEvictsOldArrivals) {
  WorkloadConfig config;
  config.rate_per_s = 100.0;
  config.population = 8;
  WorkloadGenerator generator(config, &snippets::study_snippets());
  WindowOptions window;
  window.max_events = 0;
  window.max_age_us = 500 * 1000;  // half a virtual second
  StreamState state(window);
  for (int i = 0; i < 400; ++i) state.absorb(generator.next());
  ASSERT_FALSE(state.window().empty());
  for (const Arrival& a : state.window())
    EXPECT_GE(a.virtual_us + window.max_age_us, state.newest_virtual_us());
  // At 100/s, a 0.5 s window holds ~50 arrivals.
  EXPECT_GT(state.window().size(), 20u);
  EXPECT_LT(state.window().size(), 120u);
}

// ---------------------------------------------------------------------------
// Engine: determinism, refits, faults
// ---------------------------------------------------------------------------

TEST(StreamEngineTest, StreamedRunIsBitIdenticalAtEveryThreadCount) {
  std::string reference_stats;
  std::string reference_dashboard;
  for (const double threads : {1.0, 2.0, 4.0}) {
    StreamEngine engine;
    Json open = open_request("s", /*refit_every=*/150);
    ASSERT_EQ(engine.handle(open).get_string("status", ""), "ok");
    Json absorb = absorb_request("s", 450);
    absorb.set("threads", Json::number(threads));
    ASSERT_EQ(engine.handle(absorb).get_string("status", ""), "ok");
    const std::string stats =
        engine.handle(stream_request("stream_stats", "s")).dump();
    const std::string dashboard =
        engine.handle(stream_request("stream_dashboard", "s")).dump();
    if (reference_stats.empty()) {
      reference_stats = stats;
      reference_dashboard = dashboard;
    }
    EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    EXPECT_EQ(dashboard, reference_dashboard) << "threads=" << threads;
  }
}

TEST(StreamEngineTest, YoungWindowDashboardsAnswerOk) {
  // A window of a few arrivals can hold only tied Likert ratings (e.g.
  // every opinion a 3), which leaves the rank-sum test with no variance;
  // the dashboard must omit that test, not answer `error`.
  for (const double seed : {0.0, 1.0, 2.0, 3.0}) {
    StreamEngine engine;
    Json open = stream_request("stream_open", "s");
    open.set("seed", Json::number(seed));
    ASSERT_EQ(engine.handle(open).get_string("status", ""), "ok");
    for (std::uint64_t upto = 1; upto <= 30; ++upto) {
      ASSERT_EQ(engine.handle(absorb_request("s", upto))
                    .get_string("status", ""),
                "ok");
      const Json dashboard =
          engine.handle(stream_request("stream_dashboard", "s"));
      ASSERT_EQ(dashboard.get_string("status", ""), "ok")
          << "seed " << seed << ", " << upto << " arrivals: "
          << dashboard.dump();
    }
  }
}

// The cold-refit contract: each refit is the default fit of its window,
// so the engine's second refit equals a fresh fit of the window it ran
// on with only n_starts set, bit for bit and start by start. Absorbing
// exactly 2 * refit_every arrivals leaves the view's window the one the
// second refit fitted. A stream that seeded each refit with the previous
// winner fails here: at this cadence that seed wins the second LMM refit
// (REML criterion, sigma and every coefficient differ), and both models'
// searches report one more start.
TEST(StreamEngineTest, WindowedRefitEqualsFromScratchBatchFit) {
  constexpr std::uint64_t kRefitEvery = 200;
  StreamEngine engine;
  ASSERT_EQ(engine.handle(open_request("s", kRefitEvery))
                .get_string("status", ""),
            "ok");
  ASSERT_EQ(engine.handle(absorb_request("s", 2 * kRefitEvery))
                .get_string("status", ""),
            "ok");
  const SessionView view = engine.view("s");
  ASSERT_TRUE(view.have_glmm);
  ASSERT_TRUE(view.have_lmm);
  ASSERT_EQ(view.refits_run, 2u);

  mixed::FitOptions options;
  options.n_starts = view.fit_starts;
  const mixed::GlmmFit glmm = mixed::fit_logistic_glmm(
      analysis::build_model_data(view.window_data, /*timing_model=*/false),
      options);
  EXPECT_EQ(glmm.deviance, view.glmm.deviance);
  EXPECT_EQ(glmm.sigma_user, view.glmm.sigma_user);
  EXPECT_EQ(glmm.sigma_question, view.glmm.sigma_question);
  ASSERT_EQ(glmm.coefficients.size(), view.glmm.coefficients.size());
  for (std::size_t i = 0; i < glmm.coefficients.size(); ++i)
    EXPECT_EQ(glmm.coefficients[i].estimate,
              view.glmm.coefficients[i].estimate)
        << "beta " << i;
  EXPECT_EQ(glmm.multi_start.start_values, view.glmm.multi_start.start_values);
  EXPECT_EQ(glmm.multi_start.best_start, view.glmm.multi_start.best_start);

  const mixed::LmmFit lmm = mixed::fit_lmm(
      analysis::build_model_data(view.window_data, /*timing_model=*/true),
      options);
  EXPECT_EQ(lmm.reml_criterion, view.lmm.reml_criterion);
  EXPECT_EQ(lmm.sigma_user, view.lmm.sigma_user);
  ASSERT_EQ(lmm.coefficients.size(), view.lmm.coefficients.size());
  for (std::size_t i = 0; i < lmm.coefficients.size(); ++i)
    EXPECT_EQ(lmm.coefficients[i].estimate, view.lmm.coefficients[i].estimate)
        << "beta " << i;
  EXPECT_EQ(lmm.multi_start.start_values, view.lmm.multi_start.start_values);
  EXPECT_EQ(lmm.multi_start.best_start, view.lmm.multi_start.best_start);
}

TEST(StreamEngineTest, AbsorbFaultDropsArrivalsAndReplaysIdentically) {
  util::FaultPlan plan(11);
  plan.set("stream.absorb", util::FaultSpec::every_nth(97));
  const std::string dir = fresh_dir("absorbfault");
  cluster::ClusterBackendOptions options;
  options.service.fault_plan = plan;
  options.journal.path = dir + "/commands.journal";

  std::string stats;
  {
    cluster::ClusterBackend backend(options);
    ASSERT_EQ(backend.handle(open_request("s", 150), nullptr)
                  .get_string("status", ""),
              "ok");
    const Json absorbed = backend.handle(absorb_request("s", 400), nullptr);
    EXPECT_EQ(absorbed.get_string("status", ""), "degraded");
    EXPECT_EQ(absorbed.get_number("dropped", 0.0), 4.0);  // 400 / 97
    const Json stats_json =
        backend.handle(stream_request("stream_stats", "s"), nullptr);
    EXPECT_TRUE(stats_json.get_bool("degraded", false));
    stats = stats_json.dump();
    const Json dashboard =
        backend.handle(stream_request("stream_dashboard", "s"), nullptr);
    EXPECT_TRUE(dashboard.get_bool("window_degraded", false));
  }

  // A restarted backend under the same plan replays the journal. The
  // fault hits key on arrival seq, so the replay drops the same arrivals
  // and reproduces the state exactly; a degraded stream write still
  // applied, so the replay reports no failure.
  cluster::ClusterBackend revived(options);
  Json replay = Json::object();
  replay.set("op", Json::string("journal_replay"));
  const Json report = revived.handle(replay, nullptr);
  ASSERT_EQ(report.get_string("status", ""), "ok");
  EXPECT_EQ(report.get_number("replayed", 0.0), 2.0);
  EXPECT_EQ(report.get_number("replay_ok", 0.0), 2.0);
  EXPECT_EQ(report.get_number("failures", -1.0), 0.0);
  EXPECT_EQ(
      revived.handle(stream_request("stream_stats", "s"), nullptr).dump(),
      stats);
  std::filesystem::remove_all(dir);
}

TEST(StreamEngineTest, RefitFaultSkipsRefitAndKeepsPreviousFit) {
  util::FaultPlan plan(12);
  plan.set("stream.refit", util::FaultSpec::once(1));  // second attempt
  const util::FaultInjector faults(plan);

  StreamEngine engine(&faults);
  ASSERT_EQ(engine.handle(open_request("s", 150))
                .get_string("status", ""),
            "ok");
  const Json absorbed = engine.handle(absorb_request("s", 450));
  EXPECT_EQ(absorbed.get_string("status", ""), "degraded");
  const SessionView view = engine.view("s");
  EXPECT_EQ(view.refit_attempts, 3u);
  EXPECT_EQ(view.refits_faulted, 1u);
  EXPECT_EQ(view.refits_run, 2u);
  EXPECT_TRUE(view.have_glmm);  // the surviving refits still fit

  // A clean run differs (3 refits) — the fault visibly changed the chain.
  StreamEngine clean;
  ASSERT_EQ(clean.handle(open_request("s", 150))
                .get_string("status", ""),
            "ok");
  ASSERT_EQ(clean.handle(absorb_request("s", 450)).get_string("status", ""),
            "ok");
  EXPECT_EQ(clean.view("s").refits_run, 3u);
}

TEST(StreamEngineTest, BadRequestsAnswerStructuredErrors) {
  StreamEngine engine;
  EXPECT_EQ(engine.handle(stream_request("stream_stats", "nope"))
                .get_string("status", ""),
            "error");
  Json no_id = Json::object();
  no_id.set("op", Json::string("stream_stats"));
  EXPECT_EQ(engine.handle(no_id).get_string("status", ""), "bad_request");
  Json bad_process = open_request("s");
  bad_process.set("process", Json::string("fractal"));
  EXPECT_EQ(engine.handle(bad_process).get_string("status", ""), "error");

  // refusal: an absorb on an unknown stream is an error...
  const std::optional<Json> unknown =
      engine.refusal(absorb_request("nope", 5));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->get_string("status", ""), "error");
  // ...one on a live stream passes...
  ASSERT_EQ(engine.handle(open_request("live")).get_string("status", ""),
            "ok");
  ASSERT_EQ(
      engine.handle(absorb_request("live", 10)).get_string("status", ""),
      "ok");
  EXPECT_FALSE(engine.refusal(absorb_request("live", 15)).has_value());
  // ...unless it has no "upto": a relative "count" is a bad request.
  Json rel = Json::object();
  rel.set("op", Json::string("stream_absorb"));
  rel.set("stream", Json::string("live"));
  rel.set("count", Json::number(5));
  const std::optional<Json> relative = engine.refusal(rel);
  ASSERT_TRUE(relative.has_value());
  EXPECT_EQ(relative->get_string("status", ""), "bad_request");
  EXPECT_EQ(engine.handle(rel).dump(), relative->dump());
  EXPECT_EQ(engine.view("live").absorbed, 10u);
}

// ---------------------------------------------------------------------------
// Cluster citizenship
// ---------------------------------------------------------------------------

TEST(StreamingCluster, RoutingKeyUsesStreamIdAndLaneIsBatch) {
  Json a = absorb_request("alpha", 10);
  Json b = absorb_request("alpha", 900);
  b.set("threads", Json::number(4));
  std::string key_a, key_b;
  service::routing_key(a, key_a);
  service::routing_key(b, key_b);
  EXPECT_EQ(key_a, key_b);  // same stream, same backend — whatever else
  Json other = stream_request("stream_dashboard", "alpha");
  std::string key_other;
  service::routing_key(other, key_other);
  EXPECT_EQ(key_other, key_a);
  Json beta = absorb_request("beta", 10);
  std::string key_beta;
  service::routing_key(beta, key_beta);
  EXPECT_NE(key_beta, key_a);

  EXPECT_EQ(service::classify_lane(a), service::RequestLane::kBatch);
  EXPECT_EQ(service::classify_lane(other),
            service::RequestLane::kInteractive);
}

TEST(StreamingCluster, BackendJournalsWritesAndReplayRewarmsTheStream) {
  // Uninterrupted reference run: 600 arrivals, refits every 150.
  StreamEngine reference;
  ASSERT_EQ(reference.handle(open_request("s", 150)).get_string("status", ""),
            "ok");
  ASSERT_EQ(reference.handle(absorb_request("s", 600))
                .get_string("status", ""),
            "ok");
  const std::string want_stats =
      reference.handle(stream_request("stream_stats", "s")).dump();
  const std::string want_dashboard =
      reference.handle(stream_request("stream_dashboard", "s")).dump();

  const std::string dir = fresh_dir("backend");
  cluster::ClusterBackendOptions options;
  options.journal.path = dir + "/commands.journal";
  std::string stats_before_restart;
  {
    cluster::ClusterBackend backend(options);
    ASSERT_EQ(backend.handle(open_request("s", 150), nullptr)
                  .get_string("status", ""),
              "ok");
    ASSERT_EQ(backend.handle(absorb_request("s", 300), nullptr)
                  .get_string("status", ""),
              "ok");
    stats_before_restart =
        backend.handle(stream_request("stream_stats", "s"), nullptr).dump();
  }
  // Restarted backend: journal replay re-opens the stream and re-issues
  // the absolute absorb, rebuilding the state and the refit chain.
  cluster::ClusterBackend revived(options);
  EXPECT_EQ(revived.streaming().open_streams(), 0u);
  Json replay = Json::object();
  replay.set("op", Json::string("journal_replay"));
  const Json report = revived.handle(replay, nullptr);
  ASSERT_EQ(report.get_string("status", ""), "ok");
  EXPECT_GE(report.get_number("replayed", 0.0), 2.0);
  EXPECT_EQ(revived.streaming().open_streams(), 1u);
  EXPECT_EQ(
      revived.handle(stream_request("stream_stats", "s"), nullptr).dump(),
      stats_before_restart);

  // The rebuilt stream keeps absorbing as if it had never stopped: stats
  // and dashboard match the uninterrupted run byte for byte.
  ASSERT_EQ(revived.handle(absorb_request("s", 600), nullptr)
                .get_string("status", ""),
            "ok");
  EXPECT_EQ(
      revived.handle(stream_request("stream_stats", "s"), nullptr).dump(),
      want_stats);
  EXPECT_EQ(
      revived.handle(stream_request("stream_dashboard", "s"), nullptr).dump(),
      want_dashboard);
  std::filesystem::remove_all(dir);
}

TEST(StreamingCluster, DispatcherReplicatesStreamWritesToRingReplicas) {
  std::vector<std::unique_ptr<cluster::ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  cluster::DispatcherOptions dispatch;
  dispatch.health_interval_ms = 20;
  dispatch.replication_factor = 2;
  for (int i = 0; i < 2; ++i) {
    const std::string id = "rep-" + std::to_string(i);
    cluster::ClusterBackendOptions backend_options;
    backends.push_back(
        std::make_unique<cluster::ClusterBackend>(backend_options));
    service::ServerOptions server_options;
    server_options.socket_path = unique_socket_path(id);
    server_options.workers = 2;
    server_options.handler = backends.back()->handler();
    servers.push_back(
        std::make_unique<service::ReplicationServer>(server_options));
    servers.back()->start();
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = server_options.socket_path;
    dispatch.backends.push_back(endpoint);
  }
  cluster::Dispatcher dispatcher(dispatch);
  dispatcher.start();

  std::atomic<bool> cancel{false};
  ASSERT_EQ(dispatcher
                .handle(open_request("s"), &cancel)
                .get_string("status", ""),
            "ok");
  ASSERT_EQ(dispatcher.handle(absorb_request("s", 200), &cancel)
                .get_string("status", ""),
            "ok");

  // Both backends hold the stream, absorbed to the same point, with the
  // same digest.
  for (const auto& backend : backends) {
    ASSERT_EQ(backend->streaming().open_streams(), 1u);
    const SessionView view = backend->streaming().view("s");
    EXPECT_EQ(view.absorbed, 200u);
    EXPECT_EQ(view.digest, backends.front()->streaming().view("s").digest);
  }
  const cluster::DispatcherStats stats = dispatcher.stats();
  EXPECT_GE(stats.replicated, 2u);  // open + absorb each fanned out once

  dispatcher.stop();
  for (auto& server : servers) server->stop();
}

TEST(StreamingCluster, ServerStatsAnswersOnConnectionThread) {
  cluster::ClusterBackendOptions backend_options;
  cluster::ClusterBackend backend(backend_options);
  service::ServerOptions options;
  options.socket_path = unique_socket_path("serverstats");
  options.workers = 2;
  options.max_queue = 4;
  options.handler = backend.handler();
  service::ReplicationServer server(options);
  server.start();

  service::ServiceClient client;
  client.connect(options.socket_path);
  // Exercise the queue so the counters move.
  Json ping = Json::object();
  ping.set("op", Json::string("cache_stats"));
  ASSERT_EQ(client.call(ping).get_string("status", ""), "ok");

  const Json stats = client.call(stream_request("server_stats", "ignored"));
  EXPECT_EQ(stats.get_string("status", ""), "ok");
  EXPECT_EQ(stats.get_string("op", ""), "server_stats");
  EXPECT_EQ(stats.get_number("workers", 0.0), 2.0);
  EXPECT_EQ(stats.get_number("max_queue", 0.0), 4.0);
  EXPECT_GE(stats.get_number("interactive_enqueued", -1.0), 1.0);
  EXPECT_GE(stats.get_number("batch_enqueued", -1.0), 0.0);
  EXPECT_GE(stats.get_number("in_flight", -1.0), 0.0);
  EXPECT_GE(stats.get_number("overloaded_rejected", -1.0), 0.0);

  Json shutdown = Json::object();
  shutdown.set("op", Json::string("shutdown"));
  client.call(shutdown);
}

}  // namespace
