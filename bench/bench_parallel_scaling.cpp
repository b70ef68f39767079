// Parallel-scaling bench: wall-clock speedup of the task-parallel
// execution layer on the three hottest paths (per-seed robustness sweep,
// power replicates, embedding training) at 1/2/4/hardware threads, with a
// bit-identity check between the serial and parallel results. Writes
// BENCH_parallel.json to the working directory so the perf trajectory is
// tracked across PRs. On a single-core host the speedups hover around 1x
// (there is no second core to run on); hardware_concurrency is recorded in
// the JSON so readings are interpretable.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "bench/bench_common.h"
#include "analysis/power.h"
#include "analysis/robustness.h"
#include "analysis/rq1_correctness.h"
#include "cluster/backend.h"
#include "cluster/dispatcher.h"
#include "core/replication.h"
#include "embed/corpus.h"
#include "metrics/bertscore.h"
#include "metrics/codebleu.h"
#include "mixed/glmm.h"
#include "service/server.h"
#include "service/service.h"
#include "text/bleu.h"
#include "text/similarity.h"
#include "util/fault.h"
#include "util/rng.h"
#include "study/engine.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

using namespace decompeval;

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool identical(const analysis::RobustnessSummary& a,
               const analysis::RobustnessSummary& b) {
  if (a.n_seeds != b.n_seeds || a.criteria.size() != b.criteria.size())
    return false;
  for (std::size_t i = 0; i < a.criteria.size(); ++i) {
    if (a.criteria[i].name != b.criteria[i].name ||
        a.criteria[i].held != b.criteria[i].held ||
        a.criteria[i].total != b.criteria[i].total)
      return false;
  }
  return true;
}

std::vector<std::size_t> thread_ladder() {
  std::vector<std::size_t> ladder = {1, 2, 4};
  const std::size_t hw = util::default_thread_count();
  if (hw > 4) ladder.push_back(hw);
  return ladder;
}

using bench::host_fingerprint;

// Pulls a JSON string or number field out of the previous run's file with
// plain string search — enough for the flat file this bench writes.
std::string previous_field(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end;
  if (text[begin] == '"') {
    ++begin;
    end = text.find('"', begin);
  } else {
    end = text.find_first_of(",\n}", begin);
  }
  return end == std::string::npos ? "" : text.substr(begin, end - begin);
}

// Compares this run's host against the BENCH_parallel.json already on
// disk (the previous PR's reading) and warns when the speedup columns are
// about to be compared across different machines or core counts.
void warn_if_host_changed(std::size_t hw) {
  std::ifstream previous("BENCH_parallel.json");
  if (!previous) return;
  std::stringstream buffer;
  buffer << previous.rdbuf();
  const std::string text = buffer.str();
  const std::string prev_hw = previous_field(text, "hardware_concurrency");
  const std::string prev_host = previous_field(text, "host_fingerprint");
  if (!prev_hw.empty() && prev_hw != std::to_string(hw)) {
    std::cout << "\nWARNING: previous BENCH_parallel.json was recorded with "
              << "hardware_concurrency = " << prev_hw << ", this host has "
              << hw << ".\n         Speedup columns are NOT comparable "
              << "across core counts — on a 1-core container every\n"
              << "         speedup collapses to ~1x regardless of the "
              << "code's actual scaling.\n";
  } else if (!prev_host.empty() && prev_host != host_fingerprint()) {
    std::cout << "\nWARNING: previous BENCH_parallel.json came from a "
              << "different host (" << prev_host << ");\n         absolute "
              << "milliseconds are not comparable across machines.\n";
  }
}

// run_study requests for seeds 1..`seeds`.
std::vector<service::Json> study_requests(std::uint64_t seeds) {
  std::vector<service::Json> requests;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    service::Json req = service::Json::object();
    req.set("op", service::Json::string("run_study"));
    req.set("seed", service::Json::number(static_cast<double>(seed)));
    requests.push_back(std::move(req));
  }
  return requests;
}

// One cluster throughput reading: `n_backends` socket-served backends
// (each with a fresh disk cache and its rendered-line fast path wired
// into the server) behind a dispatcher, driven with a 12-seed run_study
// sweep.
//
//   cold           — every request computed end to end (serve_line,
//                    populating the backend's caches on the way out)
//   warm forwarded — each request crosses the socket and is answered by
//                    the backend's rendered-line fast path on the server's
//                    loop thread; per-request latencies recorded for the
//                    p50/p95/p99 columns
//
// The cold and warm response lines must match byte for byte.
struct ClusterReading {
  double cold_rps = 0.0;
  double warm_forwarded_rps = 0.0;
  double warm_p50_us = 0.0;
  double warm_p95_us = 0.0;
  double warm_p99_us = 0.0;
  bool bit_identical = true;
};

// Socket-served backends behind a dispatcher, spun up and torn down per
// reading. Shared by the run_study throughput ladder and the annotate
// latency ladder.
struct BenchCluster {
  std::vector<std::unique_ptr<cluster::ClusterBackend>> backends;
  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  std::vector<std::string> dirs;
  std::unique_ptr<cluster::Dispatcher> dispatcher;

  BenchCluster(const std::string& prefix, std::size_t n_backends,
               std::size_t replication_factor, double hedge_delay_ms = 0.0) {
    cluster::DispatcherOptions dispatch;
    dispatch.replication_factor = replication_factor;
    dispatch.hedge_delay_ms = hedge_delay_ms;
    for (std::size_t i = 0; i < n_backends; ++i) {
      const std::string tag = prefix + "-" + std::to_string(n_backends) +
                              "-r" + std::to_string(replication_factor) +
                              "-" + std::to_string(i) + "-" +
                              std::to_string(::getpid());
      dirs.push_back("/tmp/decompeval-bench-cache-" + tag);
      std::filesystem::remove_all(dirs.back());
      cluster::ClusterBackendOptions backend_options;
      backend_options.cache.directory = dirs.back();
      backend_options.cache.version = core::version();
      backends.push_back(
          std::make_unique<cluster::ClusterBackend>(backend_options));
      service::ServerOptions server_options;
      server_options.socket_path = "/tmp/decompeval-bench-" + tag + ".sock";
      server_options.workers = 2;
      server_options.max_queue = 32;
      server_options.handler = backends.back()->handler();
      server_options.fast_path = backends.back()->fast_path();
      servers.push_back(
          std::make_unique<service::ReplicationServer>(server_options));
      servers.back()->start();
      cluster::BackendEndpoint endpoint;
      endpoint.id = "bench-backend-" + std::to_string(i);
      endpoint.socket_path = server_options.socket_path;
      dispatch.backends.push_back(endpoint);
    }
    dispatcher = std::make_unique<cluster::Dispatcher>(dispatch);
    dispatcher->start();
  }

  // One request the way a dispatcher front server answers it: forwarded,
  // and rendered into `out`.
  void serve_line(const service::Json& request, std::string& out) {
    dispatcher->handle(request, nullptr).dump_to(out);
  }

  ~BenchCluster() {
    dispatcher->stop();
    for (auto& server : servers) server->stop();
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir);
  }
};

// `forward_passes` sets how many 12-request passes the warm-forwarded
// reading times; it must divide into kForwardChunks equal chunks.
ClusterReading bench_cluster(std::size_t n_backends,
                             std::size_t replication_factor,
                             std::size_t forward_passes) {
  using service::Json;
  constexpr std::uint64_t kSeeds = 12;

  BenchCluster bench("study", n_backends, replication_factor);
  cluster::Dispatcher& dispatcher = *bench.dispatcher;

  const std::vector<Json> requests = study_requests(kSeeds);
  const auto line_sweep = [&](std::vector<std::string>* lines) {
    std::string out;
    for (const Json& req : requests) {
      out.clear();
      bench.serve_line(req, out);
      if (lines != nullptr) lines->push_back(out);
    }
  };

  ClusterReading reading;
  std::vector<std::string> cold, warm;
  const double cold_ms = time_ms([&] { line_sweep(&cold); });
  reading.cold_rps = kSeeds / (cold_ms / 1000.0);
  // The first warm pass is bit-identity checked against the cold lines.
  line_sweep(&warm);
  reading.bit_identical = cold == warm;

  // Forwarded warm passes: every request crosses a socket and exercises
  // the backend fast path. The passes are timed in equal chunks and the
  // median chunk rate is the reading, so one scheduler stall cannot set
  // it; every request's latency feeds the percentiles.
  constexpr std::size_t kForwardChunks = 5;
  const std::size_t chunk_passes = forward_passes / kForwardChunks;
  std::vector<double> chunk_rps;
  std::vector<double> latencies_us;
  latencies_us.reserve(kSeeds * chunk_passes * kForwardChunks);
  for (std::size_t chunk = 0; chunk < kForwardChunks; ++chunk) {
    const double chunk_ms = time_ms([&] {
      for (std::size_t pass = 0; pass < chunk_passes; ++pass)
        for (const Json& req : requests) {
          const auto t0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(dispatcher.handle(req, nullptr));
          const auto t1 = std::chrono::steady_clock::now();
          latencies_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
    });
    chunk_rps.push_back((kSeeds * chunk_passes) / (chunk_ms / 1000.0));
  }
  std::sort(chunk_rps.begin(), chunk_rps.end());
  reading.warm_forwarded_rps = chunk_rps[kForwardChunks / 2];
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto percentile = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[rank];
  };
  reading.warm_p50_us = percentile(0.50);
  reading.warm_p95_us = percentile(0.95);
  reading.warm_p99_us = percentile(0.99);
  return reading;
}

// Annotate small-request ladder: the interactive RE-tool workload. Cold
// documents have never been seen by any annotation engine; warm requests
// are single-function edits of a fixed session anchor, carrying it as
// `baseline` so the dispatcher routes every edit to the backend whose
// engine already holds the anchor's slices. The incremental responses
// must be byte-identical to a from-scratch core annotating the same text.
struct AnnotateReading {
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  double cold_p50_us = 0.0;
  double cold_p95_us = 0.0;
  double cold_p99_us = 0.0;
  double warm_p50_us = 0.0;
  double warm_p95_us = 0.0;
  double warm_p99_us = 0.0;
  bool bit_identical = true;
};

// One top-level function; `version` perturbs a constant so edits
// regenerate exactly one function's text.
std::string annotate_function(std::size_t index, std::uint64_t version) {
  return "int fn_" + std::to_string(index) +
         "(int a1, int count) {\n  int v5 = 0;\n"
         "  for (int i = 0; i < count; i = i + 1) { v5 = v5 + a1; }\n"
         "  return v5 + " + std::to_string(version) + ";\n}\n\n";
}

std::string annotate_document(const std::vector<std::uint64_t>& versions) {
  std::string source;
  for (std::size_t i = 0; i < versions.size(); ++i)
    source += annotate_function(i, versions[i]);
  return source;
}

AnnotateReading bench_annotate(std::size_t n_backends) {
  using service::Json;
  constexpr std::size_t kFunctions = 8;
  constexpr std::size_t kColdDocs = 48;
  constexpr std::size_t kEdits = 96;

  BenchCluster bench("annotate", n_backends, /*replication_factor=*/1);
  cluster::Dispatcher& dispatcher = *bench.dispatcher;

  const auto request = [](const std::string& source) {
    Json req = Json::object();
    req.set("op", Json::string("annotate"));
    req.set("source", Json::string(source));
    req.set("threads", Json::number(1));
    return req;
  };
  const auto percentile = [](std::vector<double>& sorted, double p) {
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
  };

  AnnotateReading reading;
  std::string out;

  // Cold: every document is new to every engine (unique constants), and
  // documents spread across the ring like independent sessions would.
  std::vector<double> cold_us;
  cold_us.reserve(kColdDocs);
  for (std::size_t doc = 0; doc < kColdDocs; ++doc) {
    std::vector<std::uint64_t> versions(kFunctions);
    for (std::size_t i = 0; i < kFunctions; ++i)
      versions[i] = 1'000'000 + doc * 100 + i;
    const Json req = request(annotate_document(versions));
    out.clear();
    const auto t0 = std::chrono::steady_clock::now();
    bench.serve_line(req, out);
    const auto t1 = std::chrono::steady_clock::now();
    cold_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  // Throughput is derived from the per-request samples so document
  // generation and identity bookkeeping never dilute it.
  reading.cold_rps =
      kColdDocs /
      (std::accumulate(cold_us.begin(), cold_us.end(), 0.0) / 1e6);
  std::sort(cold_us.begin(), cold_us.end());
  reading.cold_p50_us = percentile(cold_us, 0.50);
  reading.cold_p95_us = percentile(cold_us, 0.95);
  reading.cold_p99_us = percentile(cold_us, 0.99);

  // Warm: annotate the session anchor once, then stream single-function
  // edits against it. Every edited source is new bytes — no response
  // cache can answer it — so the latency measured is the incremental
  // engine path: one slice recomputed, the rest served from its cache.
  const std::vector<std::uint64_t> anchor_versions(kFunctions, 1);
  const std::string anchor = annotate_document(anchor_versions);
  out.clear();
  bench.serve_line(request(anchor), out);

  std::vector<double> warm_us;
  warm_us.reserve(kEdits);
  std::vector<std::string> edited_sources;
  std::vector<std::string> incremental_dumps;
  for (std::size_t edit = 0; edit < kEdits; ++edit) {
    std::vector<std::uint64_t> versions = anchor_versions;
    versions[edit % kFunctions] = 2 + edit;
    edited_sources.push_back(annotate_document(versions));
    Json req = request(edited_sources.back());
    req.set("baseline", Json::string(anchor));
    out.clear();
    const auto t0 = std::chrono::steady_clock::now();
    bench.serve_line(req, out);
    const auto t1 = std::chrono::steady_clock::now();
    warm_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    incremental_dumps.push_back(dispatcher.handle(req, nullptr).dump());
  }
  reading.warm_rps =
      kEdits /
      (std::accumulate(warm_us.begin(), warm_us.end(), 0.0) / 1e6);
  std::sort(warm_us.begin(), warm_us.end());
  reading.warm_p50_us = percentile(warm_us, 0.50);
  reading.warm_p95_us = percentile(warm_us, 0.95);
  reading.warm_p99_us = percentile(warm_us, 0.99);

  // Bit-identity: every incremental response equals a from-scratch core
  // annotating the same text (no baseline, no warm slices).
  for (std::size_t edit = 0; edit < kEdits; ++edit) {
    service::ServiceCore scratch;
    reading.bit_identical =
        reading.bit_identical &&
        scratch.handle(request(edited_sources[edit])).dump() ==
            incremental_dumps[edit];
  }

  return reading;
}

// Fixed-offered-load ladder: four open-loop clients each fire a warm
// run_study request every 10 ms (400 req/s offered in total, independent
// of how fast responses come back), for one second, against 1/2/4
// socket-served backends — once with hedging off and once with a 5 ms
// hedge delay armed. Every request crosses a socket; the comparison
// isolates what arming hedged reads costs on an all-healthy cluster (it
// should be ~nothing: warm forwards answer far inside the hedge delay, so
// hedges rarely fire) while the degraded-peer ladder below measures what
// hedging buys when a peer misbehaves.
struct OfferedLoadReading {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
};

using Clock = std::chrono::steady_clock;

// One open-loop request: which request it was, when it was due, sent and
// answered, and the answer (the rendered line only when the caller keeps
// lines, so the timed loop renders nothing it does not need).
struct LoadSample {
  std::size_t request = 0;
  Clock::time_point due, sent, done;
  bool ok = false;
  std::string line;
};

// Open loop: `clients` threads each send one request per `interval` for
// `window`, all due at the same instants, cycling through `requests` from
// staggered offsets. A client never skips a due request, so a slow answer
// delays the ones behind it, and their due times record the backlog.
std::vector<LoadSample> drive_open_loop(
    cluster::Dispatcher& dispatcher,
    const std::vector<service::Json>& requests, std::size_t clients,
    Clock::duration interval, Clock::duration window, bool keep_lines) {
  std::vector<std::vector<LoadSample>> per_client(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto due = start;
      std::size_t i = c;  // stagger which request each client cycles from
      while (true) {
        due += interval;
        if (due - start > window) break;
        std::this_thread::sleep_until(due);
        LoadSample sample;
        sample.request = i++ % requests.size();
        sample.due = due;
        sample.sent = Clock::now();
        const service::Json response =
            dispatcher.handle(requests[sample.request], nullptr);
        sample.done = Clock::now();
        sample.ok = response.get_string("status", "") == "ok";
        if (keep_lines) sample.line = response.dump();
        per_client[c].push_back(std::move(sample));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<LoadSample> samples;
  for (auto& lane : per_client)
    std::move(lane.begin(), lane.end(), std::back_inserter(samples));
  return samples;
}

OfferedLoadReading bench_offered_load(std::size_t n_backends, bool hedging) {
  using service::Json;
  constexpr std::uint64_t kSeeds = 12;
  constexpr std::size_t kClients = 4;
  constexpr auto kSendInterval = std::chrono::milliseconds(10);
  constexpr auto kWindow = std::chrono::milliseconds(1000);

  BenchCluster bench("offered", n_backends, /*replication_factor=*/1,
                     /*hedge_delay_ms=*/hedging ? 5.0 : 0.0);
  cluster::Dispatcher& dispatcher = *bench.dispatcher;

  const std::vector<Json> requests = study_requests(kSeeds);
  // Pre-warm every backend cache so the window measures serving, not
  // first-time computation.
  for (const Json& req : requests)
    benchmark::DoNotOptimize(dispatcher.handle(req, nullptr));

  const auto start = Clock::now();
  const std::vector<LoadSample> samples =
      drive_open_loop(dispatcher, requests, kClients, kSendInterval, kWindow,
                      /*keep_lines=*/false);
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  for (const LoadSample& s : samples)
    latencies.push_back(
        std::chrono::duration<double, std::micro>(s.done - s.sent).count());
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[rank];
  };
  OfferedLoadReading reading;
  reading.p50_us = percentile(0.50);
  reading.p95_us = percentile(0.95);
  reading.p99_us = percentile(0.99);
  reading.achieved_rps = static_cast<double>(latencies.size()) / elapsed_s;
  const cluster::DispatcherStats stats = dispatcher.stats();
  reading.hedges = stats.hedges;
  reading.hedge_wins = stats.hedge_wins;
  return reading;
}

// Degraded-peer ladder: what hedged reads buy when a peer misbehaves.
// Four socket-served backends at R=1 (disk cache, 2 workers, queue 32),
// each pre-warmed with 48 run_study seeds over its own socket, sit behind
// a dispatcher with a 100 ms forward timeout, hedging off or at a 5 ms
// delay. An open loop offers 400 req/s for 3 s, and latency counts from
// when each request was due. Every scenario but the last degrades
// backend 0 only:
//   healthy    — nothing degraded
//   silent     — net.stall swallows every 20th answer line
//   slow       — +20 ms per request, with no fast path
//   partition  — net.partition fires once, mid-window (sticky)
//   overloaded — every backend +25 ms per request with a queue of 2, and
//                the 400 req/s spread over 16 clients, so queues fill and
//                "overloaded" answers and retries happen
// Requests carry "deadline_ms": 1000 (a volatile field, so cache keys and
// answers are unchanged). Every "ok" answer must equal the faults-off
// bytes. A failed answer ranks as infinitely slow in the percentiles: it
// missed any latency target. Goodput is "ok" answers per second from the
// window's start until the last answer. Hedging is the one overload
// feature left to compare; CHANGES.md has the ladder verdicts that
// removed the others.
enum class Degradation { kHealthy, kSilent, kSlow, kPartition, kOverloaded };

struct DegradedScenario {
  const char* name;
  Degradation kind;
};

const std::vector<DegradedScenario>& degraded_scenarios() {
  static const std::vector<DegradedScenario> scenarios = {
      {"healthy", Degradation::kHealthy},
      {"silent", Degradation::kSilent},
      {"slow", Degradation::kSlow},
      {"partition", Degradation::kPartition},
      {"overloaded", Degradation::kOverloaded},
  };
  return scenarios;
}

// The dispatcher counters each reading records.
const std::vector<std::pair<const char*, std::uint64_t cluster::DispatcherStats::*>>&
degraded_counters() {
  using S = cluster::DispatcherStats;
  static const std::vector<std::pair<const char*, std::uint64_t S::*>>
      counters = {
          {"failovers", &S::failovers},
          {"overloaded_retries", &S::overloaded_retries},
          {"down_skips", &S::down_skips},
          {"exhausted", &S::exhausted},
          {"deadline_refusals", &S::deadline_refusals},
          {"hedges", &S::hedges},
          {"hedge_wins", &S::hedge_wins},
      };
  return counters;
}

struct DegradedReading {
  double p50_ms = 0.0;  ///< +inf when more than half the requests failed
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_rps = 0.0;
  double failed_fraction = 0.0;
  cluster::DispatcherStats stats;
  bool bit_identical = true;
};

// The four backends, warmed once and served by fresh servers per reading.
struct DegradedRig {
  static constexpr std::size_t kBackends = 4;
  static constexpr std::uint64_t kSeeds = 48;
  static constexpr std::uint64_t kOfferedRps = 400;
  static constexpr std::uint64_t kWindowS = 3;
  std::vector<std::unique_ptr<cluster::ClusterBackend>> backends;
  std::vector<std::string> dirs;
  std::vector<std::string> sockets;
  std::vector<service::Json> requests;  ///< the seeds, with deadline_ms
  std::vector<std::string> reference;   ///< faults-off answer line per seed
  std::uint64_t partition_hit = 0;  ///< backend 0's mid-window answer line
  bool prewarm_identical = true;

  DegradedRig() {
    const std::vector<service::Json> plain = study_requests(kSeeds);
    for (std::size_t i = 0; i < kBackends; ++i) {
      const std::string tag =
          std::to_string(i) + "-" + std::to_string(::getpid());
      dirs.push_back("/tmp/decompeval-bench-cache-degraded-" + tag);
      std::filesystem::remove_all(dirs.back());
      sockets.push_back("/tmp/decompeval-bench-degraded-" + tag + ".sock");
      cluster::ClusterBackendOptions options;
      options.cache.directory = dirs.back();
      options.cache.version = core::version();
      backends.push_back(std::make_unique<cluster::ClusterBackend>(options));
      // Pre-warm over the backend's own socket, with no fault armed.
      auto server = start_server(i, Degradation::kHealthy);
      service::ServiceClient client;
      client.connect(sockets[i]);
      for (std::size_t s = 0; s < plain.size(); ++s) {
        const std::string line = client.call(plain[s]).dump();
        if (i == 0)
          reference.push_back(line);
        else
          prewarm_identical = prewarm_identical && line == reference[s];
      }
      client.close();
      server->stop();
    }
    for (service::Json req : plain) {
      req.set("deadline_ms", service::Json::number(1000));
      requests.push_back(std::move(req));
    }
    // Backend 0 answers the seeds whose ring primary it is; the partition
    // fires halfway through the window's share of them.
    cluster::HashRing ring;
    for (std::size_t i = 0; i < kBackends; ++i)
      ring.add(endpoint(i).id);
    std::uint64_t owned = 0;
    for (const service::Json& req : plain)
      owned += ring.primary(service::canonical_request_key(req)) ==
               endpoint(0).id;
    partition_hit = kOfferedRps * kWindowS * owned / kSeeds / 2;
  }

  ~DegradedRig() {
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir);
  }

  cluster::BackendEndpoint endpoint(std::size_t i) const {
    cluster::BackendEndpoint e;
    e.id = "degraded-backend-" + std::to_string(i);
    e.socket_path = sockets[i];
    return e;
  }

  std::unique_ptr<service::ReplicationServer> start_server(
      std::size_t i, Degradation kind) const {
    service::ServerOptions options;
    options.socket_path = sockets[i];
    options.workers = 2;
    options.max_queue = kind == Degradation::kOverloaded ? 2 : 32;
    options.handler = backends[i]->handler();
    const bool victim = i == 0 || kind == Degradation::kOverloaded;
    int delay_ms = 0;
    if (victim && kind == Degradation::kSlow) delay_ms = 20;
    if (kind == Degradation::kOverloaded) delay_ms = 25;
    if (delay_ms > 0) {
      // Slow answers with no fast path: every request queues for a worker.
      options.handler = [inner = options.handler, delay_ms](
                            const service::Json& request,
                            const std::atomic<bool>* cancel) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        return inner(request, cancel);
      };
    } else {
      options.fast_path = backends[i]->fast_path();
    }
    if (victim && kind == Degradation::kSilent)
      options.fault_plan.set("net.stall", util::FaultSpec::every_nth(20));
    if (victim && kind == Degradation::kPartition)
      options.fault_plan.set("net.partition",
                             util::FaultSpec::once(partition_hit));
    auto server = std::make_unique<service::ReplicationServer>(options);
    server->start();
    return server;
  }
};

DegradedReading bench_degraded(const DegradedRig& rig, Degradation kind,
                               bool hedged) {
  const std::size_t clients = kind == Degradation::kOverloaded ? 16 : 4;
  const auto interval = std::chrono::microseconds(
      1'000'000 * clients / DegradedRig::kOfferedRps);

  std::vector<std::unique_ptr<service::ReplicationServer>> servers;
  cluster::DispatcherOptions options;
  options.forward_timeout_ms = 100.0;
  options.hedge_delay_ms = hedged ? 5.0 : 0.0;
  for (std::size_t i = 0; i < DegradedRig::kBackends; ++i) {
    servers.push_back(rig.start_server(i, kind));
    options.backends.push_back(rig.endpoint(i));
  }
  cluster::Dispatcher dispatcher(options);
  dispatcher.start();

  const auto start = Clock::now();
  const std::vector<LoadSample> samples =
      drive_open_loop(dispatcher, rig.requests, clients, interval,
                      std::chrono::seconds(DegradedRig::kWindowS),
                      /*keep_lines=*/true);
  DegradedReading reading;
  reading.stats = dispatcher.stats();
  dispatcher.stop();
  for (auto& server : servers) server->stop();

  std::vector<double> latencies_ms;
  std::size_t ok = 0;
  Clock::time_point last = start;
  for (const LoadSample& s : samples) {
    last = std::max(last, s.done);
    if (!s.ok) {
      latencies_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++ok;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(s.done - s.due).count());
    reading.bit_identical =
        reading.bit_identical && s.line == rig.reference[s.request];
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto percentile = [&](double p) {
    return latencies_ms[static_cast<std::size_t>(
        p * static_cast<double>(latencies_ms.size() - 1))];
  };
  reading.p50_ms = percentile(0.50);
  reading.p90_ms = percentile(0.90);
  reading.p99_ms = percentile(0.99);
  reading.goodput_rps =
      static_cast<double>(ok) /
      std::chrono::duration<double>(last - start).count();
  reading.failed_fraction = 1.0 - static_cast<double>(ok) /
                                      static_cast<double>(samples.size());
  return reading;
}

// Sustained-absorb streaming ladder: one stream served through the
// dispatcher at 1/2/4 socket-served backends, absorbing arrivals in
// batches with a stream_dashboard probe between batches — the live
// "operator watching the windowed RQs while the study runs" workload.
// The stream routes by its id to a single backend, so the ladder
// measures serving-path interference (more server threads on the same
// host), not sharding; the headline column is the bit-identity of the
// state digest across backend counts and refit cadences on/off.
struct StreamReading {
  double absorb_rps = 0.0;  ///< arrivals/s through the dispatcher
  double dash_p50_us = 0.0;
  double dash_p95_us = 0.0;
  double dash_p99_us = 0.0;
  std::string digest;
};

StreamReading bench_stream(std::size_t n_backends, bool refits) {
  using service::Json;
  constexpr std::uint64_t kArrivals = 4000;
  constexpr std::uint64_t kBatch = 200;

  BenchCluster bench(refits ? "stream-refit" : "stream", n_backends,
                     /*replication_factor=*/1);
  cluster::Dispatcher& dispatcher = *bench.dispatcher;

  Json open = Json::object();
  open.set("op", Json::string("stream_open"));
  open.set("stream", Json::string("bench"));
  open.set("population", Json::number(32));
  open.set("window_events", Json::number(512));
  if (refits) {
    open.set("refit_every", Json::number(1000));
    open.set("fit_starts", Json::number(2));
  }
  benchmark::DoNotOptimize(dispatcher.handle(open, nullptr));

  Json dash = Json::object();
  dash.set("op", Json::string("stream_dashboard"));
  dash.set("stream", Json::string("bench"));

  std::vector<double> dash_us;
  double absorb_ms = 0.0;
  for (std::uint64_t upto = kBatch; upto <= kArrivals; upto += kBatch) {
    Json absorb = Json::object();
    absorb.set("op", Json::string("stream_absorb"));
    absorb.set("stream", Json::string("bench"));
    absorb.set("upto", Json::number(static_cast<double>(upto)));
    absorb_ms += time_ms(
        [&] { benchmark::DoNotOptimize(dispatcher.handle(absorb, nullptr)); });
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(dispatcher.handle(dash, nullptr));
    dash_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }

  StreamReading reading;
  reading.absorb_rps =
      static_cast<double>(kArrivals) / (absorb_ms / 1000.0);
  std::sort(dash_us.begin(), dash_us.end());
  const auto percentile = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(dash_us.size() - 1));
    return dash_us[rank];
  };
  reading.dash_p50_us = percentile(0.50);
  reading.dash_p95_us = percentile(0.95);
  reading.dash_p99_us = percentile(0.99);

  Json stats = Json::object();
  stats.set("op", Json::string("stream_stats"));
  stats.set("stream", Json::string("bench"));
  reading.digest = dispatcher.handle(stats, nullptr).get_string("digest", "");
  return reading;
}

// Replicated stream writes: one stream on 3 backends at replication
// factor 2, shaped like clusterbench's stream_ingest set-up and first
// window absorb. Each run builds a fresh cluster, opens the stream at
// default options with a refit point 100 arrivals past a 40,000-arrival
// "upto" fill, and times the fill and then the one absorb that crosses the
// refit point, which the primary and its replica both run. Each time is
// the median of kRuns runs. The primary's and the replica's digests are
// read from their own sockets and must match.
struct ReplicatedStreamReading {
  double fill_ms = 0.0;
  double refit_absorb_ms = 0.0;
  bool replica_identical = true;
};

ReplicatedStreamReading bench_stream_r2() {
  using service::Json;
  constexpr std::uint64_t kFill = 40000;
  constexpr std::uint64_t kRefitEvery = kFill + 100;
  constexpr std::size_t kRuns = 5;
  const auto stream_op = [](const char* op) {
    Json r = Json::object();
    r.set("op", Json::string(op));
    r.set("stream", Json::string("r2"));
    return r;
  };
  ReplicatedStreamReading reading;
  std::vector<double> fill_ms, refit_ms;
  for (std::size_t run = 0; run < kRuns; ++run) {
    BenchCluster bench("stream-r2", 3, /*replication_factor=*/2);
    cluster::Dispatcher& dispatcher = *bench.dispatcher;
    Json open = stream_op("stream_open");
    open.set("refit_every", Json::number(static_cast<double>(kRefitEvery)));
    benchmark::DoNotOptimize(dispatcher.handle(open, nullptr));
    const auto absorb_ms = [&](std::uint64_t upto) {
      Json absorb = stream_op("stream_absorb");
      absorb.set("upto", Json::number(static_cast<double>(upto)));
      return time_ms(
          [&] { benchmark::DoNotOptimize(dispatcher.handle(absorb, nullptr)); });
    };
    fill_ms.push_back(absorb_ms(kFill));
    refit_ms.push_back(absorb_ms(kRefitEvery));

    std::string key;
    service::routing_key(open, key);
    std::vector<std::string> digests;
    for (const std::string& id : dispatcher.ring().replicas_for(key, 2))
      for (std::size_t b = 0; b < bench.servers.size(); ++b) {
        if (id != "bench-backend-" + std::to_string(b)) continue;
        service::ServiceClient client;
        client.connect(bench.servers[b]->socket_path());
        digests.push_back(
            client.call(stream_op("stream_stats")).get_string("digest", ""));
      }
    reading.replica_identical = reading.replica_identical &&
                                digests.size() == 2 && !digests[0].empty() &&
                                digests[0] == digests[1];
  }
  std::sort(fill_ms.begin(), fill_ms.end());
  std::sort(refit_ms.begin(), refit_ms.end());
  reading.fill_ms = fill_ms[kRuns / 2];
  reading.refit_absorb_ms = refit_ms[kRuns / 2];
  return reading;
}

// Cold metric battery: the four metric kernels over a fixed randomized
// workload, timed with the rewritten kernels and again with the retained
// reference implementations, results compared for exact equality. The
// ">= 2x battery" acceptance number comes from here.
struct BatteryReading {
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  bool bit_identical = true;
};

BatteryReading bench_metric_battery() {
  util::Rng rng(20260808);
  const std::string_view alphabet = "abcdefghijklmnopqrstuvwxyz();{}= ";
  std::vector<std::pair<std::string, std::string>> string_pairs;
  for (int i = 0; i < 60; ++i) {
    const auto make = [&](std::size_t len) {
      std::string s;
      for (std::size_t k = 0; k < len; ++k)
        s.push_back(alphabet[rng.uniform_index(alphabet.size())]);
      return s;
    };
    string_pairs.emplace_back(make(40 + rng.uniform_index(400)),
                              make(40 + rng.uniform_index(400)));
  }
  const std::vector<std::string> vocab = {"int",    "x",  "=", "0",   ";",
                                          "if",     "(",  ")", "ptr", "len",
                                          "return", "buf"};
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      token_pairs;
  for (int i = 0; i < 60; ++i) {
    const auto make = [&](std::size_t len) {
      std::vector<std::string> t;
      for (std::size_t k = 0; k < len; ++k)
        t.push_back(vocab[rng.uniform_index(vocab.size())]);
      return t;
    };
    token_pairs.emplace_back(make(5 + rng.uniform_index(40)),
                             make(5 + rng.uniform_index(40)));
  }
  const auto model = embed::EmbeddingModel::train(
      embed::generate_corpus(500, 42), embed::EmbeddingOptions{});

  const auto run_battery = [&](bool reference, std::vector<double>* values) {
    for (const auto& [a, b] : string_pairs)
      values->push_back(static_cast<double>(
          reference ? text::levenshtein_reference(a, b)
                    : text::levenshtein(a, b)));
    for (const auto& [cand, ref] : token_pairs) {
      values->push_back(reference ? text::bleu_reference(cand, ref).bleu
                                  : text::bleu(cand, ref).bleu);
      values->push_back(
          reference ? metrics::weighted_unigram_match_reference(cand, ref)
                    : metrics::weighted_unigram_match(cand, ref));
      const auto bs = reference
                          ? metrics::bert_score_reference(cand, ref, model)
                          : metrics::bert_score(cand, ref, model);
      values->push_back(bs.f1);
    }
  };
  BatteryReading reading;
  std::vector<double> fast_values, reference_values;
  reading.fast_ms = time_ms([&] { run_battery(false, &fast_values); });
  reading.reference_ms =
      time_ms([&] { run_battery(true, &reference_values); });
  reading.bit_identical = fast_values == reference_values;
  return reading;
}

// Concurrent callers: kCallers threads share one ServiceCore, as a
// backend's workers do, and each runs kCallerRequests run_replication
// requests with metrics on distinct seeds ("no_cache", so every request
// computes). One reading per "threads" value; the answers must match
// byte for byte across readings. A sampler thread polls the process's
// "Threads:" count every 2 ms, so the peak counts the main thread, the
// sampler, the callers and whatever helpers the pool has started.
constexpr std::size_t kCallers = 4;
constexpr std::size_t kCallerRequests = 6;

struct CallersReading {
  double rps = 0.0;
  std::size_t peak_threads = 0;
  std::vector<std::string> answers;  ///< in seed order
};

std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

service::Json replication_request(std::uint64_t seed) {
  service::Json req = service::Json::object();
  req.set("op", service::Json::string("run_replication"));
  req.set("seed", service::Json::number(static_cast<double>(seed)));
  req.set("run_metrics", service::Json::boolean(true));
  req.set("no_cache", service::Json::boolean(true));
  return req;
}

CallersReading bench_concurrent_callers(service::ServiceCore& core,
                                        std::size_t threads) {
  CallersReading reading;
  reading.answers.resize(kCallers * kCallerRequests);
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      reading.peak_threads =
          std::max(reading.peak_threads, process_threads());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const double ms = time_ms([&] {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c)
      callers.emplace_back([&, c] {
        for (std::size_t k = 0; k < kCallerRequests; ++k) {
          const std::size_t i = c * kCallerRequests + k;
          service::Json req = replication_request(9000 + i);
          req.set("threads",
                  service::Json::number(static_cast<double>(threads)));
          reading.answers[i] = core.handle(req).dump();
        }
      });
    for (std::thread& t : callers) t.join();
  });
  done = true;
  sampler.join();
  reading.rps = static_cast<double>(kCallers * kCallerRequests) / (ms / 1e3);
  return reading;
}

void BM_ThreadPoolBatchOverhead(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(64, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadPoolBatchOverhead)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return decompeval::bench::run_bench_main(argc, argv, [] {
    using decompeval::util::format_fixed;
    const std::size_t hw = util::default_thread_count();
    const auto ladder = thread_ladder();

    std::cout << "Task-parallel scaling (hardware_concurrency = " << hw
              << "):\n\n";

    // 1. Robustness: 10-seed sweep (the acceptance workload).
    analysis::RobustnessConfig robustness;
    robustness.n_seeds = 10;
    std::vector<double> robustness_ms;
    analysis::RobustnessSummary serial_summary;
    bool robustness_identical = true;
    for (const std::size_t threads : ladder) {
      robustness.threads = threads;
      analysis::RobustnessSummary summary;
      robustness_ms.push_back(
          time_ms([&] { summary = analysis::analyze_robustness(robustness); }));
      if (threads == 1)
        serial_summary = summary;
      else
        robustness_identical =
            robustness_identical && identical(serial_summary, summary);
    }

    // 2. Power: 12 GLMM replicates.
    analysis::PowerConfig power;
    power.n_replicates = 12;
    std::vector<double> power_ms;
    for (const std::size_t threads : ladder) {
      power.threads = threads;
      power_ms.push_back(
          time_ms([&] { benchmark::DoNotOptimize(estimate_power(power)); }));
    }

    // 3. Embedding training: 8000-sentence corpus.
    const auto corpus = embed::generate_corpus(8000, 42);
    std::vector<double> embed_ms;
    for (const std::size_t threads : ladder) {
      embed::EmbeddingOptions options;
      options.threads = threads;
      embed_ms.push_back(time_ms([&] {
        benchmark::DoNotOptimize(embed::EmbeddingModel::train(corpus, options));
      }));
    }

    // 4. Multi-start GLMM: the default 8-start Laplace fit, with a
    //    bit-identity check of the winning deviance across thread counts.
    const auto model_data = analysis::build_model_data(
        bench::cached_study(), /*timing_model=*/false);
    std::vector<double> glmm_ms;
    double glmm_serial_deviance = 0.0;
    bool glmm_identical = true;
    for (const std::size_t threads : ladder) {
      mixed::FitOptions options;
      options.threads = threads;
      mixed::GlmmFit fit;
      glmm_ms.push_back(
          time_ms([&] { fit = mixed::fit_logistic_glmm(model_data, options); }));
      if (threads == 1)
        glmm_serial_deviance = fit.deviance;
      else
        glmm_identical =
            glmm_identical && fit.deviance == glmm_serial_deviance;
    }

    // 5. Sharded study simulation, bit-identity checked on the responses.
    std::vector<double> study_ms;
    study::StudyData serial_study;
    bool study_identical = true;
    for (const std::size_t threads : ladder) {
      study::StudyConfig config;
      config.threads = threads;
      study::StudyData data;
      study_ms.push_back(time_ms([&] { data = study::run_study(config); }));
      if (threads == 1) {
        serial_study = std::move(data);
        continue;
      }
      bool same = data.responses.size() == serial_study.responses.size();
      for (std::size_t i = 0; same && i < data.responses.size(); ++i)
        same = data.responses[i].seconds == serial_study.responses[i].seconds &&
               data.responses[i].correct == serial_study.responses[i].correct;
      study_identical = study_identical && same;
    }

    // 6. Cluster throughput: dispatcher + socket-served backends at
    //    1/2/4 shards, cold (computing) vs warm (cache-served) req/sec.
    //
    //    Ladder caveat: on a 1-core host, adding backends adds server
    //    threads without adding compute, so the *forwarded* warm column
    //    degrades as backends contend for the single core — that is host
    //    topology, not a cluster regression. The dispatcher-cached warm
    //    column is backend-count independent by construction (no
    //    forwarding). Interpret scaling columns only when
    //    hardware_concurrency >= the backend count.
    //
    //    The warm-forwarded column times 200 passes (2,400 forwards) in 5
    //    chunks of 480 and reports the median chunk rate. The chunks of
    //    one reading agree closely, but the whole reading still moves
    //    2-4x between runs, so compare it by medians over several runs.
    const std::vector<std::size_t> backend_ladder = {1, 2, 4};
    std::vector<ClusterReading> cluster_readings;
    for (const std::size_t n : backend_ladder)
      cluster_readings.push_back(
          bench_cluster(n, /*replication_factor=*/1, /*forward_passes=*/200));

    // 6b. Replication ladder: the same 3-backend cluster at R=1 vs R=2.
    //     R=2 replicates stream writes only, and this sweep sends none, so
    //     the two readings should agree: a cacheable read is answered and
    //     stored by its primary alone at either R, and a read whose
    //     primary dies is recomputed bit-identically by the next ring
    //     backend (R=1 survives a kill -9 the same way). Both
    //     warm-forwarded columns time the 2,400 forwards of the ladder
    //     above.
    const std::vector<std::size_t> replication_ladder = {1, 2};
    std::vector<ClusterReading> replication_readings;
    for (const std::size_t r : replication_ladder)
      replication_readings.push_back(
          bench_cluster(3, r, /*forward_passes=*/200));

    // 6c. Annotate small-request ladder: cold documents vs incremental
    //     edits of a baseline-routed session anchor, per-request
    //     p50/p95/p99 through the dispatcher at 1/2/4 backends.
    std::vector<AnnotateReading> annotate_readings;
    for (const std::size_t n : backend_ladder)
      annotate_readings.push_back(bench_annotate(n));

    // 6d. Fixed-offered-load ladder (400 req/s, warm forwards) at 1/2/4
    //     backends, hedging off vs armed — the cost of carrying hedged
    //     reads on a healthy cluster. Which reading runs first alternates
    //     with the backend count (hedged first at 1 and 4 backends), so a
    //     run-order effect shows as a sign flip between neighbours.
    std::vector<OfferedLoadReading> unhedged_readings, hedged_readings;
    std::vector<const char*> offered_first;
    for (std::size_t i = 0; i < backend_ladder.size(); ++i) {
      const bool hedged_first = i % 2 == 0;
      offered_first.push_back(hedged_first ? "hedged" : "unhedged");
      for (const bool hedging : {hedged_first, !hedged_first})
        (hedging ? hedged_readings : unhedged_readings)
            .push_back(bench_offered_load(backend_ladder[i], hedging));
    }

    // 6e. Sustained-absorb streaming ladder: 4000 arrivals absorbed in
    //     batches with a dashboard probe between batches, refit cadence
    //     off vs every-1000. The digest column is the acceptance check:
    //     bit-identical across backend counts and unchanged by refits.
    std::vector<StreamReading> stream_readings, stream_refit_readings;
    for (const std::size_t n : backend_ladder) {
      stream_readings.push_back(bench_stream(n, /*refits=*/false));
      stream_refit_readings.push_back(bench_stream(n, /*refits=*/true));
    }
    //     Then the replicated write path: a fill and a refit-crossing
    //     absorb at R=2 on 3 backends, which the ladder (R=1) never sends.
    const ReplicatedStreamReading stream_r2 = bench_stream_r2();

    // 6f. Degraded-peer ladder: hedging off vs on against a silent, slow,
    //     partitioned or overloaded peer. Which runs first alternates by
    //     scenario (off first on healthy).
    const DegradedRig degraded_rig;
    std::vector<DegradedReading> degraded_off, degraded_hedged;
    for (std::size_t s = 0; s < degraded_scenarios().size(); ++s)
      for (const bool hedged : {s % 2 == 1, s % 2 == 0})
        (hedged ? degraded_hedged : degraded_off)
            .push_back(bench_degraded(degraded_rig,
                                      degraded_scenarios()[s].kind, hedged));

    // 6g. Concurrent callers: four threads each running run_replication
    //     with metrics at "threads" 1 (serial requests) and 0 (every idle
    //     helper). The embedding model is trained once, before timing.
    service::ServiceCore callers_core;
    callers_core.handle(replication_request(8999));
    const std::vector<std::size_t> callers_ladder = {1, 0};
    std::vector<CallersReading> callers_readings;
    for (const std::size_t threads : callers_ladder)
      callers_readings.push_back(
          bench_concurrent_callers(callers_core, threads));
    bool callers_identical = true;
    for (const CallersReading& r : callers_readings)
      callers_identical = callers_identical &&
                          r.answers == callers_readings[0].answers &&
                          r.answers[0].find("\"status\":\"ok\"") !=
                              std::string::npos;

    // 7. Cold metric battery, rewritten kernels vs retained references.
    const BatteryReading battery = bench_metric_battery();

    const auto print_row = [&](const char* label,
                               const std::vector<double>& ms) {
      std::cout << "  " << label << ":";
      for (std::size_t i = 0; i < ladder.size(); ++i)
        std::cout << "  t" << ladder[i] << "=" << format_fixed(ms[i], 0)
                  << "ms";
      std::cout << "  (speedup t" << ladder.back() << "/t1 = "
                << format_fixed(ms[0] / ms.back(), 2) << "x)\n";
    };
    print_row("robustness 10 seeds ", robustness_ms);
    print_row("power 12 replicates ", power_ms);
    print_row("embedding 8k corpus ", embed_ms);
    print_row("glmm 8-start fit    ", glmm_ms);
    print_row("study simulation    ", study_ms);
    std::cout << "  robustness summary bit-identical across thread counts: "
              << (robustness_identical ? "yes" : "NO — BUG") << "\n";
    std::cout << "  glmm deviance bit-identical across thread counts:      "
              << (glmm_identical ? "yes" : "NO — BUG") << "\n";
    std::cout << "  study responses bit-identical across thread counts:    "
              << (study_identical ? "yes" : "NO — BUG") << "\n";

    bool cluster_identical = true;
    std::cout << "\nCluster throughput (12-seed run_study sweep through the "
                 "dispatcher):\n";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i) {
      const ClusterReading& r = cluster_readings[i];
      cluster_identical = cluster_identical && r.bit_identical;
      std::cout << "  backends=" << backend_ladder[i] << ":  cold="
                << format_fixed(r.cold_rps, 1) << " req/s  warm-forwarded="
                << format_fixed(r.warm_forwarded_rps, 1)
                << " req/s  p50/p95/p99=" << format_fixed(r.warm_p50_us, 1)
                << "/" << format_fixed(r.warm_p95_us, 1) << "/"
                << format_fixed(r.warm_p99_us, 1) << " us\n";
    }
    std::cout << "  cold and warm responses bit-identical:                 "
              << (cluster_identical ? "yes" : "NO — BUG") << "\n";

    bool replication_identical = true;
    std::cout << "\nReplication overhead (3 backends, R=1 vs R=2):\n";
    for (std::size_t i = 0; i < replication_ladder.size(); ++i) {
      const ClusterReading& r = replication_readings[i];
      replication_identical = replication_identical && r.bit_identical;
      std::cout << "  R=" << replication_ladder[i] << ":  cold="
                << format_fixed(r.cold_rps, 1) << " req/s  warm-forwarded="
                << format_fixed(r.warm_forwarded_rps, 1)
                << " req/s  p50/p95/p99=" << format_fixed(r.warm_p50_us, 1)
                << "/" << format_fixed(r.warm_p95_us, 1) << "/"
                << format_fixed(r.warm_p99_us, 1) << " us\n";
    }
    std::cout << "  replicated responses bit-identical:                    "
              << (replication_identical ? "yes" : "NO — BUG") << "\n";

    bool annotate_identical = true;
    std::cout << "\nAnnotate latency (8-function documents through the "
                 "dispatcher):\n";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i) {
      const AnnotateReading& r = annotate_readings[i];
      annotate_identical = annotate_identical && r.bit_identical;
      std::cout << "  backends=" << backend_ladder[i]
                << ":  cold p50/p95/p99=" << format_fixed(r.cold_p50_us, 1)
                << "/" << format_fixed(r.cold_p95_us, 1) << "/"
                << format_fixed(r.cold_p99_us, 1) << " us ("
                << format_fixed(r.cold_rps, 1) << " req/s)  warm-incremental"
                << " p50/p95/p99=" << format_fixed(r.warm_p50_us, 1) << "/"
                << format_fixed(r.warm_p95_us, 1) << "/"
                << format_fixed(r.warm_p99_us, 1) << " us ("
                << format_fixed(r.warm_rps, 1) << " req/s)\n";
    }
    std::cout << "  incremental responses bit-identical to from-scratch:   "
              << (annotate_identical ? "yes" : "NO — BUG") << "\n";
    if (hw < backend_ladder.back()) {
      std::cout << "  NOTE: " << hw << "-core host — the forwarded ladder "
                << "measures thread contention, not sharding; see the "
                << "comment above bench_cluster.\n";
    }

    std::cout << "\nFixed offered load (400 req/s warm forwards, hedging "
                 "off vs 5ms hedge):\n";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i) {
      const OfferedLoadReading& off = unhedged_readings[i];
      const OfferedLoadReading& on = hedged_readings[i];
      std::cout << "  backends=" << backend_ladder[i]
                << ":  unhedged p50/p95/p99=" << format_fixed(off.p50_us, 1)
                << "/" << format_fixed(off.p95_us, 1) << "/"
                << format_fixed(off.p99_us, 1) << " us ("
                << format_fixed(off.achieved_rps, 1) << " req/s)  hedged"
                << " p50/p95/p99=" << format_fixed(on.p50_us, 1) << "/"
                << format_fixed(on.p95_us, 1) << "/"
                << format_fixed(on.p99_us, 1) << " us ("
                << format_fixed(on.achieved_rps, 1) << " req/s, hedges="
                << on.hedges << ", wins=" << on.hedge_wins << ")  "
                << offered_first[i] << " first\n";
    }

    bool stream_identical = true;
    for (const StreamReading& r : stream_readings)
      stream_identical = stream_identical &&
                         !r.digest.empty() &&
                         r.digest == stream_readings.front().digest;
    for (const StreamReading& r : stream_refit_readings)
      stream_identical = stream_identical &&
                         r.digest == stream_readings.front().digest;
    stream_identical = stream_identical && stream_r2.replica_identical;
    std::cout << "\nStreaming sustained absorb (4000 arrivals, dashboard "
                 "probe per 200-arrival batch):\n";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i) {
      const StreamReading& off = stream_readings[i];
      const StreamReading& on = stream_refit_readings[i];
      std::cout << "  backends=" << backend_ladder[i] << ":  absorb="
                << format_fixed(off.absorb_rps, 1)
                << " arrivals/s  dashboard p50/p95/p99="
                << format_fixed(off.dash_p50_us, 1) << "/"
                << format_fixed(off.dash_p95_us, 1) << "/"
                << format_fixed(off.dash_p99_us, 1) << " us  with-refits="
                << format_fixed(on.absorb_rps, 1) << " arrivals/s\n";
    }
    std::cout << "  R=2 on 3 backends (median of 5): 40,000-arrival fill="
              << format_fixed(stream_r2.fill_ms, 1)
              << " ms  refit-crossing absorb="
              << format_fixed(stream_r2.refit_absorb_ms, 1)
              << " ms  replica digest matches primary: "
              << (stream_r2.replica_identical ? "yes" : "NO — BUG") << "\n";
    std::cout << "  stream digests bit-identical across ladder, refits and "
                 "replica:  "
              << (stream_identical ? "yes" : "NO — BUG") << "\n";

    bool degraded_identical = degraded_rig.prewarm_identical;
    std::cout << "\nDegraded-peer ladder (4 backends, 400 req/s open loop, "
                 "3 s windows, hedging off vs at 5 ms):\n";
    for (std::size_t s = 0; s < degraded_scenarios().size(); ++s) {
      for (const bool hedged : {false, true}) {
        const DegradedReading& r =
            (hedged ? degraded_hedged : degraded_off)[s];
        degraded_identical = degraded_identical && r.bit_identical;
        std::cout << "  " << degraded_scenarios()[s].name
                  << (hedged ? " hedged" : " off") << ":  p50/p90/p99="
                  << format_fixed(r.p50_ms, 2) << "/"
                  << format_fixed(r.p90_ms, 2) << "/"
                  << format_fixed(r.p99_ms, 2) << " ms  goodput="
                  << format_fixed(r.goodput_rps, 1) << " req/s  failed="
                  << format_fixed(100.0 * r.failed_fraction, 2) << "%";
        for (const auto& [name, counter] : degraded_counters())
          if (r.stats.*counter > 0)
            std::cout << " " << name << "=" << r.stats.*counter;
        std::cout << "\n";
      }
    }
    std::cout << "  ok answers bit-identical to the faults-off bytes:     "
              << (degraded_identical ? "yes" : "NO — BUG") << "\n";

    std::cout << "\nConcurrent callers (" << kCallers << " threads x "
              << kCallerRequests
              << " run_replication with metrics, one ServiceCore):\n";
    for (std::size_t i = 0; i < callers_ladder.size(); ++i)
      std::cout << "  threads=" << callers_ladder[i]
                << ":  " << format_fixed(callers_readings[i].rps, 2)
                << " req/s  peak process threads="
                << callers_readings[i].peak_threads << "\n";
    std::cout << "  answers bit-identical across thread budgets:           "
              << (callers_identical ? "yes" : "NO — BUG") << "\n";

    std::cout << "\nCold metric battery (kernels vs retained references):\n"
              << "  fast=" << format_fixed(battery.fast_ms, 1)
              << "ms  reference=" << format_fixed(battery.reference_ms, 1)
              << "ms  speedup="
              << format_fixed(battery.reference_ms / battery.fast_ms, 2)
              << "x  bit-identical: "
              << (battery.bit_identical ? "yes" : "NO — BUG") << "\n";

    const auto json_ladder = [&](std::ostream& os,
                                 const std::vector<double>& ms) {
      os << "{";
      for (std::size_t i = 0; i < ladder.size(); ++i)
        os << (i ? ", " : "") << "\"" << ladder[i]
           << "\": " << format_fixed(ms[i], 3);
      os << "}";
    };
    warn_if_host_changed(hw);

    std::ofstream json("BENCH_parallel.json");
    json << "{\n  \"bench\": \"parallel_scaling\",\n"
         << "  \"hardware_concurrency\": " << hw << ",\n"
         << "  \"host_fingerprint\": \"" << host_fingerprint() << "\",\n"
         << "  \"robustness_10seed_ms\": ";
    json_ladder(json, robustness_ms);
    json << ",\n  \"robustness_speedup_t" << ladder.back() << "_vs_t1\": "
         << format_fixed(robustness_ms[0] / robustness_ms.back(), 3)
         << ",\n  \"robustness_bit_identical\": "
         << (robustness_identical ? "true" : "false")
         << ",\n  \"power_12rep_ms\": ";
    json_ladder(json, power_ms);
    json << ",\n  \"embedding_8k_ms\": ";
    json_ladder(json, embed_ms);
    json << ",\n  \"glmm_multistart_ms\": ";
    json_ladder(json, glmm_ms);
    json << ",\n  \"glmm_bit_identical\": "
         << (glmm_identical ? "true" : "false")
         << ",\n  \"run_study_ms\": ";
    json_ladder(json, study_ms);
    json << ",\n  \"run_study_bit_identical\": "
         << (study_identical ? "true" : "false");
    json << ",\n  \"cluster_cold_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": " << format_fixed(cluster_readings[i].cold_rps, 3);
    json << "},\n  \"cluster_warm_forwarded_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": "
           << format_fixed(cluster_readings[i].warm_forwarded_rps, 3);
    json << "},\n  \"cluster_warm_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(cluster_readings[i].warm_p50_us, 3)
           << ", \"p95\": "
           << format_fixed(cluster_readings[i].warm_p95_us, 3)
           << ", \"p99\": "
           << format_fixed(cluster_readings[i].warm_p99_us, 3) << "}";
    json << "},\n  \"cluster_bit_identical\": "
         << (cluster_identical ? "true" : "false");
    json << ",\n  \"cluster_replication_cold_rps\": {";
    for (std::size_t i = 0; i < replication_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"r" << replication_ladder[i] << "\": "
           << format_fixed(replication_readings[i].cold_rps, 3);
    json << "},\n  \"cluster_replication_warm_forwarded_rps\": {";
    for (std::size_t i = 0; i < replication_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"r" << replication_ladder[i] << "\": "
           << format_fixed(replication_readings[i].warm_forwarded_rps, 3);
    json << "},\n  \"cluster_replication_bit_identical\": "
         << (replication_identical ? "true" : "false");
    json << ",\n  \"annotate_cold_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(annotate_readings[i].cold_p50_us, 3)
           << ", \"p95\": "
           << format_fixed(annotate_readings[i].cold_p95_us, 3)
           << ", \"p99\": "
           << format_fixed(annotate_readings[i].cold_p99_us, 3) << "}";
    json << "},\n  \"annotate_warm_incremental_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(annotate_readings[i].warm_p50_us, 3)
           << ", \"p95\": "
           << format_fixed(annotate_readings[i].warm_p95_us, 3)
           << ", \"p99\": "
           << format_fixed(annotate_readings[i].warm_p99_us, 3) << "}";
    json << "},\n  \"annotate_cold_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": " << format_fixed(annotate_readings[i].cold_rps, 3);
    json << "},\n  \"annotate_warm_incremental_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": " << format_fixed(annotate_readings[i].warm_rps, 3);
    json << "},\n  \"offered_load_target_rps\": 400";
    json << ",\n  \"offered_load_unhedged_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(unhedged_readings[i].p50_us, 3) << ", \"p95\": "
           << format_fixed(unhedged_readings[i].p95_us, 3) << ", \"p99\": "
           << format_fixed(unhedged_readings[i].p99_us, 3) << "}";
    json << "},\n  \"offered_load_hedged_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(hedged_readings[i].p50_us, 3) << ", \"p95\": "
           << format_fixed(hedged_readings[i].p95_us, 3) << ", \"p99\": "
           << format_fixed(hedged_readings[i].p99_us, 3) << "}";
    json << "},\n  \"offered_load_achieved_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": {\"unhedged\": "
           << format_fixed(unhedged_readings[i].achieved_rps, 3)
           << ", \"hedged\": "
           << format_fixed(hedged_readings[i].achieved_rps, 3) << "}";
    json << "},\n  \"offered_load_first\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": \""
           << offered_first[i] << "\"";
    json << "},\n  \"offered_load_hedges\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": "
           << hedged_readings[i].hedges;
    json << "},\n  \"stream_absorb_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": " << format_fixed(stream_readings[i].absorb_rps, 3);
    json << "},\n  \"stream_refit_absorb_rps\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i]
           << "\": " << format_fixed(stream_refit_readings[i].absorb_rps, 3);
    json << "},\n  \"stream_dashboard_latency_us\": {";
    for (std::size_t i = 0; i < backend_ladder.size(); ++i)
      json << (i ? ", " : "") << "\"" << backend_ladder[i] << "\": {\"p50\": "
           << format_fixed(stream_readings[i].dash_p50_us, 3)
           << ", \"p95\": "
           << format_fixed(stream_readings[i].dash_p95_us, 3)
           << ", \"p99\": "
           << format_fixed(stream_readings[i].dash_p99_us, 3) << "}";
    json << "},\n  \"stream_r2_fill_ms\": "
         << format_fixed(stream_r2.fill_ms, 3)
         << ",\n  \"stream_r2_refit_absorb_ms\": "
         << format_fixed(stream_r2.refit_absorb_ms, 3);
    json << ",\n  \"stream_bit_identical\": "
         << (stream_identical ? "true" : "false");
    // An infinite percentile (more failures than the percentile's share)
    // is written as null.
    const auto json_ms = [](double v) {
      return std::isinf(v) ? std::string("null") : format_fixed(v, 4);
    };
    json << ",\n  \"degraded_peer\": {";
    for (std::size_t s = 0; s < degraded_scenarios().size(); ++s) {
      json << (s ? ",\n    " : "\n    ") << "\""
           << degraded_scenarios()[s].name << "\": {";
      for (const bool hedged : {false, true}) {
        const DegradedReading& r =
            (hedged ? degraded_hedged : degraded_off)[s];
        json << (hedged ? ", \"hedged\": " : "\"off\": ")
             << "{\"p50_ms\": " << json_ms(r.p50_ms)
             << ", \"p90_ms\": " << json_ms(r.p90_ms)
             << ", \"p99_ms\": " << json_ms(r.p99_ms)
             << ", \"goodput_rps\": " << format_fixed(r.goodput_rps, 3)
             << ", \"failed_fraction\": "
             << format_fixed(r.failed_fraction, 4);
        for (const auto& [name, counter] : degraded_counters())
          json << ", \"" << name << "\": " << r.stats.*counter;
        json << "}";
      }
      json << "}";
    }
    json << "},\n  \"degraded_peer_bit_identical\": "
         << (degraded_identical ? "true" : "false");
    json << ",\n  \"concurrent_callers\": {\"callers\": " << kCallers
         << ", \"requests\": " << kCallers * kCallerRequests;
    for (std::size_t i = 0; i < callers_ladder.size(); ++i)
      json << ", \"t" << callers_ladder[i] << "\": {\"rps\": "
           << format_fixed(callers_readings[i].rps, 3)
           << ", \"peak_threads\": " << callers_readings[i].peak_threads
           << "}";
    json << "},\n  \"concurrent_callers_bit_identical\": "
         << (callers_identical ? "true" : "false");
    json << ",\n  \"annotate_bit_identical\": "
         << (annotate_identical ? "true" : "false")
         << ",\n  \"metric_battery_fast_ms\": "
         << format_fixed(battery.fast_ms, 3)
         << ",\n  \"metric_battery_reference_ms\": "
         << format_fixed(battery.reference_ms, 3)
         << ",\n  \"metric_battery_speedup\": "
         << format_fixed(battery.reference_ms / battery.fast_ms, 3)
         << ",\n  \"metric_battery_bit_identical\": "
         << (battery.bit_identical ? "true" : "false") << "\n}\n";
    std::cout << "\nWrote BENCH_parallel.json\n";
  });
}
