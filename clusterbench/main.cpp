// clusterbench: one workload against the in-process cluster, end to end.
//
//   clusterbench --workload NAME --seed N --seconds S --trace 0|1
//                --run-dir DIR
//
// --trace 0: sets the cluster up five times (median = setup_s), then
// drives the last one for S seconds through ServiceClient connections to
// the front socket and prints the end-to-end metrics.
// --trace 1: two windows of S/2 seconds on fresh clusters with identical
// inputs, the first untraced and the second with spans at every boundary
// the benchmark owns; prints the per-layer metrics, writes the span file
// and the blocking-path breakdown under .bench_traces/.
//
// Every run checks each distinct answer byte for byte against a
// standalone oracle and prints sent/ok/failed for set-up, the measured
// window and teardown. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cluster_rig.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace clusterbench {
namespace {

namespace service = decompeval::service;
namespace fs = std::filesystem;

constexpr int kSetups = 5;
/// Journal auto-compaction fires past 64 KiB; fewer firings per backend
/// than this in one run means background compaction went unmeasured.
constexpr double kMinCompactions = 3.0;
/// Closed-loop throughput becomes the median of one-second rates when at
/// least this many answers arrive per second.
constexpr double kMinRatePerBucket = 50.0;
/// Where a traced run writes its span file and breakdown.
constexpr const char* kTraceDir = ".bench_traces";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string run_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") { args.seed = std::stoull(value); have_seed = true; }
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--run-dir") args.run_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      args.run_dir.empty())
    throw std::invalid_argument(
        "usage: clusterbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --run-dir DIR");
  return args;
}

std::string host_fingerprint() {
  char hostname[256] = "unknown";
  ::gethostname(hostname, sizeof hostname - 1);
  utsname uts{};
  std::ostringstream os;
  os << hostname;
  if (::uname(&uts) == 0) os << "|" << uts.sysname << " " << uts.release;
  os << "|nproc=" << std::thread::hardware_concurrency()
     << "|build=" << CLUSTERBENCH_BUILD_TYPE;
  return os.str();
}

// --- one measured window ------------------------------------------------------

struct Seen {
  std::string dump;
  std::uint64_t count = 0;
  bool stream_write = false;
};

struct ClientLog {
  PhaseCount phase;
  std::vector<double> latency_us;  ///< probe steps only
  /// Open loop: send lateness past the due time. Closed loop: the
  /// generator's own gap between an answer and the next send.
  std::vector<double> late_us;
  std::unordered_map<std::uint64_t, Seen> seen;  ///< "ok" answers only
  std::uint64_t repeat_mismatches = 0;
  std::string failure_sample;  ///< first non-ok answer, for the report
  std::vector<std::int64_t> ok_done_ns;  ///< completion time of "ok" answers
  std::int64_t last_done_ns = 0;
  double cpu_s = 0.0;
  std::vector<Span> spans;
};

struct Window {
  std::vector<ClientLog> logs;
  std::int64_t start_ns = 0;
  std::int64_t last_done_ns = 0;
  double process_cpu_s = 0.0;
};

using Clients = std::vector<std::unique_ptr<service::ServiceClient>>;
/// Result-line metrics in order: name → (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

Clients connect_clients(const Rig& rig, int n) {
  Clients clients;
  for (int c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<service::ServiceClient>());
    clients.back()->connect(rig.front_socket());
  }
  return clients;
}

void run_client(Workload& workload, int c, const Rig& rig,
                std::unique_ptr<service::ServiceClient>& conn,
                std::int64_t start_ns, std::int64_t end_ns, bool traced,
                ClientLog& log) {
  const double cpu0 = thread_cpu_s();
  std::int64_t previous_done = start_ns;
  Step step;
  while (workload.next(c, step)) {
    std::int64_t due = 0;
    std::uint64_t key = traced ? span_key(*step.request) : 0;
    if (workload.open_loop()) {
      due = start_ns + step.due_ns;
      if (due >= end_ns) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    } else if (now_ns() >= end_ns) {
      break;
    }
    const std::int64_t t0 = now_ns();
    log.late_us.push_back(
        static_cast<double>(t0 - (workload.open_loop() ? due : previous_done)) /
        1e3);
    Json response;
    bool delivered = true;
    try {
      response = conn->call(*step.request);
    } catch (const std::exception&) {
      delivered = false;
    }
    const std::int64_t t1 = now_ns();
    previous_done = t1;
    log.last_done_ns = t1;
    if (traced) {
      Span span;
      span.name = "client.call";
      span.op = intern_op(step.request->get_string("op", ""));
      span.key = key;
      span.start_ns = t0;
      span.end_ns = t1;
      span.where = c;
      log.spans.push_back(span);
    }
    if (step.probe)
      log.latency_us.push_back(
          static_cast<double>(t1 - (workload.open_loop() ? due : t0)) / 1e3);
    if (!delivered) {
      // The connection may hold half a reply: replace it.
      log.phase.note_transport_failure();
      try {
        conn = std::make_unique<service::ServiceClient>();
        conn->connect(rig.front_socket());
      } catch (const std::exception&) {
        break;
      }
      continue;
    }
    if (!log.phase.note(response)) {
      if (log.failure_sample.empty())
        log.failure_sample = response.dump().substr(0, 400);
      continue;
    }
    log.ok_done_ns.push_back(t1);
    std::string dump = response.dump();
    auto [it, inserted] = log.seen.try_emplace(step.id);
    ++it->second.count;
    if (inserted) {
      it->second.dump = std::move(dump);
      it->second.stream_write =
          step.request->get_string("op", "") == "stream_absorb";
    } else if (it->second.dump != dump) {
      ++log.repeat_mismatches;
    }
  }
  log.cpu_s = thread_cpu_s() - cpu0;
}

Window run_window(Workload& workload, const Rig& rig, Clients& clients,
                  double seconds, bool traced) {
  Window w;
  w.logs.resize(clients.size());
  w.start_ns = now_ns() + 1000000;  // one common start, 1 ms out
  const std::int64_t end_ns =
      w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c)
    threads.emplace_back([&, c] {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(w.start_ns)));
      run_client(workload, static_cast<int>(c), rig, clients[c], w.start_ns,
                 end_ns, traced, w.logs[c]);
    });
  for (auto& t : threads) t.join();
  w.process_cpu_s = process_cpu_s() - cpu0;
  for (const ClientLog& log : w.logs)
    w.last_done_ns = std::max(w.last_done_ns, log.last_done_ns);
  return w;
}

// --- correctness oracle --------------------------------------------------------

struct OracleResult {
  std::uint64_t distinct = 0;
  std::uint64_t stream_writes = 0;        ///< distinct stream_absorb answers
  std::uint64_t mismatched = 0;           ///< distinct answers that differ
  std::uint64_t failed_occurrences = 0;   ///< answers counted as failed
  std::vector<Answered> answered;
};

OracleResult check_answers(Workload& workload, const Window& w) {
  OracleResult result;
  std::map<std::uint64_t, Seen> merged;
  std::set<std::uint64_t> bad;
  for (const ClientLog& log : w.logs) {
    result.failed_occurrences += log.repeat_mismatches;
    for (const auto& [id, seen] : log.seen) {
      auto [it, inserted] = merged.try_emplace(id, seen);
      if (inserted) continue;
      it->second.count += seen.count;
      if (it->second.dump != seen.dump) bad.insert(id);
    }
  }
  std::vector<std::uint64_t> ids;
  for (const auto& [id, seen] : merged) {
    ids.push_back(id);
    result.stream_writes += seen.stream_write ? 1 : 0;
  }
  result.distinct = ids.size();
  auto answers = workload.oracle(ids);
  for (const auto& [id, seen] : merged) {
    auto it = answers.find(id);
    if (it == answers.end() || it->second.response != seen.dump) bad.insert(id);
    if (it != answers.end()) result.answered.push_back(std::move(it->second));
  }
  for (const std::uint64_t id : bad)
    result.failed_occurrences += merged[id].count;
  result.mismatched = bad.size();
  return result;
}

// --- metrics ---------------------------------------------------------------------

struct WindowStats {
  PhaseCount measured;
  std::uint64_t failed = 0;  ///< transport + non-ok + oracle mismatches
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  std::uint64_t probes = 0;
  double late_p99_us = 0.0;
  double loadgen_cpu_frac = 0.0;
  double seconds = 0.0;
  std::uint64_t arrivals = 0;
  std::map<double, double> quantiles;  ///< probe latency by quantile, µs
  std::vector<double> per_second;  ///< answers per whole second (closed loop)
};

WindowStats summarize(const Workload& workload, const Window& w,
                      const OracleResult& oracle) {
  WindowStats s;
  std::vector<double> latency, late;
  double generator_cpu = 0.0;
  for (const ClientLog& log : w.logs) {
    s.measured += log.phase;
    latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
    late.insert(late.end(), log.late_us.begin(), log.late_us.end());
    generator_cpu += log.cpu_s;
  }
  s.failed = s.measured.failed + oracle.failed_occurrences;
  s.seconds = static_cast<double>(w.last_done_ns - w.start_ns) / 1e9;
  const std::uint64_t good =
      s.measured.ok > oracle.failed_occurrences
          ? s.measured.ok - oracle.failed_occurrences
          : 0;
  s.throughput_rps = s.seconds > 0 ? static_cast<double>(good) / s.seconds : 0.0;
  // A closed loop with many answers per second reports the median of its
  // one-second rates instead, which neither a short host stall nor the
  // refit burst at the start of a stream_ingest window moves. Wrong answers
  // are spread evenly.
  const auto whole_seconds = static_cast<std::size_t>(s.seconds);
  if (!workload.open_loop() && whole_seconds >= 5 &&
      s.throughput_rps >= kMinRatePerBucket) {
    std::vector<double> buckets(whole_seconds, 0.0);
    for (const ClientLog& log : w.logs)
      for (const std::int64_t t : log.ok_done_ns) {
        const auto b = static_cast<std::size_t>((t - w.start_ns) / 1000000000);
        if (b < whole_seconds) buckets[b] += 1.0;
      }
    const double correct_share =
        s.measured.ok > 0 ? static_cast<double>(good) / s.measured.ok : 0.0;
    s.per_second = buckets;
    s.throughput_rps = quantile(std::move(buckets), 0.5) * correct_share;
  }
  s.p50_us = quantile(latency, 0.5);
  s.tail_us = quantile(latency, workload.tail_quantile());
  s.probes = latency.size();
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999})
    s.quantiles[q] = quantile(latency, q);
  s.late_p99_us = quantile(late, 0.99);
  s.loadgen_cpu_frac =
      w.process_cpu_s > 0 ? generator_cpu / w.process_cpu_s : 0.0;
  // Arrivals absorbed in the window: each stream's highest answered
  // absorb target past the window set-up filled.
  std::map<std::string, double> upto;
  for (const Answered& a : oracle.answered)
    if (a.request.get_string("op", "") == "stream_absorb") {
      double& u = upto[a.request.get_string("stream", "")];
      u = std::max(u, a.request.get_number("upto", 0.0) - kStreamFill);
    }
  for (const auto& [stream, u] : upto) s.arrivals += static_cast<std::uint64_t>(u);
  return s;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double backend_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& field) {
  return backend_sum(after, field) - backend_sum(before, field);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Counter-derived per-layer metrics for one window.
std::map<std::string, double> counter_metrics(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after, const OracleResult& oracle) {
  std::map<std::string, double> m;
  const auto d = [&](const std::string& f) { return backend_delta(before, after, f); };
  m["dispatcher.forwarded"] = delta(before, after, "front.forwarded");
  m["dispatcher.failovers"] = delta(before, after, "front.failovers");
  m["dispatcher.exhausted"] = delta(before, after, "front.exhausted");
  m["dispatcher.installs"] = delta(before, after, "front.replicated");
  // New results are the ones computed in the window: a primary's disk
  // cache misses exactly when it has never held the answer (replica
  // installs store without a lookup), plus every stream write.
  m["dispatcher.new_results"] =
      d("cache_stats.disk_misses") + static_cast<double>(oracle.stream_writes);
  m["dispatcher.installs_per_new_result"] =
      ratio(m["dispatcher.installs"], m["dispatcher.new_results"]);
  m["service.overloaded"] =
      delta(before, after, "front.overloaded_rejected") +
      delta(before, after, "front.shed_batch") +
      d("server_stats.overloaded_rejected") + d("server_stats.shed_batch");
  m["service.core_result_hits"] = d("cache_stats.cache_hits");
  const double memory_hits = d("cache_stats.disk_memory_hits");
  const double disk_hits = d("cache_stats.disk_hits");
  const double misses = d("cache_stats.disk_misses");
  m["disk_cache.memory_hits"] = memory_hits;
  m["disk_cache.disk_hits"] = disk_hits;
  m["disk_cache.misses"] = misses;
  m["disk_cache.hit_ratio"] = ratio(memory_hits + disk_hits,
                                    memory_hits + disk_hits + misses);
  m["disk_cache.stores"] = d("cache_stats.disk_stores");
  m["disk_cache.bytes"] = backend_sum(after, "cache_stats.disk_bytes");
  m["journal.appends"] = d("journal_stats.appends");
  m["journal.fsyncs"] = d("journal_stats.fsyncs");
  m["journal.compactions"] = d("journal_stats.compactions");
  m["journal.bytes"] = backend_sum(after, "journal_stats.bytes");
  const double slice_hits = d("cache_stats.annotate_cache_hits");
  m["annotate_engine.slice_hit_ratio"] =
      ratio(slice_hits, slice_hits + d("cache_stats.annotate_cache_misses"));
  return m;
}

void print_phase(const char* name, const PhaseCount& p) {
  std::cout << "phase " << name << ": sent=" << p.sent << " ok=" << p.ok
            << " failed=" << p.failed << "\n";
}

// Background work: journal compactions, fsyncs and disk-cache bytes per
// backend, with a flag when auto-compaction barely fired.
void print_background(const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after) {
  for (int i = 0; i < Rig::kBackends; ++i) {
    const std::string b = "b" + std::to_string(i);
    const double compactions =
        delta(before, after, b + ".journal_stats.compactions");
    std::cout << "background backend-" << i << ": journal_compactions="
              << compactions << " journal_fsyncs="
              << delta(before, after, b + ".journal_stats.fsyncs")
              << " journal_bytes=" << after.at(b + ".journal_stats.bytes")
              << " disk_cache_bytes=" << after.at(b + ".cache_stats.disk_bytes")
              << "\n";
    if (compactions < kMinCompactions)
      std::cout << "FLAG background backend-" << i
                << ": journal auto-compaction fired " << compactions
                << " times (< " << kMinCompactions << ")\n";
  }
}

std::string unit_of(const std::string& name) {
  if (name.ends_with("_us") || name.ends_with("_us_per_arrival") ||
      name.find("_us.") != std::string::npos)
    return "us";
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with(".bytes")) return "bytes";
  if (name.ends_with("_frac") || name.ends_with("_ratio") ||
      name.ends_with("_skew") || name.ends_with("per_new_result"))
    return "ratio";
  return "count";
}

/// Per-layer metrics reported in the result line of a traced run; every
/// other per-layer number is printed above it and in the breakdown file.
const std::vector<std::string>& reported_layers() {
  static const std::vector<std::string> kNames = {
      "service.admit_wait_us",
      "service.return_us",
      "dispatcher.self_us",
      "dispatcher.forwarded",
      "dispatcher.installs",
      "dispatcher.installs_per_new_result",
      "dispatcher.install_us",
      "dispatcher.primary_skew",
      "backend.admit_wait_us",
      "backend.handle_us",
      "backend.busy_frac",
      "journal.appends",
      "journal.fsyncs",
      "journal.append_us",
      "disk_cache.store_us",
      "disk_cache.load_us",
      "annotate_engine.annotate_us",
      "annotate_engine.replay_slice_hit_ratio",
      "lang.parse_us",
      "lang.lint_us",
      "study.run_study_us",
      "mixed.glmm_ms",
      "mixed.lmm_ms",
      "metrics.battery_ms",
      "embed.train_ms",
      "streaming.absorb_us_per_arrival",
      "streaming.refit_ms",
      "streaming.dashboard_us",
      "loadgen.late_p99_us",
      "loadgen.cpu_frac",
      "trace.overhead_frac"};
  return kNames;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << metrics[i].second.first << ", \"unit\": \""
       << metrics[i].second.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- the two run modes -------------------------------------------------------------

struct Phases {
  PhaseCount setup, measured, teardown;
};

/// Builds a cluster, connects the clients and pre-warms; returns seconds.
double set_up(Workload& workload, const std::string& dir, Tracer* tracer,
              std::unique_ptr<Rig>& rig, Clients& clients, PhaseCount& phase) {
  const std::int64_t t0 = now_ns();
  rig = std::make_unique<Rig>(dir, tracer);
  clients = connect_clients(*rig, workload.clients());
  std::vector<std::string> sockets;
  for (int i = 0; i < Rig::kBackends; ++i) sockets.push_back(rig->backend_socket(i));
  workload.restart();
  workload.prewarm(clients, sockets, phase);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void tear_down(std::unique_ptr<Rig>& rig, Clients& clients,
               const std::string& dir) {
  clients.clear();
  rig.reset();
  fs::remove_all(dir);
  // Hand the torn-down cluster's heap back, so peak_rss_mb measures one
  // cluster's life rather than the residue of the repeated set-ups.
  ::malloc_trim(0);
}

void print_window(const Workload& workload, const Window& w,
                  const WindowStats& s, const OracleResult& oracle) {
  for (const ClientLog& log : w.logs)
    if (!log.failure_sample.empty())
      std::cout << "failure sample: " << log.failure_sample << "\n";
  std::cout << "window: seconds=" << s.seconds << " probes=" << s.probes
            << " tail=p" << workload.tail_quantile() * 100
            << " failed_frac=" << ratio(static_cast<double>(s.failed),
                                        static_cast<double>(s.measured.sent))
            << "\n";
  std::cout << "latency percentiles (us):";
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999})
    std::cout << " p" << q * 100 << "=" << s.quantiles.at(q);
  std::cout << "\n";
  if (!s.per_second.empty()) {
    std::cout << "answers per second:";
    for (const double b : s.per_second) std::cout << " " << b;
    std::cout << "\n";
  }
  std::cout << "oracle: distinct=" << oracle.distinct
            << " mismatched=" << oracle.mismatched
            << " failed_answers=" << oracle.failed_occurrences << "\n";
  if (std::string(workload.name()) == "stream_ingest")
    std::cout << "arrivals_per_s = "
              << ratio(static_cast<double>(s.arrivals), s.seconds) << " 1/s\n";
  if (workload.open_loop() && s.late_p99_us > 0.1 * s.p50_us)
    std::cout << "FLAG loadgen: send lateness p99 " << s.late_p99_us
              << " us is a material share of latency_p50_us " << s.p50_us
              << "\n";
}

int run_untraced(const Args& args, Workload& workload) {
  Phases phases;
  std::unique_ptr<Rig> rig;
  Clients clients;
  std::vector<double> setup_s;
  std::string dir;
  for (int k = 0; k < kSetups; ++k) {
    if (rig) tear_down(rig, clients, dir);
    dir = args.run_dir + "/s" + std::to_string(k);
    setup_s.push_back(set_up(workload, dir, nullptr, rig, clients, phases.setup));
  }
  const auto before = rig->read_counters(phases.setup);
  ::sync();  // set-up's file writes and deletes settle before the window
  const Window window = run_window(workload, *rig, clients, args.seconds, false);
  const double rss = peak_rss_mib();
  const auto after = rig->read_counters(phases.teardown);
  tear_down(rig, clients, dir);

  const OracleResult oracle = check_answers(workload, window);
  const WindowStats s = summarize(workload, window, oracle);
  phases.measured = s.measured;
  phases.measured.failed = s.failed;
  phases.measured.ok = s.measured.sent - s.failed;
  print_phase("setup", phases.setup);
  print_phase("measured", phases.measured);
  print_phase("teardown", phases.teardown);
  print_window(workload, window, s, oracle);
  print_background(before, after);
  const Metrics metrics = {
      {"throughput_rps", {s.throughput_rps, "req/s"}},
      {"latency_p50_us", {s.p50_us, "us"}},
      {"latency_tail_us", {s.tail_us, "us"}},
      {"setup_s", {quantile(setup_s, 0.5), "s"}},
      {"peak_rss_mb", {rss, "MiB"}}};
  std::cout << "setup_s samples:";
  for (const double t : setup_s) std::cout << " " << t;
  std::cout << "\n";
  for (const auto& [name, value] : metrics)
    std::cout << name << " = " << value.first << " " << value.second << "\n";
  const bool correct = s.failed == 0 && phases.setup.failed == 0 &&
                       phases.teardown.failed == 0;
  print_result(correct, s.measured.sent, s.failed, metrics);
  return 0;
}

int run_traced(const Args& args, Workload& workload) {
  const double half = args.seconds / 2.0;
  Phases phases;
  std::unique_ptr<Rig> rig;
  Clients clients;

  // Window A: untraced, for the tracing-overhead baseline.
  std::string dir = args.run_dir + "/untraced";
  set_up(workload, dir, nullptr, rig, clients, phases.setup);
  ::sync();
  const Window plain = run_window(workload, *rig, clients, half, false);
  tear_down(rig, clients, dir);
  const OracleResult plain_oracle = check_answers(workload, plain);
  const WindowStats plain_stats = summarize(workload, plain, plain_oracle);

  // Window B: the same inputs on a fresh cluster, traced.
  Tracer tracer;
  dir = args.run_dir + "/traced";
  set_up(workload, dir, &tracer, rig, clients, phases.setup);
  const auto before = rig->read_counters(phases.setup);
  tracer.take();  // set-up spans are not part of the window
  ::sync();
  const Window traced = run_window(workload, *rig, clients, half, true);
  std::vector<Span> spans = tracer.take();
  const auto after = rig->read_counters(phases.teardown);
  tear_down(rig, clients, dir);
  for (const ClientLog& log : traced.logs)
    spans.insert(spans.end(), log.spans.begin(), log.spans.end());

  const OracleResult oracle = check_answers(workload, traced);
  const WindowStats s = summarize(workload, traced, oracle);
  PhaseCount measured = plain_stats.measured;
  measured += s.measured;
  const std::uint64_t failed = plain_stats.failed + s.failed;
  measured.failed = failed;
  measured.ok = measured.sent - failed;
  print_phase("setup", phases.setup);
  print_phase("measured", measured);
  print_phase("teardown", phases.teardown);
  print_window(workload, traced, s, oracle);
  print_background(before, after);

  fs::create_directories(kTraceDir);
  const std::string stem = std::string(kTraceDir) + "/" + workload.name();
  const TraceReport report =
      analyze_spans(std::move(spans), s.seconds, Rig::kBackends,
                    backend_sum(after, "server_stats.workers"),
                    stem + ".spans.jsonl");
  std::map<std::string, double> layers = report.metrics;
  for (const auto& [k, v] : counter_metrics(before, after, oracle)) layers[k] = v;
  for (const auto& [k, v] :
       replay_layers(args.seed, oracle.answered, args.run_dir + "/replay"))
    layers[k] = v;
  for (const auto& [op, durations] : report.handle_us_by_op)
    layers["backend.handle_us." + op] = quantile(durations, 0.5);
  if (const auto it = report.handle_us_by_op.find("run_replication");
      it != report.handle_us_by_op.end())
    layers["analysis.residual_ms"] =
        quantile(it->second, 0.5) / 1e3 -
        (layers["study.run_study_us"] / 1e3 + layers["mixed.glmm_ms"] +
         layers["mixed.lmm_ms"] + layers["metrics.battery_ms"]);
  // Backend handle time against the replayed compute it contains; what
  // the replays do not cover is reported as the unexplained residual.
  const std::map<std::string, double> replayed = {
      {"annotate", layers["annotate_engine.annotate_us"] +
                       layers["disk_cache.store_us"] +
                       layers["journal.append_us"]},
      {"stream_absorb",
       layers["streaming.absorb_us_per_arrival"] * kStreamBatch +
           layers["journal.append_us"]},
      {"stream_dashboard", layers["streaming.dashboard_us"]}};
  std::ostringstream split;
  for (const auto& [op, durations] : report.handle_us_by_op) {
    const auto it = replayed.find(op);
    if (it == replayed.end()) continue;
    const double handle = quantile(durations, 0.5);
    split << "backend.handle." << op << " p50 " << handle
          << " us = replayed compute " << it->second << " us + unexplained "
          << handle - it->second << " us\n";
  }
  layers["loadgen.late_p99_us"] = s.late_p99_us;
  layers["loadgen.cpu_frac"] = s.loadgen_cpu_frac;
  layers["trace.overhead_frac"] =
      plain_stats.p50_us > 0 ? s.p50_us / plain_stats.p50_us - 1.0 : 0.0;
  layers["trace.latency_p50_us"] = s.p50_us;
  layers["trace.untraced_latency_p50_us"] = plain_stats.p50_us;

  std::ostringstream text;
  text << "host: " << host_fingerprint() << "\nworkload: " << workload.name()
       << " seed=" << args.seed << " window_s=" << s.seconds << "\n"
       << report.breakdown << split.str();
  for (const auto& [name, value] : layers)
    text << "layer " << name << " = " << value << " " << unit_of(name) << "\n";
  std::ofstream(stem + ".breakdown.txt") << text.str();
  std::cout << text.str() << "span file: " << stem << ".spans.jsonl\n";

  Metrics metrics;
  for (const std::string& name : reported_layers())
    metrics.push_back({name, {layers[name], unit_of(name)}});
  const bool correct = failed == 0 && phases.setup.failed == 0 &&
                       phases.teardown.failed == 0;
  print_result(correct, measured.sent, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace clusterbench

int main(int argc, char** argv) {
  using namespace clusterbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  try {
    std::cout << "host: " << host_fingerprint() << "\n";
    std::cout << "workload: " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << "\n";
    auto workload = make_workload(args.workload, args.seed);
    const int rc = args.trace ? run_traced(args, *workload)
                              : run_untraced(args, *workload);
    std::filesystem::remove_all(args.run_dir);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "clusterbench: " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(args.run_dir, ignored);
    return 1;
  }
}
