#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

namespace clusterbench {

// --- bench.h helpers --------------------------------------------------------

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

const char* intern_op(std::string_view op) {
  static const char* const kOps[] = {
      "run_study",     "run_replication",  "annotate",
      "cache_install", "stream_open",      "stream_absorb",
      "stream_dashboard"};
  for (const char* known : kOps)
    if (op == known) return known;
  return "other";
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t span_key(const Json& request) {
  thread_local std::string key;
  key.clear();
  const Json* installed = request.is_object() ? request.get("request") : nullptr;
  if (installed != nullptr && request.get_string("op", "") == "cache_install")
    decompeval::service::canonical_request_key(*installed, key);
  else
    decompeval::service::canonical_request_key(request, key);
  return fnv1a(key);
}

bool PhaseCount::note(const Json& response) {
  ++sent;
  const bool is_ok = response.get_string("status", "") == "ok";
  if (is_ok)
    ++ok;
  else
    ++failed;
  return is_ok;
}

PhaseCount& PhaseCount::operator+=(const PhaseCount& other) {
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  return *this;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(std::min(rank, values.size() - 1));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- span analysis ----------------------------------------------------------

namespace {

constexpr std::size_t kMaxSpanLines = 200000;

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

bool is_named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

// Front spans of one name, grouped by key and sorted by start.
using KeyIndex = std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

KeyIndex index_by_key(const std::vector<Span>& spans, const char* name) {
  KeyIndex index;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (is_named(spans[i], name)) index[spans[i].key].push_back(i);
  for (auto& [key, list] : index)
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
  return index;
}

// First unclaimed span in `index` with the same key nested inside `outer`.
long nested_in(const std::vector<Span>& spans, const KeyIndex& index,
               const Span& outer, std::vector<char>& claimed) {
  const auto it = index.find(outer.key);
  if (it == index.end()) return -1;
  const auto& list = it->second;
  auto pos = std::lower_bound(
      list.begin(), list.end(), outer.start_ns,
      [&](std::size_t i, std::int64_t t) { return spans[i].start_ns < t; });
  for (; pos != list.end() && spans[*pos].start_ns <= outer.end_ns; ++pos) {
    if (claimed[*pos] || spans[*pos].end_ns > outer.end_ns) continue;
    claimed[*pos] = 1;
    return static_cast<long>(*pos);
  }
  return -1;
}

// Latest span in `index` with the same key that encloses `inner`.
long enclosing(const std::vector<Span>& spans, const KeyIndex& index,
               const Span& inner) {
  const auto it = index.find(inner.key);
  if (it == index.end()) return -1;
  const auto& list = it->second;
  auto pos = std::upper_bound(
      list.begin(), list.end(), inner.start_ns,
      [&](std::int64_t t, std::size_t i) { return t < spans[i].start_ns; });
  for (int walked = 0; pos != list.begin() && walked < 64; ++walked) {
    --pos;
    if (spans[*pos].end_ns >= inner.end_ns) return static_cast<long>(*pos);
  }
  return -1;
}

// One client call split along its blocking path, in µs.
struct Request {
  double total = 0, admit = 0, front_fast_path = 0, dispatcher_self = 0,
         backend_primary = 0, replica_writes = 0, ret = 0, residual = 0;
};

void print_table(std::ostringstream& os, const std::string& title,
                 const std::vector<Request>& requests) {
  static const std::pair<const char*, double Request::*> kRows[] = {
      {"service.admit_wait (incl fast_path)", &Request::admit},
      {"  of which front.fast_path", &Request::front_fast_path},
      {"dispatcher.self", &Request::dispatcher_self},
      {"backend primary (fast_path+handle)", &Request::backend_primary},
      {"replica writes", &Request::replica_writes},
      {"service.return", &Request::ret},
      {"residual", &Request::residual},
      {"client.call", &Request::total}};
  char line[160];
  os << title << " (" << requests.size() << " requests)\n";
  std::snprintf(line, sizeof line, "  %-36s %12s %12s %8s\n", "component",
                "mean_us", "p50_us", "share");
  os << line;
  std::vector<double> totals;
  for (const Request& r : requests) totals.push_back(r.total);
  const double total_mean = mean(totals);
  for (const auto& [name, field] : kRows) {
    std::vector<double> values;
    for (const Request& r : requests) values.push_back(r.*field);
    const double m = mean(values);
    std::snprintf(line, sizeof line, "  %-36s %12.2f %12.2f %7.1f%%\n", name,
                  m, quantile(values, 0.5),
                  total_mean > 0 ? 100.0 * m / total_mean : 0.0);
    os << line;
  }
}

}  // namespace

TraceReport analyze_spans(std::vector<Span> spans, double window_s,
                          int backends, double backend_workers,
                          const std::string& spans_path) {
  TraceReport report;
  const std::size_t n = spans.size();
  std::vector<long> parent(n, -1);
  std::vector<char> claimed(n, 0);
  const KeyIndex front_handles = index_by_key(spans, "front.handle");
  const KeyIndex front_fast = index_by_key(spans, "front.fast_path");

  // Children of each front.handle, in start order.
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::strncmp(spans[i].name, "backend.", 8) != 0) continue;
    parent[i] = enclosing(spans, front_handles, spans[i]);
    if (parent[i] >= 0) children[static_cast<std::size_t>(parent[i])].push_back(i);
  }
  // A child is a replica write when it installs a result or repeats a
  // stream write another backend already took as primary.
  std::vector<char> replica(n, 0);
  std::vector<std::uint64_t> primaries(static_cast<std::size_t>(backends), 0);
  std::vector<double> backend_admit_us, install_us, stream_replica_us;
  for (std::size_t f = 0; f < n; ++f) {
    auto& list = children[f];
    if (list.empty()) continue;
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    backend_admit_us.push_back(us(spans[list.front()].start_ns - spans[f].start_ns));
    int primary = -1;
    for (const std::size_t c : list) {
      const Span& s = spans[c];
      // The fast-path miss a replica write passes first is not counted.
      const bool handled = is_named(s, "backend.handle");
      const bool install = std::strcmp(s.op, "cache_install") == 0;
      const bool stream_replica = primary >= 0 && primary != s.where &&
                                  handled &&
                                  std::strcmp(s.op, "stream_absorb") == 0;
      if (install && !handled) {
        replica[c] = 1;
      } else if (install || stream_replica) {
        replica[c] = 1;
        (install ? install_us : stream_replica_us).push_back(us(s.end_ns - s.start_ns));
      } else if (primary < 0) {
        primary = s.where;
      }
    }
    if (primary >= 0 && primary < backends)
      ++primaries[static_cast<std::size_t>(primary)];
  }

  // Client requests and their blocking-path components.
  std::map<std::string, std::vector<Request>> by_op;
  std::vector<double> admit_us, return_us, self_us;
  std::uint64_t clients = 0, unlinked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& c = spans[i];
    if (!is_named(c, "client.call")) continue;
    ++clients;
    const long fp = nested_in(spans, front_fast, c, claimed);
    const long f = nested_in(spans, front_handles, c, claimed);
    if (fp >= 0) parent[static_cast<std::size_t>(fp)] = static_cast<long>(i);
    Request r;
    r.total = us(c.end_ns - c.start_ns);
    if (f < 0) {
      ++unlinked;
      r.residual = r.total;
      by_op[c.op].push_back(r);
      continue;
    }
    const Span& front = spans[static_cast<std::size_t>(f)];
    parent[static_cast<std::size_t>(f)] = static_cast<long>(i);
    for (const std::size_t child : children[static_cast<std::size_t>(f)])
      (replica[child] ? r.replica_writes : r.backend_primary) +=
          us(spans[child].end_ns - spans[child].start_ns);
    if (fp >= 0) {
      const Span& fast = spans[static_cast<std::size_t>(fp)];
      r.front_fast_path = us(fast.end_ns - fast.start_ns);
    }
    r.admit = us(front.start_ns - c.start_ns);
    r.dispatcher_self =
        us(front.end_ns - front.start_ns) - r.backend_primary - r.replica_writes;
    r.ret = us(c.end_ns - front.end_ns);
    r.residual = r.total - r.admit - us(front.end_ns - front.start_ns) - r.ret;
    admit_us.push_back(r.admit);
    return_us.push_back(r.ret);
    self_us.push_back(r.dispatcher_self);
    by_op[c.op].push_back(r);
  }

  // Backend busy time and fast-path hits.
  double handle_busy_us = 0.0;
  std::uint64_t fast_paths = 0, line_hits = 0;
  std::vector<double> all_primary_handle_us;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (is_named(s, "backend.fast_path")) {
      ++fast_paths;
      line_hits += s.hit ? 1 : 0;
    } else if (is_named(s, "backend.handle")) {
      const double d = us(s.end_ns - s.start_ns);
      handle_busy_us += d;
      if (!replica[i]) {
        report.handle_us_by_op[s.op].push_back(d);
        all_primary_handle_us.push_back(d);
      }
    }
  }

  auto& m = report.metrics;
  m["service.admit_wait_us"] = quantile(admit_us, 0.5);
  m["service.return_us"] = quantile(return_us, 0.5);
  m["dispatcher.self_us"] = quantile(self_us, 0.5);
  m["backend.admit_wait_us"] = quantile(backend_admit_us, 0.5);
  m["backend.handle_us"] = quantile(all_primary_handle_us, 0.5);
  m["backend.busy_frac"] =
      window_s > 0 && backend_workers > 0
          ? handle_busy_us / (window_s * 1e6 * backend_workers)
          : 0.0;
  m["backend.line_hits"] = static_cast<double>(line_hits);
  m["backend.line_hit_ratio"] =
      fast_paths > 0 ? static_cast<double>(line_hits) / fast_paths : 0.0;
  std::vector<double> writes = install_us;
  writes.insert(writes.end(), stream_replica_us.begin(), stream_replica_us.end());
  m["dispatcher.install_us"] = quantile(writes, 0.5);
  m["dispatcher.stream_replica_us"] = quantile(stream_replica_us, 0.5);
  const double primary_total = static_cast<double>(
      std::accumulate(primaries.begin(), primaries.end(), std::uint64_t{0}));
  m["dispatcher.primary_skew"] =
      primary_total > 0
          ? static_cast<double>(*std::max_element(primaries.begin(), primaries.end())) /
                (primary_total / backends)
          : 0.0;
  m["trace.unlinked_frac"] =
      clients > 0 ? static_cast<double>(unlinked) / clients : 0.0;

  std::ostringstream os;
  os << "blocking path: client.call = service.admit_wait + front.handle"
        " + service.return;\n  front.handle = dispatcher.self + backend"
        " primary + replica writes; residual = client time no linked span"
        " covers\n  (" << unlinked << " of " << clients
     << " client calls unlinked)\n";
  for (const auto& [op, requests] : by_op) {
    print_table(os, "op " + op + ", all", requests);
    // The band around the median: what latency_p50_us is made of.
    std::vector<double> totals;
    for (const Request& r : requests) totals.push_back(r.total);
    const double lo = quantile(totals, 0.4), hi = quantile(totals, 0.6);
    std::vector<Request> band;
    for (const Request& r : requests)
      if (r.total >= lo && r.total <= hi) band.push_back(r);
    print_table(os, "op " + op + ", p40-p60 band", band);
  }
  report.breakdown = os.str();

  // Span file: ids are positions in `spans`; self time is the duration
  // minus the linked children's durations.
  std::vector<double> child_us(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (parent[i] >= 0)
      child_us[static_cast<std::size_t>(parent[i])] +=
          us(spans[i].end_ns - spans[i].start_ns);
  std::int64_t origin = n > 0 ? spans[0].start_ns : 0;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::ofstream out(spans_path);
  char line[320];
  for (std::size_t i = 0; i < n && i < kMaxSpanLines; ++i) {
    const Span& s = spans[i];
    const double dur = us(s.end_ns - s.start_ns);
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%ld,\"name\":\"%s\",\"op\":\"%s\","
                  "\"where\":%d,\"hit\":%s,\"key\":\"%016llx\","
                  "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                  i, parent[i], s.name, s.op, s.where, s.hit ? "true" : "false",
                  static_cast<unsigned long long>(s.key),
                  us(s.start_ns - origin), us(s.end_ns - origin),
                  dur - child_us[i]);
    out << line;
  }
  return report;
}

}  // namespace clusterbench
