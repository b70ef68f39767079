// Shared vocabulary of the cluster benchmark: clocks, spans, per-phase
// request accounting, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/json.h"

namespace clusterbench {

using decompeval::service::Json;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s();
/// CPU time consumed by the whole process, in seconds.
double process_cpu_s();
/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();

/// One timed interval at a boundary the benchmark owns. Names:
///   client.call        load-generator send → response parsed
///   front.fast_path    Dispatcher::fast_path() on the front server
///   front.handle       Dispatcher::handler() on a front worker
///   backend.fast_path  ClusterBackend::fast_path() on a backend server
///   backend.handle     ClusterBackend::handler() on a backend worker
/// Spans of one request share `key`, the FNV-1a hash of its canonical
/// request key (for cache_install, of the request being installed); a
/// parent is found afterwards by key and time nesting.
struct Span {
  const char* name = "";
  const char* op = "";  ///< interned request op (see intern_op)
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int where = -1;    ///< backend index, or client index for client spans
  bool hit = false;  ///< fast path answered the request
};

/// In-memory span sink; spans are written out when the run ends.
class Tracer {
 public:
  void record(const Span& span);
  std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Static string for a request op, so spans carry no allocation.
const char* intern_op(std::string_view op);
/// Hash of the canonical key a span is linked by (see Span).
std::uint64_t span_key(const Json& request);
std::uint64_t fnv1a(std::string_view text);

/// Requests sent, answered "ok", and failed in one phase of a run.
struct PhaseCount {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  /// Counts one answered request; returns true when it was "ok".
  bool note(const Json& response);
  void note_transport_failure() {
    ++sent;
    ++failed;
  }
  PhaseCount& operator+=(const PhaseCount& other);
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

}  // namespace clusterbench
