// Span linking and the blocking-path breakdown of a traced window.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace clusterbench {

struct TraceReport {
  /// Per-layer metrics derived from spans (see analyze_spans).
  std::map<std::string, double> metrics;
  /// Backend span durations by op, in µs (replica writes excluded).
  std::map<std::string, std::vector<double>> handle_us_by_op;
  /// Human-readable self-time breakdown along the blocking path.
  std::string breakdown;
};

/// Links every span to its parent (client.call ← front.* by key and time
/// nesting, front.handle ← backend.* likewise), computes self times, and
/// writes one JSON line per span to `spans_path` (capped). `window_s` is
/// the traced window's length and `backend_workers` the worker threads
/// of all `backends` together, for busy fractions.
TraceReport analyze_spans(std::vector<Span> spans, double window_s,
                          int backends, double backend_workers,
                          const std::string& spans_path);

}  // namespace clusterbench
