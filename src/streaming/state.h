// Incremental study state: absorbs one arrival at a time into
// per-treatment sufficient statistics and a sliding window.
//
// Two tiers with different accumulation disciplines:
//
//  * Lifetime totals are add-only sufficient statistics (integer counts
//    plus double sums that are never subtracted), so they are exact and
//    bit-identical no matter how absorption is batched.
//  * The window is the actual bounded deque of arrivals (count- and/or
//    age-bounded on the virtual clock). Windowed summaries and refits
//    recompute from the deque, which is what makes "a windowed fit
//    equals a from-scratch batch fit on the same window's tuples" an
//    exact identity rather than a tolerance: there is no drifting
//    incremental sum to reconcile — the window IS the tuple set.
//    Integer window counters are still maintained incrementally
//    (add-on-absorb / subtract-on-evict is exact for integers) so
//    stream_stats stays O(1).
//
// snapshot() serializes the whole state (window records included,
// bit-exact via Arrival::serialize); digest() hashes it. A backend
// restart rebuilds the state by replaying the journaled stream writes,
// not from a snapshot.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "streaming/arrival.h"

namespace decompeval::streaming {

struct WindowOptions {
  /// Maximum arrivals retained (0 = unbounded by count).
  std::size_t max_events = 4096;
  /// Maximum age relative to the newest absorbed arrival, on the virtual
  /// clock (0 = unbounded by age).
  std::uint64_t max_age_us = 0;
};

/// Integer sufficient statistics for one treatment arm. Used both for
/// lifetime totals (with the double sums below) and for the O(1) window
/// counters (integers only — exact under eviction subtraction).
struct TreatmentCounts {
  std::uint64_t arrivals = 0;
  std::uint64_t answered = 0;
  std::uint64_t gradeable = 0;
  std::uint64_t correct = 0;
  std::uint64_t opinions = 0;
  std::uint64_t likert_name[5] = {0, 0, 0, 0, 0};  ///< ratings 1..5
  std::uint64_t likert_type[5] = {0, 0, 0, 0, 0};

  void add(const Arrival& a);
  void remove(const Arrival& a);
};

/// Lifetime-only double sums (add-only, never evicted).
struct TreatmentSums {
  double sum_seconds = 0.0;
  double sum_sq_seconds = 0.0;
};

class StreamState {
 public:
  explicit StreamState(WindowOptions options);

  /// Absorbs one arrival: lifetime totals, window counters, then
  /// eviction of everything the new arrival ages or crowds out.
  /// Arrivals must be absorbed in seq order.
  void absorb(const Arrival& a);

  const std::deque<Arrival>& window() const { return window_; }
  const WindowOptions& options() const { return window_options_; }

  const TreatmentCounts& window_counts(study::Treatment t) const;
  const TreatmentCounts& lifetime_counts(study::Treatment t) const;
  const TreatmentSums& lifetime_sums(study::Treatment t) const;

  std::uint64_t absorbed() const { return absorbed_; }
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t newest_virtual_us() const { return newest_virtual_us_; }

  /// FNV-1a digest over the full serialized state — the bit-identity
  /// probe the determinism tests (and the bench ladder) compare across
  /// thread counts, replays, and restarts.
  std::string digest() const;

  /// Full state as a multi-line text blob (what digest() hashes).
  std::string snapshot() const;

 private:
  void evict_front();

  WindowOptions window_options_;
  std::deque<Arrival> window_;
  TreatmentCounts window_counts_[2];    ///< [kHexRays, kDirty]
  TreatmentCounts lifetime_counts_[2];
  TreatmentSums lifetime_sums_[2];
  std::uint64_t absorbed_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t newest_virtual_us_ = 0;
};

}  // namespace decompeval::streaming
