// Deterministic multi-start driver for the Nelder–Mead outer optimization
// of both mixed-model fitters.
//
// The Laplace / REML criteria are not convex in the variance-component
// parameters, and a simplex started at the single heuristic point can land
// in a shallow local optimum — which would silently change the paper's
// Table I/II coefficients. The driver therefore launches K independent
// simplex searches: start 0 is exactly the legacy heuristic start (so the
// multi-start winner can never be worse than the single-start fit), starts
// 1..K−1 jitter around it with a Latin-hypercube spread over the
// variance-component scale plus small Gaussian noise on the fixed effects,
// and the fitters' two method-of-moments candidates follow as starts K and
// K+1.
//
// The start set is decided here and nowhere else: every start vector is a
// pure function of (data-derived x0 and moment candidates, n_starts,
// start index) — the jitter constants below are fixed — so a fit is a pure
// function of its data and n_starts. Starts are fitted as an
// order-preserving parallel_map batch, and the winner is chosen by
// (criterion value, start index) in index order on the calling thread —
// so the fit is bit-identical at every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mixed/nelder_mead.h"
#include "util/fault.h"

namespace decompeval::mixed {

/// Base seed of the start-jitter streams: jittered start k draws from
/// Rng(kStartSeed).split(k); independent of every simulation seed.
inline constexpr std::uint64_t kStartSeed = 0x5EEDBED5ULL;
/// Multiplicative Latin-hypercube envelope for the variance-component
/// coordinates: jittered start k scales each theta by a stratified factor
/// in [kThetaScaleMin, kThetaScaleMax] (log-uniform strata).
inline constexpr double kThetaScaleMin = 0.15;
inline constexpr double kThetaScaleMax = 4.0;
/// SD of the additive Gaussian jitter on the non-theta (fixed-effect)
/// coordinates.
inline constexpr double kBetaJitterSd = 0.25;

/// Knobs shared by fit_logistic_glmm and fit_lmm. None of them changes the
/// start set beyond its size: a fit is a pure function of its data and
/// n_starts.
struct FitOptions {
  /// Jittered Nelder–Mead starts including the heuristic start 0; above 1
  /// the two method-of-moments candidates follow them. 1 reproduces the
  /// legacy single-start fit exactly.
  int n_starts = 8;
  /// Worker threads for the start fan-out; 0 = hardware concurrency. The
  /// result does not depend on this value.
  std::size_t threads = 0;
  /// Optional chaos injection: fault site "mixed.start" is evaluated once
  /// per start index. A firing start is quarantined, not fatal.
  const util::FaultInjector* faults = nullptr;
  /// Cooperative cancellation, checked at fit entry and once per
  /// Nelder-Mead iteration. An expired deadline aborts with
  /// DeadlineExceeded before any model state is produced.
  util::Deadline deadline;
};

/// Per-fit diagnostics of the multi-start search.
struct MultiStartReport {
  std::size_t n_starts = 1;
  std::size_t best_start = 0;        ///< index of the winning start
  std::vector<double> start_values;  ///< final criterion per start
  /// Nelder-Mead evaluation count per start (0 for quarantined starts).
  std::vector<int> start_evaluations;
  /// Starts removed from the search: a start is quarantined when its
  /// simplex throws NumericalError, an injected FaultError fires, or the
  /// final criterion is non-finite. The search then falls through to the
  /// next candidate; only when every start is quarantined does the fit
  /// fail (with NumericalError). Parallel arrays, ascending start index.
  std::vector<std::size_t> quarantined;
  std::vector<std::string> quarantine_notes;
};

struct MultiStartOutcome {
  NelderMeadResult best;
  MultiStartReport report;
};

/// Deterministic start points: element 0 is `x0` verbatim; the first
/// `n_theta` coordinates of elements 1..n_starts−1 get the Latin-hypercube
/// scale treatment, the rest Gaussian jitter. When n_starts > 1 each entry
/// of `moment_thetas` (n_theta coordinates: the fitters pass their two
/// method-of-moments candidates) is appended after the jittered starts,
/// with its beta coordinates copied from x0; at n_starts == 1 they are
/// ignored. Pure function of its arguments.
std::vector<std::vector<double>> multi_start_points(
    const std::vector<double>& x0, std::size_t n_theta, int n_starts,
    const std::vector<std::vector<double>>& moment_thetas);

/// Minimizes from every start of multi_start_points(x0, n_theta,
/// options.n_starts, moment_thetas) concurrently and returns the best
/// result. `objective_factory` must produce an independent objective per
/// call — objectives may keep internal state (e.g. the GLMM PIRLS modes),
/// so concurrent starts must never share one. Winner selection: smallest
/// finite criterion among non-quarantined starts, ties broken by the lower
/// start index. A start that diverges (NumericalError, non-finite
/// criterion) or is hit by an injected fault is quarantined and the search
/// retries with the next candidate; DeadlineExceeded always propagates.
/// Throws NumericalError when every start is quarantined.
MultiStartOutcome multi_start_nelder_mead(
    const std::function<
        std::function<double(const std::vector<double>&)>()>& objective_factory,
    const std::vector<double>& x0, std::size_t n_theta,
    const std::vector<std::vector<double>>& moment_thetas,
    const NelderMeadOptions& nm_options, const FitOptions& options);

}  // namespace decompeval::mixed
