#include "mixed/multi_start.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace decompeval::mixed {

std::vector<std::vector<double>> multi_start_points(
    const std::vector<double>& x0, std::size_t n_theta, int n_starts,
    const std::vector<std::vector<double>>& moment_thetas) {
  DE_EXPECTS(!x0.empty());
  DE_EXPECTS(n_theta <= x0.size());
  DE_EXPECTS(n_starts >= 1);

  const std::size_t extra = static_cast<std::size_t>(n_starts) - 1;
  std::vector<std::vector<double>> starts;
  starts.reserve(1 + extra + moment_thetas.size());
  starts.push_back(x0);
  if (extra == 0) return starts;

  // One stratum permutation per theta dimension makes the scale factors a
  // Latin hypercube: across the K−1 jittered starts every dimension visits
  // every log-uniform stratum exactly once.
  util::Rng base(kStartSeed);
  std::vector<std::vector<std::size_t>> strata(n_theta);
  for (std::size_t d = 0; d < n_theta; ++d) {
    strata[d].resize(extra);
    std::iota(strata[d].begin(), strata[d].end(), std::size_t{0});
    base.shuffle(strata[d]);
  }

  const double log_lo = std::log(kThetaScaleMin);
  const double log_hi = std::log(kThetaScaleMax);
  for (std::size_t k = 0; k < extra; ++k) {
    // Per-start stream: pure function of (seed, k), so the start list does
    // not depend on how (or whether) other starts are generated.
    util::Rng stream = base.split(k);
    std::vector<double> x = x0;
    for (std::size_t d = 0; d < n_theta; ++d) {
      const double in_stratum = stream.uniform();
      const double frac =
          (static_cast<double>(strata[d][k]) + in_stratum) /
          static_cast<double>(extra);
      const double scale = std::exp(log_lo + frac * (log_hi - log_lo));
      // Heuristic inits use theta = 1; if a caller ever passes 0, fall
      // back to the scale itself rather than pinning the start at 0.
      x[d] = x0[d] != 0.0 ? x0[d] * scale : scale;
    }
    for (std::size_t j = n_theta; j < x.size(); ++j)
      x[j] = x0[j] + kBetaJitterSd * stream.normal();
    starts.push_back(std::move(x));
  }
  for (const std::vector<double>& theta : moment_thetas) {
    DE_EXPECTS_MSG(theta.size() == n_theta,
                   "moment theta start has the wrong dimension");
    std::vector<double> x = x0;
    for (std::size_t d = 0; d < n_theta; ++d) x[d] = theta[d];
    starts.push_back(std::move(x));
  }
  return starts;
}

MultiStartOutcome multi_start_nelder_mead(
    const std::function<
        std::function<double(const std::vector<double>&)>()>& objective_factory,
    const std::vector<double>& x0, std::size_t n_theta,
    const std::vector<std::vector<double>>& moment_thetas,
    const NelderMeadOptions& nm_options, const FitOptions& options) {
  options.deadline.check("multi_start entry");
  const std::vector<std::vector<double>> starts =
      multi_start_points(x0, n_theta, options.n_starts, moment_thetas);

  NelderMeadOptions nm = nm_options;
  nm.deadline = options.deadline;

  // One simplex per start, with per-start failure containment: a start
  // whose objective diverges (NumericalError), whose criterion ends
  // non-finite, or which is hit by the "mixed.start" fault site is
  // quarantined — the value slot holds +inf and the winner search falls
  // through to the next candidate. Only DeadlineExceeded (cooperative
  // cancellation) and logic errors escape the batch; parallel_for rethrows
  // the lowest failing index, so even that path is deterministic.
  struct StartOutcome {
    NelderMeadResult result;
    std::string quarantine_note;  ///< empty = healthy
  };
  // Each start gets a fresh objective instance: stateful objectives (the
  // GLMM's PIRLS modes) stay private to their simplex, which both avoids data
  // races and keeps every start a pure function of its start vector.
  const std::vector<StartOutcome> results = util::parallel_map(
      options.threads, starts,
      [&](const std::vector<double>& start, std::size_t k) {
        StartOutcome out;
        try {
          if (options.faults != nullptr)
            options.faults->raise_if("mixed.start", k);
          const auto objective = objective_factory();
          out.result = nelder_mead(objective, start, nm);
          if (!std::isfinite(out.result.value))
            out.quarantine_note = "non-finite criterion";
        } catch (const util::FaultError& e) {
          out.quarantine_note = e.what();
        } catch (const NumericalError& e) {
          out.quarantine_note = e.what();
        }
        if (!out.quarantine_note.empty()) {
          out.result = NelderMeadResult{};
          out.result.value = std::numeric_limits<double>::infinity();
        }
        return out;
      });

  MultiStartOutcome out;
  out.report.n_starts = results.size();
  out.report.start_values.reserve(results.size());
  out.report.start_evaluations.reserve(results.size());
  std::size_t best = results.size();
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < results.size(); ++k) {
    const StartOutcome& r = results[k];
    out.report.start_values.push_back(r.result.value);
    out.report.start_evaluations.push_back(r.result.evaluations);
    if (!r.quarantine_note.empty()) {
      out.report.quarantined.push_back(k);
      out.report.quarantine_notes.push_back(r.quarantine_note);
      continue;
    }
    if (std::isfinite(r.result.value) && r.result.value < best_value) {
      best = k;
      best_value = r.result.value;
    }
  }
  // Every start diverging to a non-finite criterion means the model data is
  // degenerate (or a fault plan killed the whole search); surface a
  // structured numerical failure instead of returning garbage.
  if (best >= results.size()) {
    std::string detail = "no Nelder-Mead start reached a finite criterion";
    if (!out.report.quarantine_notes.empty())
      detail += " (first quarantine: " + out.report.quarantine_notes.front() +
                ")";
    throw NumericalError(detail);
  }
  out.report.best_start = best;
  out.best = results[best].result;
  return out;
}

}  // namespace decompeval::mixed
