// Method-of-moments starting points for the variance-component search.
//
// The multi-start driver's jittered starts explore blindly around the
// heuristic theta = (1, 1); on real study data the optimum can sit far
// from it (e.g. sigma_user/sigma_e near 0.2 for the timing model), which
// costs the simplex dozens of iterations just to travel there. A
// balanced-ANOVA decomposition of the (fixed-effect-adjusted) response
// gives closed-form moment estimates of both variance components in O(n),
// and those estimates land close enough to the REML/Laplace optimum that
// Nelder-Mead started there converges in fewer evaluations than the
// heuristic start. The fitters pass these to the multi-start search, which
// appends them as candidates n_starts and n_starts + 1 when n_starts > 1.
//
// The decomposition works on the cell-mean table of the crossed
// user x question design (unweighted means, so mild unbalance is fine):
//   MSA = b * sum_i (rbar_i - grand)^2 / (a - 1)
//   MSB = a * sum_j (rbar_j - grand)^2 / (b - 1)
//   MSE = sum_ij (c_ij - rbar_i - rbar_j + grand)^2 / ((a - 1)(b - 1))
// with sigma_u^2 = (MSA - MSE)/b, sigma_q^2 = (MSB - MSE)/a — Searle's
// classic two-way estimators, the same closed forms the oracle test pins
// the REML fitter against on balanced data.
#pragma once

#include <vector>

#include "mixed/model_data.h"

namespace decompeval::mixed {

/// Moment estimates of the theta start coordinates for `data`.
///
/// Returns two candidates, each {theta_user, theta_question}:
///   [0] the raw moment estimate,
///   [1] its geometric midpoint with the heuristic start (sqrt of [0]),
///       hedging against moment estimates degraded by unbalance.
/// For the LMM (`binary_response == false`) thetas are relative factors
/// sigma_component / sigma_residual; for the GLMM they are logit-scale
/// standard deviations obtained by a delta-method rescale of the
/// probability-scale components. All coordinates are clamped to
/// [0.05, 20] so a degenerate decomposition still yields a usable start.
/// Pure function of `data`; never throws on degenerate input.
std::vector<std::vector<double>> moment_theta_starts(
    const MixedModelData& data, bool binary_response);

}  // namespace decompeval::mixed
