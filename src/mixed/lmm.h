// Linear mixed model with two crossed random intercepts, fit by profiled
// REML — the estimator behind the paper's Table II (lmer in R).
//
// Parameterization follows lme4: relative covariance factors
// θ = (σ_user/σ, σ_question/σ) are optimized by Nelder–Mead over the
// profiled REML criterion; β, u and σ² are profiled out exactly through the
// penalized least-squares system
//   [ΛᵀZᵀZΛ + I   ΛᵀZᵀX] [u]   [ΛᵀZᵀy]
//   [XᵀZΛ          XᵀX ] [β] = [Xᵀy ]
// whose Cholesky factor also yields the log-determinant terms of the
// criterion.
#pragma once

#include <vector>

#include "mixed/model_data.h"
#include "mixed/multi_start.h"

namespace decompeval::mixed {

struct LmmFit {
  std::vector<Coefficient> coefficients;
  double sigma_user = 0.0;      ///< random-intercept SD for users
  double sigma_question = 0.0;  ///< random-intercept SD for questions
  double sigma_residual = 0.0;
  double reml_criterion = 0.0;  ///< −2·(REML log-likelihood)
  double aic = 0.0;
  double bic = 0.0;
  double r2_marginal = 0.0;     ///< Nakagawa R²m (fixed effects only)
  double r2_conditional = 0.0;  ///< Nakagawa R²c (fixed + random)
  std::vector<double> random_user;      ///< BLUPs, length n_users
  std::vector<double> random_question;  ///< BLUPs, length n_questions
  std::size_t n_observations = 0;
  bool converged = false;
  /// Multi-start diagnostics (n_starts, winning start, per-start REML).
  MultiStartReport multi_start;
};

/// Fits the LMM. Requires data.validate() to pass, n > p + 2, and at least
/// two levels in each grouping factor. The default options run a
/// deterministic 8-start Nelder–Mead search over θ whose REML criterion is
/// never worse than the legacy single start (options.n_starts = 1); the
/// result is identical at every thread count.
LmmFit fit_lmm(const MixedModelData& data, const FitOptions& options = {});

/// fit_lmm through the retained dense evaluator, which refactors the whole
/// bordered (n_users + n_questions + p)² system with linalg::Cholesky.
/// Bit-identical to fit_lmm, which factors the same system through
/// linalg::ArrowCholesky (its user×user block is diagonal);
/// `-DDECOMPEVAL_NO_SIMD` forces the reference path.
LmmFit fit_lmm_reference(const MixedModelData& data,
                         const FitOptions& options = {});

/// One evaluation of the Nelder–Mead objective: the profiled REML
/// criterion at relative covariance factors (theta_user, theta_question).
double reml_criterion(const MixedModelData& data, double theta_user,
                      double theta_question);

/// reml_criterion through the dense reference evaluator; bit-identical.
double reml_criterion_reference(const MixedModelData& data,
                                double theta_user, double theta_question);

}  // namespace decompeval::mixed
