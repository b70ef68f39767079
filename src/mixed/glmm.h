// Logistic generalized linear mixed model with two crossed random
// intercepts, fit by the Laplace approximation — the estimator behind the
// paper's Table I (glmer with family=binomial in R).
//
// Inner loop: penalized iteratively reweighted least squares (PIRLS) finds
// the conditional modes of the spherical random effects u for fixed
// (β, θ). Outer loop: Nelder–Mead minimizes the Laplace deviance
//   −2ℓ ≈ deviance_residual(β, u) + ‖u‖² + log|ΛᵀZᵀWZΛ + I|
// jointly over β and θ = (σ_user, σ_question). Wald standard errors come
// from the numerically differentiated Hessian of the deviance in β.
#pragma once

#include <vector>

#include "mixed/model_data.h"
#include "mixed/multi_start.h"

namespace decompeval::mixed {

struct GlmmFit {
  std::vector<Coefficient> coefficients;
  double sigma_user = 0.0;
  double sigma_question = 0.0;
  double deviance = 0.0;  ///< Laplace −2 log-likelihood at the optimum
  double aic = 0.0;
  double bic = 0.0;
  double r2_marginal = 0.0;     ///< Nakagawa R²m with logit-link residual π²/3
  double r2_conditional = 0.0;  ///< Nakagawa R²c
  std::vector<double> random_user;
  std::vector<double> random_question;
  std::size_t n_observations = 0;
  bool converged = false;
  /// Multi-start diagnostics (n_starts, winning start, per-start deviance).
  MultiStartReport multi_start;
  /// PIRLS (penalized least-squares) steps summed over every Nelder–Mead
  /// evaluation of the multi-start search.
  std::size_t pirls_iterations = 0;
};

/// Fits the logistic GLMM. `data.y` must contain only 0.0 and 1.0.
/// The default options run a deterministic 8-start Nelder–Mead search whose
/// deviance is never worse than the legacy single start
/// (options.n_starts = 1); the result is identical at every thread count.
GlmmFit fit_logistic_glmm(const MixedModelData& data,
                          const FitOptions& options = {});

/// fit_logistic_glmm through the retained dense evaluator, which refactors
/// the whole (n_users + n_questions)² PIRLS system with linalg::Cholesky.
/// Bit-identical to fit_logistic_glmm, which factors the same system
/// through linalg::ArrowCholesky (its user×user block is diagonal);
/// `-DDECOMPEVAL_NO_SIMD` forces the reference path.
GlmmFit fit_logistic_glmm_reference(const MixedModelData& data,
                                    const FitOptions& options = {});

/// One evaluation of the Nelder–Mead objective: the Laplace deviance at
/// `params` = [theta_user, theta_question, beta...], with PIRLS started from
/// `modes` (zeros unless it holds n_users + n_questions values) and
/// leaving the conditional modes there.
double laplace_deviance(const MixedModelData& data,
                        const std::vector<double>& params,
                        std::vector<double>& modes);

/// laplace_deviance through the dense reference evaluator; bit-identical.
double laplace_deviance_reference(const MixedModelData& data,
                                  const std::vector<double>& params,
                                  std::vector<double>& modes);

}  // namespace decompeval::mixed
