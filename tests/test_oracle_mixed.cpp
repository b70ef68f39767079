// Statistical oracle tests for the mixed-model fitters.
//
// Three independent lines of evidence pin the fitters down on embedded
// fixed datasets:
//
//  1. Closed-form oracles computed inside the test from the same data:
//     on a balanced crossed design the REML variance-component estimates
//     equal the two-way ANOVA method-of-moments estimators (Searle,
//     "Variance Components", ch. 4), and the GLS intercept equals the
//     grand mean. For the GLMM, the Laplace criterion at theta = 0
//     collapses to the pooled logistic GLM, so the fitted deviance can
//     never exceed the GLM deviance computed by an in-test IRLS loop.
//  2. Frozen reference fits (lme4-style summaries: coefficients, RE
//     standard deviations, criterion, AIC/BIC, Nakagawa R2) recorded from
//     a run that was validated against oracle (1). Tolerances are 1e-4
//     absolute — two orders of magnitude above the Nelder-Mead
//     convergence tolerance, so they absorb libm differences across
//     platforms without masking real regressions.
//  3. The multi-start contract: the default 8-start search must be no
//     worse than the legacy single start on every dataset, and its report
//     must be internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "mixed/moment_starts.h"
#include "oracle_mixed_data.h"

namespace {

using namespace decompeval;
using namespace decompeval::oracle_data;

// Two-way crossed random-effects ANOVA decomposition of a balanced design.
struct AnovaOracle {
  double grand = 0.0;
  double sigma_user = 0.0;
  double sigma_question = 0.0;
  double sigma_residual = 0.0;
  double se_grand = 0.0;
};

AnovaOracle balanced_anova(const double* y, std::size_t a, std::size_t b) {
  AnovaOracle o;
  const double n = static_cast<double>(a * b);
  for (std::size_t k = 0; k < a * b; ++k) o.grand += y[k];
  o.grand /= n;
  std::vector<double> row(a, 0.0), col(b, 0.0);
  for (std::size_t i = 0; i < a; ++i)
    for (std::size_t j = 0; j < b; ++j) {
      row[i] += y[i * b + j] / static_cast<double>(b);
      col[j] += y[i * b + j] / static_cast<double>(a);
    }
  double ssa = 0.0, ssb = 0.0, sse = 0.0;
  for (std::size_t i = 0; i < a; ++i)
    ssa += (row[i] - o.grand) * (row[i] - o.grand);
  for (std::size_t j = 0; j < b; ++j)
    ssb += (col[j] - o.grand) * (col[j] - o.grand);
  for (std::size_t i = 0; i < a; ++i)
    for (std::size_t j = 0; j < b; ++j) {
      const double r = y[i * b + j] - row[i] - col[j] + o.grand;
      sse += r * r;
    }
  const double msa = static_cast<double>(b) * ssa / static_cast<double>(a - 1);
  const double msb = static_cast<double>(a) * ssb / static_cast<double>(b - 1);
  const double mse = sse / static_cast<double>((a - 1) * (b - 1));
  o.sigma_user = std::sqrt((msa - mse) / static_cast<double>(b));
  o.sigma_question = std::sqrt((msb - mse) / static_cast<double>(a));
  o.sigma_residual = std::sqrt(mse);
  o.se_grand = std::sqrt((msa + msb - mse) / n);
  return o;
}

// Pooled logistic regression (intercept + one covariate) by IRLS; returns
// the GLM -2 log-likelihood, an upper bound on the Laplace GLMM deviance.
double pooled_glm_deviance(const double* y, const double* x1, std::size_t n) {
  double b0 = 0.0, b1 = 0.0;
  for (int it = 0; it < 60; ++it) {
    double g0 = 0, g1 = 0, h00 = 0, h01 = 0, h11 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const double mu = 1.0 / (1.0 + std::exp(-(b0 + b1 * x1[r])));
      const double w = mu * (1.0 - mu);
      g0 += y[r] - mu;
      g1 += (y[r] - mu) * x1[r];
      h00 += w;
      h01 += w * x1[r];
      h11 += w * x1[r] * x1[r];
    }
    const double det = h00 * h11 - h01 * h01;
    b0 += (h11 * g0 - h01 * g1) / det;
    b1 += (-h01 * g0 + h00 * g1) / det;
  }
  double dev = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double mu = 1.0 / (1.0 + std::exp(-(b0 + b1 * x1[r])));
    dev += -2.0 * (y[r] * std::log(mu) + (1.0 - y[r]) * std::log(1.0 - mu));
  }
  return dev;
}

// The default search is 8 jittered candidates plus the two moment-based
// ANOVA starts (candidates 8 and 9) appended by the fitters.
constexpr std::size_t kDefaultStarts = 10;

void expect_report_consistent(const mixed::MultiStartReport& report,
                              double winning_value) {
  EXPECT_EQ(report.n_starts, kDefaultStarts);
  ASSERT_EQ(report.start_values.size(), kDefaultStarts);
  ASSERT_EQ(report.start_evaluations.size(), kDefaultStarts);
  ASSERT_LT(report.best_start, kDefaultStarts);
  EXPECT_TRUE(report.quarantined.empty());
  const double best = *std::min_element(report.start_values.begin(),
                                        report.start_values.end());
  EXPECT_DOUBLE_EQ(report.start_values[report.best_start], best);
  EXPECT_NEAR(winning_value, best, 1e-9);
}

// ---------------------------------------------------------------------------
// LMM: balanced crossed design vs. the ANOVA closed forms.
// ---------------------------------------------------------------------------

TEST(OracleLmm, MatchesBalancedAnovaClosedForms) {
  const auto data = balanced_lmm_data();
  const AnovaOracle oracle =
      balanced_anova(kLmmY, kLmmUsers, kLmmQuestions);
  const mixed::LmmFit fit = mixed::fit_lmm(data);
  ASSERT_TRUE(fit.converged);
  // GLS intercept on a balanced design is exactly the grand mean.
  EXPECT_NEAR(fit.coefficients[0].estimate, oracle.grand, 1e-7);
  EXPECT_NEAR(fit.coefficients[0].std_error, oracle.se_grand, 1e-4);
  // REML = ANOVA method-of-moments when the estimates are interior.
  EXPECT_NEAR(fit.sigma_user, oracle.sigma_user, 1e-4);
  EXPECT_NEAR(fit.sigma_question, oracle.sigma_question, 1e-4);
  EXPECT_NEAR(fit.sigma_residual, oracle.sigma_residual, 1e-4);
}

TEST(OracleLmm, MatchesFrozenReferenceFit) {
  const mixed::LmmFit fit = mixed::fit_lmm(balanced_lmm_data());
  EXPECT_NEAR(fit.coefficients[0].estimate, 9.6369342, 1e-4);
  EXPECT_NEAR(fit.coefficients[0].std_error, 0.6861493, 1e-4);
  EXPECT_NEAR(fit.sigma_user, 1.7303263, 1e-4);
  EXPECT_NEAR(fit.sigma_question, 1.1059181, 1e-4);
  EXPECT_NEAR(fit.sigma_residual, 1.1210852, 1e-4);
  EXPECT_NEAR(fit.reml_criterion, 264.6967861, 1e-4);
  // AIC/BIC are exact functions of the criterion: p + 3 parameters.
  const double n_params = 4.0;
  EXPECT_NEAR(fit.aic, fit.reml_criterion + 2.0 * n_params, 1e-10);
  EXPECT_NEAR(fit.bic,
              fit.reml_criterion + std::log(72.0) * n_params, 1e-10);
  // Intercept-only model: no fixed-effect variance.
  EXPECT_NEAR(fit.r2_marginal, 0.0, 1e-12);
  EXPECT_GT(fit.r2_conditional, 0.5);
}

TEST(OracleLmm, MultiStartNeverWorseThanSingleStart) {
  const auto data = balanced_lmm_data();
  mixed::FitOptions single;
  single.n_starts = 1;
  const mixed::LmmFit one = mixed::fit_lmm(data, single);
  const mixed::LmmFit many = mixed::fit_lmm(data);
  EXPECT_LE(many.reml_criterion, one.reml_criterion + 1e-9);
  expect_report_consistent(many.multi_start, many.reml_criterion);
  EXPECT_EQ(one.multi_start.n_starts, 1u);
  EXPECT_EQ(one.multi_start.best_start, 0u);
}

// ---------------------------------------------------------------------------
// GLMM: pooled-GLM deviance bound plus the frozen reference fit.
// ---------------------------------------------------------------------------

TEST(OracleGlmm, DevianceBeatsPooledGlmBound) {
  const auto data = glmm_data();
  const double glm_dev =
      pooled_glm_deviance(kGlmmY, kGlmmX1, kGlmmUsers * kGlmmQuestions);
  EXPECT_NEAR(glm_dev, 122.3035855, 1e-4);  // frozen IRLS cross-check
  const mixed::GlmmFit fit = mixed::fit_logistic_glmm(data);
  ASSERT_TRUE(fit.converged);
  // theta = 0 reduces the Laplace criterion to the pooled GLM, so the
  // optimized deviance can never exceed it.
  EXPECT_LE(fit.deviance, glm_dev + 1e-6);
}

TEST(OracleGlmm, MatchesFrozenReferenceFit) {
  const mixed::GlmmFit fit = mixed::fit_logistic_glmm(glmm_data());
  EXPECT_NEAR(fit.coefficients[0].estimate, -0.0616656, 1e-4);
  EXPECT_NEAR(fit.coefficients[0].std_error, 0.3095390, 1e-4);
  EXPECT_NEAR(fit.coefficients[1].estimate, 0.6546504, 1e-4);
  EXPECT_NEAR(fit.coefficients[1].std_error, 0.3957224, 1e-4);
  EXPECT_NEAR(fit.sigma_user, 0.7131655, 1e-4);
  EXPECT_NEAR(fit.sigma_question, 0.2446279, 1e-4);
  EXPECT_NEAR(fit.deviance, 120.4642740, 1e-4);
  EXPECT_NEAR(fit.r2_marginal, 0.0380950, 1e-4);
  EXPECT_NEAR(fit.r2_conditional, 0.1798130, 1e-4);
  EXPECT_GT(fit.r2_conditional, fit.r2_marginal);
  const double n_params = 4.0;  // 2 betas + 2 RE standard deviations
  EXPECT_NEAR(fit.aic, fit.deviance + 2.0 * n_params, 1e-10);
  EXPECT_NEAR(fit.bic, fit.deviance + std::log(90.0) * n_params, 1e-10);
}

TEST(OracleGlmm, MultiStartNeverWorseThanSingleStart) {
  const auto data = glmm_data();
  mixed::FitOptions single;
  single.n_starts = 1;
  const mixed::GlmmFit one = mixed::fit_logistic_glmm(data, single);
  const mixed::GlmmFit many = mixed::fit_logistic_glmm(data);
  EXPECT_LE(many.deviance, one.deviance + 1e-9);
  expect_report_consistent(many.multi_start, many.deviance);
}

// ---------------------------------------------------------------------------
// Moment-based starts (candidates 8-9) vs. the same ANOVA closed forms.
// ---------------------------------------------------------------------------

TEST(MomentStarts, LmmCandidateMatchesBalancedAnovaClosedForms) {
  const auto data = balanced_lmm_data();
  const AnovaOracle oracle = balanced_anova(kLmmY, kLmmUsers, kLmmQuestions);
  const auto starts = mixed::moment_theta_starts(data, false);
  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(starts[0].size(), 2u);
  // On a balanced intercept-only design the cell-mean decomposition *is*
  // the two-way ANOVA, so candidate 0 equals the closed-form theta ratios.
  EXPECT_NEAR(starts[0][0], oracle.sigma_user / oracle.sigma_residual, 1e-8);
  EXPECT_NEAR(starts[0][1],
              oracle.sigma_question / oracle.sigma_residual, 1e-8);
  // Candidate 1 is the geometric midpoint with the heuristic start (1, 1).
  EXPECT_NEAR(starts[1][0], std::sqrt(starts[0][0]), 1e-12);
  EXPECT_NEAR(starts[1][1], std::sqrt(starts[0][1]), 1e-12);
}

// The moment candidates are appended after the eight original start
// points, which stay exactly the points a search without them would run.
// Each simplex is a pure function of its start vector, so the original
// candidates' searches are untouched.
void expect_original_starts_untouched(
    const std::vector<double>& x0,
    const std::vector<std::vector<double>>& moment_thetas) {
  const auto with = mixed::multi_start_points(x0, /*n_theta=*/2,
                                              /*n_starts=*/8, moment_thetas);
  const auto without =
      mixed::multi_start_points(x0, /*n_theta=*/2, /*n_starts=*/8, {});
  ASSERT_EQ(with.size(), kDefaultStarts);
  ASSERT_EQ(without.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(with[k], without[k]);
}

// The best criterion of the original eight starts: the fit the default
// search would return without its moment candidates.
double best_original_start(const mixed::MultiStartReport& report) {
  return *std::min_element(report.start_values.begin(),
                           report.start_values.begin() + 8);
}

TEST(MomentStarts, LmmIterationCountsDoNotRegress) {
  const auto data = balanced_lmm_data();
  const mixed::LmmFit fit = mixed::fit_lmm(data);
  const mixed::MultiStartReport& report = fit.multi_start;
  ASSERT_EQ(report.start_evaluations.size(), kDefaultStarts);
  // The original candidates are untouched ...
  expect_original_starts_untouched(
      {1.0, 1.0}, mixed::moment_theta_starts(data, /*binary_response=*/false));
  // ... so adding the moment candidates can only improve (or tie) the
  // criterion ...
  EXPECT_LE(fit.reml_criterion, best_original_start(report) + 1e-9);
  // ... and the moment start, sitting near the optimum, converges in
  // about the evaluations of the heuristic start 0 or fewer (+5 absorbs
  // simplex tie-breaking noise without masking a real regression).
  EXPECT_LE(report.start_evaluations[8], report.start_evaluations[0] + 5);
}

TEST(MomentStarts, GlmmIterationCountsDoNotRegress) {
  const auto data = glmm_data();
  const mixed::GlmmFit fit = mixed::fit_logistic_glmm(data);
  const mixed::MultiStartReport& report = fit.multi_start;
  ASSERT_EQ(report.start_evaluations.size(), kDefaultStarts);
  // The GLMM's start vector is [theta_u, theta_q, beta...]; only its
  // shape matters to which points come first.
  std::vector<double> x0(2 + data.n_fixed_effects(), 0.0);
  x0[0] = x0[1] = 1.0;
  expect_original_starts_untouched(
      x0, mixed::moment_theta_starts(data, /*binary_response=*/true));
  EXPECT_LE(fit.deviance, best_original_start(report) + 1e-9);
  EXPECT_LE(report.start_evaluations[8], report.start_evaluations[0] + 5);
}

}  // namespace
