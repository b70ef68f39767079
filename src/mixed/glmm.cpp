#include "mixed/glmm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <utility>

#include "linalg/arrow_cholesky.h"
#include "linalg/matrix.h"
#include "mixed/moment_starts.h"
#include "mixed/nelder_mead.h"
#include "statdist/distributions.h"
#include "util/check.h"

namespace decompeval::mixed {

namespace {

double logistic(double eta) { return 1.0 / (1.0 + std::exp(-eta)); }

// μ kept off 0 and 1 for the deviance's logarithms.
double clamp_mu(double mu) { return std::clamp(mu, 1e-12, 1.0 - 1e-12); }

// Binomial deviance residual sum: −2 Σ [y log μ + (1−y) log(1−μ)].
double binomial_deviance(const linalg::Vector& y, const linalg::Vector& mu) {
  double dev = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double m = std::clamp(mu[i], 1e-12, 1.0 - 1e-12);
    dev += y[i] > 0.5 ? -2.0 * std::log(m) : -2.0 * std::log1p(-m);
  }
  return dev;
}

// Scratch of one Laplace objective, reused across its evaluations so no
// evaluation allocates: the conditional modes (also the next
// evaluation's PIRLS warm start), H = ΛᵀZᵀWZΛ + I in block-arrow layout,
// the Newton step vectors, and the observations split by response class
// (built once from the data) with a slot per observation for its
// deviance term. The dense reference uses only the modes.
struct PirlsWorkspace {
  explicit PirlsWorkspace(const MixedModelData& d)
      : term(d.n_observations()) {
    for (std::size_t i = 0; i < d.n_observations(); ++i)
      (d.y[i] > 0.5 ? ones : zeros).push_back(i);
  }

  linalg::Vector u;
  linalg::Vector u_new;
  linalg::Vector delta;
  linalg::Vector xbeta;
  linalg::Vector mu;  // logistic(η) of the last penalized-deviance call
  std::vector<std::size_t> ones;   // y > 0.5: term −2·log μ
  std::vector<std::size_t> zeros;  // the rest: term −2·log1p(−μ)
  linalg::Vector term;             // each observation's deviance term
  linalg::ArrowCholesky h;
};

struct PirlsOutcome {
  double laplace_deviance;  // devres + ‖u‖² + log|H|
  bool converged;
  int iterations;           // penalized least-squares steps taken
};

// A PIRLS implementation: conditional modes of u for fixed beta and theta,
// started from w.u (zeros when its size is not q) and left there.
using PirlsSolver = PirlsOutcome (*)(const MixedModelData&,
                                     std::span<const double>, double, double,
                                     PirlsWorkspace&);

// The retained dense implementation: bit-identical to pirls() below,
// refactoring the whole q×q H with linalg::Cholesky at every step.
PirlsOutcome pirls_reference(const MixedModelData& d,
                             std::span<const double> beta, double theta_u,
                             double theta_q, PirlsWorkspace& work) {
  const std::size_t n = d.n_observations();
  const std::size_t p = d.n_fixed_effects();
  const std::size_t q = d.n_users + d.n_questions;

  linalg::Vector xbeta(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < p; ++j) v += d.x(i, j) * beta[j];
    xbeta[i] = v;
  }

  const auto eta_of = [&](const linalg::Vector& u, std::size_t i) {
    return xbeta[i] + theta_u * u[d.user[i]] +
           theta_q * u[d.n_users + d.question[i]];
  };
  const auto penalized_deviance = [&](const linalg::Vector& u) {
    linalg::Vector mu(n);
    for (std::size_t i = 0; i < n; ++i) mu[i] = logistic(eta_of(u, i));
    return binomial_deviance(d.y, mu) + linalg::dot(u, u);
  };

  linalg::Vector u = std::move(work.u);
  if (u.size() != q) u.assign(q, 0.0);
  double pdev = penalized_deviance(u);

  linalg::Matrix h(q, q);
  bool converged = false;
  int iterations = 0;
  for (int iter = 0; iter < 100; ++iter) {
    ++iterations;
    // Weights and score at the current modes.
    linalg::Vector score(q, 0.0);
    h = linalg::Matrix(q, q);
    for (std::size_t i = 0; i < n; ++i) {
      const double mu = logistic(eta_of(u, i));
      const double w = std::max(mu * (1.0 - mu), 1e-10);
      const double resid = d.y[i] - mu;
      const std::size_t cu = d.user[i];
      const std::size_t cq = d.n_users + d.question[i];
      score[cu] += theta_u * resid;
      score[cq] += theta_q * resid;
      h(cu, cu) += theta_u * theta_u * w;
      h(cq, cq) += theta_q * theta_q * w;
      h(cu, cq) += theta_u * theta_q * w;
      h(cq, cu) += theta_u * theta_q * w;
    }
    for (std::size_t j = 0; j < q; ++j) {
      score[j] -= u[j];
      h(j, j) += 1.0;
    }

    const linalg::Cholesky chol(h);
    const linalg::Vector delta = chol.solve(score);

    // Step halving to guarantee descent of the penalized deviance.
    double step = 1.0;
    linalg::Vector u_new = u;
    double pdev_new = pdev;
    for (int half = 0; half < 20; ++half) {
      for (std::size_t j = 0; j < q; ++j) u_new[j] = u[j] + step * delta[j];
      pdev_new = penalized_deviance(u_new);
      if (pdev_new <= pdev + 1e-12) break;
      step *= 0.5;
    }
    const double improvement = pdev - pdev_new;
    u = u_new;
    pdev = pdev_new;
    if (std::abs(improvement) < 1e-10 && linalg::norm2(delta) * step < 1e-8) {
      converged = true;
      break;
    }
  }

  // Recompute H at the final modes for the determinant term.
  linalg::Matrix h_final(q, q);
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = logistic(eta_of(u, i));
    const double w = std::max(mu * (1.0 - mu), 1e-10);
    const std::size_t cu = d.user[i];
    const std::size_t cq = d.n_users + d.question[i];
    h_final(cu, cu) += theta_u * theta_u * w;
    h_final(cq, cq) += theta_q * theta_q * w;
    h_final(cu, cq) += theta_u * theta_q * w;
    h_final(cq, cu) += theta_u * theta_q * w;
  }
  h_final.add_diagonal(1.0);
  const linalg::Cholesky chol_final(h_final);

  PirlsOutcome out;
  out.laplace_deviance = pdev + chol_final.log_det();
  out.converged = converged;
  out.iterations = iterations;
  work.u = std::move(u);
  return out;
}

// Accumulates H and the score at modes w.u into w.h and w.delta, from
// w.mu holding logistic(η) at those modes: the lower-triangle terms of the
// dense reference in the same per-entry order, then the identity. H is
// written through the unchecked assembly view: validate() bounded every
// index at fit entry.
void accumulate_h(const MixedModelData& d, double theta_u, double theta_q,
                  PirlsWorkspace& w) {
  const std::size_t n = d.n_observations();
  const std::size_t n_users = d.n_users;
  const std::size_t q = n_users + d.n_questions;
  w.h.reset(n_users, q);
  w.delta.assign(q, 0.0);
  // θu·θu·wt associates as (θu·θu)·wt, so hoisting the products changes
  // no bit.
  const double uu = theta_u * theta_u;
  const double qq = theta_q * theta_q;
  const double uq = theta_u * theta_q;
  double* diag = w.h.diagonal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cu = d.user[i];
    const std::size_t cq = n_users + d.question[i];
    const double mu = w.mu[i];
    const double wt = std::max(mu * (1.0 - mu), 1e-10);
    const double resid = d.y[i] - mu;
    w.delta[cu] += theta_u * resid;
    w.delta[cq] += theta_q * resid;
    diag[cu] += uu * wt;
    double* row = w.h.trailing_row(cq);
    row[cq] += qq * wt;
    row[cu] += uq * wt;
  }
  for (std::size_t j = 0; j < q; ++j) w.delta[j] -= w.u[j];
  for (std::size_t j = 0; j < n_users; ++j) diag[j] += 1.0;
  for (std::size_t j = n_users; j < q; ++j) w.h.trailing_row(j)[j] += 1.0;
}

// PIRLS on the block-arrow factorization of H, bit-identical to
// pirls_reference.
PirlsOutcome pirls(const MixedModelData& d, std::span<const double> beta,
                   double theta_u, double theta_q, PirlsWorkspace& w) {
  const std::size_t n = d.n_observations();
  const std::size_t p = d.n_fixed_effects();
  const std::size_t q = d.n_users + d.n_questions;

  w.xbeta.resize(n);
  w.mu.resize(n);
  const double* x = d.x.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < p; ++j) v += x[i * p + j] * beta[j];
    w.xbeta[i] = v;
  }
  // binomial_deviance(y, mu) + ‖u‖², keeping mu in w.mu, in passes with
  // no per-observation branch: μ for every observation, each response
  // class's term into its observation's slot, then the terms summed in
  // observation order, binomial_deviance's order. The modes PIRLS moves
  // to are always the last ones evaluated here, so accumulate_h reuses
  // these values instead of recomputing the same logistic(η).
  const auto penalized_deviance = [&](const linalg::Vector& u) {
    for (std::size_t i = 0; i < n; ++i)
      w.mu[i] = logistic(w.xbeta[i] + theta_u * u[d.user[i]] +
                         theta_q * u[d.n_users + d.question[i]]);
    for (const std::size_t i : w.ones)
      w.term[i] = -2.0 * std::log(clamp_mu(w.mu[i]));
    for (const std::size_t i : w.zeros)
      w.term[i] = -2.0 * std::log1p(-clamp_mu(w.mu[i]));
    double dev = 0.0;
    for (const double t : w.term) dev += t;
    return dev + linalg::dot(u, u);
  };

  if (w.u.size() != q) w.u.assign(q, 0.0);
  double pdev = penalized_deviance(w.u);

  bool converged = false;
  int iterations = 0;
  for (int iter = 0; iter < 100; ++iter) {
    ++iterations;
    accumulate_h(d, theta_u, theta_q, w);
    w.h.factorize();
    w.h.solve_in_place(w.delta);

    // Step halving to guarantee descent of the penalized deviance.
    double step = 1.0;
    w.u_new = w.u;
    double pdev_new = pdev;
    for (int half = 0; half < 20; ++half) {
      for (std::size_t j = 0; j < q; ++j)
        w.u_new[j] = w.u[j] + step * w.delta[j];
      pdev_new = penalized_deviance(w.u_new);
      if (pdev_new <= pdev + 1e-12) break;
      step *= 0.5;
    }
    const double improvement = pdev - pdev_new;
    std::swap(w.u, w.u_new);
    pdev = pdev_new;
    if (std::abs(improvement) < 1e-10 &&
        linalg::norm2(w.delta) * step < 1e-8) {
      converged = true;
      break;
    }
  }

  // Recompute H at the final modes for the determinant term.
  accumulate_h(d, theta_u, theta_q, w);
  w.h.factorize();
  return {pdev + w.h.log_det(), converged, iterations};
}

#ifdef DECOMPEVAL_NO_SIMD
constexpr PirlsSolver kPirls = pirls_reference;
#else
constexpr PirlsSolver kPirls = pirls;
#endif

double laplace_deviance_with(PirlsSolver solver, const MixedModelData& data,
                             const std::vector<double>& params,
                             std::vector<double>& modes) {
  data.validate();
  DE_EXPECTS(params.size() == 2 + data.n_fixed_effects());
  PirlsWorkspace w(data);
  w.u = modes;
  const PirlsOutcome r =
      solver(data, std::span<const double>(params).subspan(2),
             std::abs(params[0]), std::abs(params[1]), w);
  modes = std::move(w.u);
  return r.laplace_deviance;
}

GlmmFit fit_glmm_with(PirlsSolver solver, const MixedModelData& data,
                      const FitOptions& options) {
  // The deadline gate precedes validation so an already-expired service
  // request costs nothing and touches no model state.
  options.deadline.check("fit_logistic_glmm entry");
  data.validate();
  for (const double v : data.y)
    DE_EXPECTS_MSG(v == 0.0 || v == 1.0, "GLMM response must be binary 0/1");

  const std::size_t n = data.n_observations();
  const std::size_t p = data.n_fixed_effects();
  const std::size_t q = data.n_users + data.n_questions;

  // Outer parameter vector: [theta_u, theta_q, beta...]. Each objective
  // instance owns its PIRLS workspace, whose modes are the next
  // evaluation's warm start (it speeds the outer optimization
  // considerably), so concurrent multi-start simplices never share state.
  std::atomic<std::size_t> pirls_iterations{0};
  const auto objective_factory = [&data, q, solver, &pirls_iterations]() {
    auto w = std::make_shared<PirlsWorkspace>(data);
    w->u.assign(q, 0.0);
    return [&data, solver, w, &pirls_iterations](const std::vector<double>& v) {
      const PirlsOutcome r =
          solver(data, std::span<const double>(v).subspan(2),
                 std::abs(v[0]), std::abs(v[1]), *w);
      pirls_iterations.fetch_add(static_cast<std::size_t>(r.iterations),
                                 std::memory_order_relaxed);
      return r.laplace_deviance;
    };
  };

  std::vector<double> start(2 + p, 0.0);
  start[0] = 1.0;
  start[1] = 1.0;
  double ybar = 0.0;
  for (const double v : data.y) ybar += v;
  ybar /= static_cast<double>(n);
  ybar = std::clamp(ybar, 0.01, 0.99);
  start[2] = std::log(ybar / (1.0 - ybar));  // intercept at marginal logit

  NelderMeadOptions opts;
  opts.initial_step = 0.4;
  opts.tolerance = 1e-8;
  opts.max_evaluations = 40000;
  // The search appends the ANOVA method-of-moments thetas as candidates
  // n_starts and n_starts + 1 (when n_starts > 1).
  MultiStartOutcome search = multi_start_nelder_mead(
      objective_factory, start, /*n_theta=*/2,
      moment_theta_starts(data, /*binary_response=*/true), opts, options);
  const NelderMeadResult& opt = search.best;

  const double theta_u = std::abs(opt.x[0]);
  const double theta_q = std::abs(opt.x[1]);
  std::vector<double> beta(opt.x.begin() + 2, opt.x.end());
  PirlsWorkspace w(data);
  w.u.assign(q, 0.0);
  const PirlsOutcome final_fit = solver(data, beta, theta_u, theta_q, w);
  const linalg::Vector final_u = w.u;

  GlmmFit fit;
  fit.converged = opt.converged && final_fit.converged;
  fit.multi_start = std::move(search.report);
  fit.pirls_iterations = pirls_iterations.load();
  fit.n_observations = n;
  fit.deviance = final_fit.laplace_deviance;
  fit.sigma_user = theta_u;
  fit.sigma_question = theta_q;

  // Wald covariance from the numerical Hessian of the deviance in beta,
  // every evaluation warm-started from the final modes.
  const auto dev_of_beta = [&](const std::vector<double>& b) {
    w.u = final_u;
    return solver(data, b, theta_u, theta_q, w).laplace_deviance;
  };
  linalg::Matrix hessian(p, p);
  const double base = fit.deviance;
  std::vector<double> h_steps(p);
  for (std::size_t j = 0; j < p; ++j)
    h_steps[j] = 1e-4 * (1.0 + std::abs(beta[j]));
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t k = j; k < p; ++k) {
      std::vector<double> b = beta;
      if (j == k) {
        b[j] = beta[j] + h_steps[j];
        const double fp = dev_of_beta(b);
        b[j] = beta[j] - h_steps[j];
        const double fm = dev_of_beta(b);
        hessian(j, j) = (fp - 2.0 * base + fm) / (h_steps[j] * h_steps[j]);
      } else {
        b[j] = beta[j] + h_steps[j];
        b[k] = beta[k] + h_steps[k];
        const double fpp = dev_of_beta(b);
        b[k] = beta[k] - h_steps[k];
        const double fpm = dev_of_beta(b);
        b[j] = beta[j] - h_steps[j];
        const double fmm = dev_of_beta(b);
        b[k] = beta[k] + h_steps[k];
        const double fmp = dev_of_beta(b);
        const double v =
            (fpp - fpm - fmp + fmm) / (4.0 * h_steps[j] * h_steps[k]);
        hessian(j, k) = v;
        hessian(k, j) = v;
      }
    }
  }
  // Observed information is Hessian(deviance)/2; covariance is its inverse.
  linalg::Matrix info = hessian.scaled(0.5);
  linalg::Matrix cov_beta;
  try {
    cov_beta = linalg::spd_inverse(info);
  } catch (const NumericalError&) {
    // Ridge the information matrix if finite differences made it indefinite.
    info.add_diagonal(1e-6);
    cov_beta = linalg::spd_inverse(info);
  }

  fit.coefficients.resize(p);
  for (std::size_t j = 0; j < p; ++j) {
    Coefficient& c = fit.coefficients[j];
    c.name = data.fixed_effect_names[j];
    c.estimate = beta[j];
    c.std_error = std::sqrt(std::max(cov_beta(j, j), 0.0));
    c.z_value = c.std_error > 0.0 ? c.estimate / c.std_error : 0.0;
    c.p_value = 2.0 * (1.0 - statdist::normal_cdf(std::abs(c.z_value)));
  }

  fit.random_user.resize(data.n_users);
  for (std::size_t j = 0; j < data.n_users; ++j)
    fit.random_user[j] = theta_u * final_u[j];
  fit.random_question.resize(data.n_questions);
  for (std::size_t j = 0; j < data.n_questions; ++j)
    fit.random_question[j] = theta_q * final_u[data.n_users + j];

  // Nakagawa R² with the logit-link distribution-specific residual π²/3.
  linalg::Vector fitted_fixed(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < p; ++j) v += data.x(i, j) * beta[j];
    fitted_fixed[i] = v;
  }
  double mean_fixed = 0.0;
  for (const double v : fitted_fixed) mean_fixed += v;
  mean_fixed /= static_cast<double>(n);
  double var_fixed = 0.0;
  for (const double v : fitted_fixed)
    var_fixed += (v - mean_fixed) * (v - mean_fixed);
  var_fixed /= static_cast<double>(n);
  const double var_user = theta_u * theta_u;
  const double var_question = theta_q * theta_q;
  const double var_resid = std::numbers::pi * std::numbers::pi / 3.0;
  const double total = var_fixed + var_user + var_question + var_resid;
  fit.r2_marginal = var_fixed / total;
  fit.r2_conditional = (var_fixed + var_user + var_question) / total;

  const double n_params = static_cast<double>(p) + 2.0;
  fit.aic = fit.deviance + 2.0 * n_params;
  fit.bic = fit.deviance + std::log(static_cast<double>(n)) * n_params;
  return fit;
}

}  // namespace

GlmmFit fit_logistic_glmm(const MixedModelData& data,
                          const FitOptions& options) {
  return fit_glmm_with(kPirls, data, options);
}

GlmmFit fit_logistic_glmm_reference(const MixedModelData& data,
                                    const FitOptions& options) {
  return fit_glmm_with(pirls_reference, data, options);
}

double laplace_deviance(const MixedModelData& data,
                        const std::vector<double>& params,
                        std::vector<double>& modes) {
  return laplace_deviance_with(kPirls, data, params, modes);
}

double laplace_deviance_reference(const MixedModelData& data,
                                  const std::vector<double>& params,
                                  std::vector<double>& modes) {
  return laplace_deviance_with(pirls_reference, data, params, modes);
}

}  // namespace decompeval::mixed
