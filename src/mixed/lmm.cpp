#include "mixed/lmm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

#include "linalg/arrow_cholesky.h"
#include "linalg/matrix.h"
#include "mixed/moment_starts.h"
#include "mixed/nelder_mead.h"
#include "statdist/distributions.h"
#include "util/check.h"

namespace decompeval::mixed {

namespace {

// The profiled quantities at one (theta_u, theta_q). Ordering of the
// solution: users, questions, betas.
struct ProfiledSolve {
  linalg::Vector solution;  // [u; beta]
  double penalized_rss = 0.0;
  double logdet_l = 0.0;    // log |L_Z|² (random-effect block)
  double logdet_rx = 0.0;   // log |R_X|² (fixed-effect Schur block)
  linalg::Matrix lower_x;   // trailing p×p block of the factor, R_Xᵀ
};

// Scratch of one REML objective, reused across its evaluations so no
// evaluation allocates the m×m system: the bordered system in
// block-arrow layout (factored in place), its right-hand side, and the
// profiled result. It also holds the θ-free sums, each summed once from
// +0 in observation order as the reference sums it at every evaluation:
// the lower triangle of XᵀX, Xᵀy and yᵀy. The dense reference uses only
// the result.
struct PlsWorkspace {
  explicit PlsWorkspace(const MixedModelData& d)
      : xtx(d.n_fixed_effects() * d.n_fixed_effects(), 0.0),
        xty(d.n_fixed_effects(), 0.0) {
    const std::size_t p = d.n_fixed_effects();
    for (std::size_t i = 0; i < d.n_observations(); ++i)
      for (std::size_t j = 0; j < p; ++j) {
        const double xij = d.x(i, j);
        for (std::size_t k = 0; k <= j; ++k) xtx[j * p + k] += xij * d.x(i, k);
        xty[j] += xij * d.y[i];
      }
    for (const double v : d.y) yty += v * v;
  }

  linalg::ArrowCholesky a;
  linalg::Vector rhs;
  ProfiledSolve s;
  linalg::Vector xtx;  // p×p row-major, lower triangle used
  linalg::Vector xty;
  double yty = 0.0;
};

// A profiled-solve implementation, leaving its result in w.s.
using ProfiledSolver = void (*)(const MixedModelData&, double, double,
                                PlsWorkspace&);

// Shared tail of both solvers: penalized RSS and the log-determinant terms
// from the factor's diagonal, and the factor's fixed-effect block.
template <class Lower>
void finish_solve(const MixedModelData& d, double yty,
                  const linalg::Vector& rhs, const Lower& l,
                  ProfiledSolve& out) {
  const std::size_t q = d.n_users + d.n_questions;
  const std::size_t p = d.n_fixed_effects();
  out.penalized_rss = yty - linalg::dot(out.solution, rhs);
  // Guard against cancellation for near-perfect fits.
  if (out.penalized_rss < 1e-12) out.penalized_rss = 1e-12;
  out.logdet_l = 0.0;
  out.logdet_rx = 0.0;
  for (std::size_t i = 0; i < q; ++i) out.logdet_l += 2.0 * std::log(l(i, i));
  for (std::size_t i = q; i < q + p; ++i)
    out.logdet_rx += 2.0 * std::log(l(i, i));
  if (out.lower_x.rows() != p) out.lower_x = linalg::Matrix(p, p);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < p; ++j) out.lower_x(i, j) = l(q + i, q + j);
}

// The reference's tail: yᵀy summed afresh at every evaluation.
template <class Lower>
void finish_solve(const MixedModelData& d, const linalg::Vector& rhs,
                  const Lower& l, ProfiledSolve& out) {
  double yty = 0.0;
  for (const double v : d.y) yty += v * v;
  finish_solve(d, yty, rhs, l, out);
}

// Builds the bordered penalized-least-squares system for given relative
// covariance factors (theta_u, theta_q), densely. Reference path only.
struct PlsSystem {
  linalg::Matrix a;
  linalg::Vector rhs;
};

PlsSystem build_system_reference(const MixedModelData& d, double theta_u,
                                 double theta_q) {
  const std::size_t n = d.n_observations();
  const std::size_t p = d.n_fixed_effects();
  const std::size_t q = d.n_users + d.n_questions;
  const std::size_t m = q + p;
  PlsSystem sys{linalg::Matrix(m, m), linalg::Vector(m, 0.0)};

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cu = d.user[i];
    const std::size_t cq = d.n_users + d.question[i];
    // Random-effect cross products (Z columns are 0/1 indicators).
    sys.a(cu, cu) += theta_u * theta_u;
    sys.a(cq, cq) += theta_q * theta_q;
    sys.a(cu, cq) += theta_u * theta_q;
    sys.a(cq, cu) += theta_u * theta_q;
    for (std::size_t j = 0; j < p; ++j) {
      const double xij = d.x(i, j);
      sys.a(cu, q + j) += theta_u * xij;
      sys.a(q + j, cu) += theta_u * xij;
      sys.a(cq, q + j) += theta_q * xij;
      sys.a(q + j, cq) += theta_q * xij;
      for (std::size_t k = 0; k <= j; ++k) {
        sys.a(q + j, q + k) += xij * d.x(i, k);
        if (k != j) sys.a(q + k, q + j) += xij * d.x(i, k);
      }
      sys.rhs[q + j] += xij * d.y[i];
    }
    sys.rhs[cu] += theta_u * d.y[i];
    sys.rhs[cq] += theta_q * d.y[i];
  }
  for (std::size_t i = 0; i < q; ++i) sys.a(i, i) += 1.0;
  return sys;
}

// The retained dense implementation: bit-identical to profiled_solve().
void profiled_solve_reference(const MixedModelData& d, double theta_u,
                              double theta_q, PlsWorkspace& w) {
  const PlsSystem sys = build_system_reference(d, theta_u, theta_q);
  const linalg::Cholesky chol(sys.a);
  w.s.solution = chol.solve(sys.rhs);
  finish_solve(d, sys.rhs, chol.lower(), w.s);
}

// The same system accumulated straight into the block-arrow layout
// through its unchecked assembly view (validate() bounded every index at
// fit entry): the θ-dependent lower-triangle terms in the reference's
// per-entry order (the user×user block is diagonal because each
// observation has one user), then the workspace's θ-free XᵀX block and
// Xᵀy copied in.
void build_system(const MixedModelData& d, double theta_u, double theta_q,
                  PlsWorkspace& w) {
  const std::size_t n = d.n_observations();
  const std::size_t p = d.n_fixed_effects();
  const std::size_t n_users = d.n_users;
  const std::size_t q = n_users + d.n_questions;
  const std::size_t m = q + p;
  w.a.reset(n_users, m);
  w.rhs.assign(m, 0.0);
  // The reference adds these products as whole terms, so computing them
  // once changes no bit.
  const double uu = theta_u * theta_u;
  const double qq = theta_q * theta_q;
  const double uq = theta_u * theta_q;
  const double* x = d.x.data().data();
  double* diag = w.a.diagonal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cu = d.user[i];
    const std::size_t cq = n_users + d.question[i];
    const double* xi = x + i * p;
    diag[cu] += uu;
    double* row = w.a.trailing_row(cq);
    row[cq] += qq;
    row[cu] += uq;
    for (std::size_t j = 0; j < p; ++j) {
      double* fixed_row = w.a.trailing_row(q + j);
      fixed_row[cu] += theta_u * xi[j];
      fixed_row[cq] += theta_q * xi[j];
    }
    w.rhs[cu] += theta_u * d.y[i];
    w.rhs[cq] += theta_q * d.y[i];
  }
  for (std::size_t j = 0; j < p; ++j) {
    std::copy_n(&w.xtx[j * p], j + 1, w.a.trailing_row(q + j) + q);
    w.rhs[q + j] = w.xty[j];
  }
  for (std::size_t j = 0; j < n_users; ++j) diag[j] += 1.0;
  for (std::size_t j = n_users; j < q; ++j) w.a.trailing_row(j)[j] += 1.0;
}

void profiled_solve(const MixedModelData& d, double theta_u, double theta_q,
                    PlsWorkspace& w) {
  build_system(d, theta_u, theta_q, w);
  w.a.factorize();
  w.s.solution = w.rhs;
  w.a.solve_in_place(w.s.solution);
  finish_solve(
      d, w.yty, w.rhs,
      [&w](std::size_t i, std::size_t j) { return w.a.lower(i, j); }, w.s);
}

#ifdef DECOMPEVAL_NO_SIMD
constexpr ProfiledSolver kProfiledSolve = profiled_solve_reference;
#else
constexpr ProfiledSolver kProfiledSolve = profiled_solve;
#endif

double reml_from(const MixedModelData& d, const ProfiledSolve& s) {
  const double n = static_cast<double>(d.n_observations());
  const double p = static_cast<double>(d.n_fixed_effects());
  const double nmp = n - p;
  return s.logdet_l + s.logdet_rx +
         nmp * (1.0 + std::log(2.0 * std::numbers::pi * s.penalized_rss / nmp));
}

double reml_criterion_with(ProfiledSolver solver, const MixedModelData& d,
                           double theta_u, double theta_q) {
  d.validate();
  PlsWorkspace w(d);
  solver(d, theta_u, theta_q, w);
  return reml_from(d, w.s);
}

}  // namespace

void MixedModelData::validate() const {
  DE_EXPECTS_MSG(x.rows() == y.size(), "X rows must match y length");
  DE_EXPECTS_MSG(user.size() == y.size(), "user index length mismatch");
  DE_EXPECTS_MSG(question.size() == y.size(), "question index length mismatch");
  DE_EXPECTS_MSG(fixed_effect_names.size() == x.cols(),
                 "fixed effect name count mismatch");
  DE_EXPECTS_MSG(n_users >= 2 && n_questions >= 2,
                 "need at least two levels per grouping factor");
  for (const std::size_t u : user) DE_EXPECTS(u < n_users);
  for (const std::size_t q : question) DE_EXPECTS(q < n_questions);
}

namespace {

LmmFit fit_lmm_with(ProfiledSolver solver, const MixedModelData& data,
                    const FitOptions& options) {
  // The deadline gate precedes validation so an already-expired service
  // request costs nothing and touches no model state.
  options.deadline.check("fit_lmm entry");
  data.validate();
  const std::size_t n = data.n_observations();
  const std::size_t p = data.n_fixed_effects();
  DE_EXPECTS_MSG(n > p + 2, "too few observations for the model");

  // Each objective instance owns its solve workspace, so concurrent
  // multi-start simplices never share state.
  const auto objective_factory = [&data, solver]() {
    auto w = std::make_shared<PlsWorkspace>(data);
    return [&data, solver, w](const std::vector<double>& t) {
      solver(data, std::abs(t[0]), std::abs(t[1]), *w);
      return reml_from(data, w->s);
    };
  };
  NelderMeadOptions opts;
  opts.initial_step = 0.5;
  // The search appends the ANOVA method-of-moments thetas as candidates
  // n_starts and n_starts + 1 (when n_starts > 1).
  MultiStartOutcome search = multi_start_nelder_mead(
      objective_factory, {1.0, 1.0}, /*n_theta=*/2,
      moment_theta_starts(data, /*binary_response=*/false), opts, options);
  const NelderMeadResult& opt = search.best;

  const double theta_u = std::abs(opt.x[0]);
  const double theta_q = std::abs(opt.x[1]);
  PlsWorkspace w(data);
  solver(data, theta_u, theta_q, w);
  const ProfiledSolve& s = w.s;

  LmmFit fit;
  fit.converged = opt.converged;
  fit.multi_start = std::move(search.report);
  fit.n_observations = n;
  fit.reml_criterion = opt.value;
  const double nmp = static_cast<double>(n - p);
  const double sigma2 = s.penalized_rss / nmp;
  fit.sigma_residual = std::sqrt(sigma2);
  fit.sigma_user = theta_u * fit.sigma_residual;
  fit.sigma_question = theta_q * fit.sigma_residual;

  const std::size_t q = data.n_users + data.n_questions;
  // Fixed-effect covariance: sigma² (L22 L22ᵀ)⁻¹ from the trailing Cholesky
  // block (the factor of the Schur complement R_Xᵀ R_X).
  linalg::Matrix schur(p, p);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double v = 0.0;
      for (std::size_t k = 0; k <= j; ++k)
        v += s.lower_x(i, k) * s.lower_x(j, k);
      schur(i, j) = v;
      schur(j, i) = v;
    }
  const linalg::Matrix cov_beta = linalg::spd_inverse(schur).scaled(sigma2);

  fit.coefficients.resize(p);
  for (std::size_t j = 0; j < p; ++j) {
    Coefficient& c = fit.coefficients[j];
    c.name = data.fixed_effect_names[j];
    c.estimate = s.solution[q + j];
    c.std_error = std::sqrt(cov_beta(j, j));
    c.z_value = c.estimate / c.std_error;
    c.p_value = 2.0 * (1.0 - statdist::normal_cdf(std::abs(c.z_value)));
  }

  fit.random_user.resize(data.n_users);
  for (std::size_t j = 0; j < data.n_users; ++j)
    fit.random_user[j] = theta_u * s.solution[j];
  fit.random_question.resize(data.n_questions);
  for (std::size_t j = 0; j < data.n_questions; ++j)
    fit.random_question[j] = theta_q * s.solution[data.n_users + j];

  // Nakagawa & Schielzeth R² components.
  linalg::Vector fitted_fixed(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < p; ++j) v += data.x(i, j) * s.solution[q + j];
    fitted_fixed[i] = v;
  }
  double mean_fixed = 0.0;
  for (const double v : fitted_fixed) mean_fixed += v;
  mean_fixed /= static_cast<double>(n);
  double var_fixed = 0.0;
  for (const double v : fitted_fixed)
    var_fixed += (v - mean_fixed) * (v - mean_fixed);
  var_fixed /= static_cast<double>(n);
  const double var_user = fit.sigma_user * fit.sigma_user;
  const double var_question = fit.sigma_question * fit.sigma_question;
  const double total = var_fixed + var_user + var_question + sigma2;
  fit.r2_marginal = var_fixed / total;
  fit.r2_conditional = (var_fixed + var_user + var_question) / total;

  const double n_params = static_cast<double>(p) + 3.0;  // betas + 2 RE + σ
  fit.aic = fit.reml_criterion + 2.0 * n_params;
  fit.bic = fit.reml_criterion + std::log(static_cast<double>(n)) * n_params;
  return fit;
}

}  // namespace

LmmFit fit_lmm(const MixedModelData& data, const FitOptions& options) {
  return fit_lmm_with(kProfiledSolve, data, options);
}

LmmFit fit_lmm_reference(const MixedModelData& data,
                         const FitOptions& options) {
  return fit_lmm_with(profiled_solve_reference, data, options);
}

double reml_criterion(const MixedModelData& data, double theta_user,
                      double theta_question) {
  return reml_criterion_with(kProfiledSolve, data, theta_user,
                             theta_question);
}

double reml_criterion_reference(const MixedModelData& data,
                                double theta_user, double theta_question) {
  return reml_criterion_with(profiled_solve_reference, data, theta_user,
                             theta_question);
}

}  // namespace decompeval::mixed
