// Shared data layout for the mixed-effects fitters.
//
// Both of the paper's regressions have the same random-effects structure:
// two crossed random intercept factors, user and question —
//   response ~ fixed effects + (1|user) + (1|question)
// so the fitters are specialized to exactly that design, which keeps the
// penalized-least-squares system small (dimension p + nU + nQ) with a
// diagonal user×user block (see linalg/arrow_cholesky.h).
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace decompeval::mixed {

struct MixedModelData {
  /// n × p fixed-effects design matrix including the intercept column.
  linalg::Matrix x;
  /// Column names of `x`, for reporting ("(Intercept)", "Uses DIRTY", ...).
  std::vector<std::string> fixed_effect_names;
  /// Response vector (binary 0/1 for the GLMM, continuous for the LMM).
  linalg::Vector y;
  /// Grouping indices, each observation mapped to [0, n_users) and
  /// [0, n_questions).
  std::vector<std::size_t> user;
  std::vector<std::size_t> question;
  std::size_t n_users = 0;
  std::size_t n_questions = 0;

  std::size_t n_observations() const { return y.size(); }
  std::size_t n_fixed_effects() const { return x.cols(); }

  /// Validates shapes and index ranges; throws PreconditionError if bad.
  void validate() const;
};

/// One fitted fixed-effect coefficient.
struct Coefficient {
  std::string name;
  double estimate = 0.0;
  double std_error = 0.0;
  double z_value = 0.0;   ///< Wald statistic (t for LMM, z for GLMM)
  double p_value = 1.0;   ///< two-sided normal-approximation p
};

}  // namespace decompeval::mixed
