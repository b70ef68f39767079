// Cholesky factorization of a symmetric positive-definite "block-arrow"
// matrix: one whose leading k×k block is diagonal. The mixed-model systems
// have this shape by construction — each observation belongs to exactly
// one user and users are numbered first, so the user×user block of ZᵀWZ
// (and of the bordered LMM system) is diagonal.
//
// Storage: the k leading diagonal entries, plus the m−k trailing rows of
// the lower triangle kept dense and full-width (coupling columns 0..k−1
// followed by the trailing block), so row i of the factor is one
// contiguous prefix. Every off-diagonal entry of the leading block is a
// structural zero and is neither stored nor read.
//
// Bit-identity with linalg::Cholesky: the factor, both triangular solves
// and log_det run the dense algorithm's loops and skip only the products
// with a structural zero. Each skipped term is an exact x − (±0) step, so
// every accumulator keeps the dense code's value and subtraction order,
// for finite inputs. (The one exception, −0 − (−0) = +0, needs an
// accumulator equal to −0; the fitters' sums start from +0 and never
// produce one.)
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace decompeval::linalg {

class ArrowCholesky {
 public:
  ArrowCholesky() = default;

  /// Zero m×m matrix whose leading k×k block is diagonal.
  ArrowCholesky(std::size_t k, std::size_t m) { reset(k, m); }

  /// Reshapes to a zero m×m matrix with a diagonal leading k×k block,
  /// reusing the storage, so a caller that refactors every iteration
  /// allocates only on the first.
  void reset(std::size_t k, std::size_t m);

  /// Entry (i, j) of the lower triangle (i >= j), for accumulating the
  /// matrix before factorize(). Inside the leading block only the
  /// diagonal exists.
  double& at(std::size_t i, std::size_t j) {
    DE_EXPECTS(j <= i && i < m_ && (i >= k_ || i == j));
    return i < k_ ? diag_[i] : trailing_row(i)[j];
  }

  /// Unchecked bulk assembly, the same storage at() reaches: the k
  /// leading diagonal entries, and row i (k <= i < m) of the trailing
  /// lower triangle, full width (entries 0..i). For assembly loops whose
  /// indices the caller has already bounded, as the fitters do through
  /// MixedModelData::validate at fit entry.
  double* diagonal() noexcept { return diag_.data(); }
  double* trailing_row(std::size_t i) noexcept {
    return &rows_[(i - k_) * m_];
  }
  const double* trailing_row(std::size_t i) const noexcept {
    return &rows_[(i - k_) * m_];
  }

  /// Overwrites the matrix with its lower Cholesky factor L (A = L·Lᵀ),
  /// bit-identical to linalg::Cholesky. Throws NumericalError if the
  /// matrix is not (numerically) positive definite, leaving it
  /// unusable until the next reset().
  void factorize();

  /// Solves A·x = b in place from the factor.
  void solve_in_place(Vector& b) const;

  /// log(det A) = 2·Σ log L_ii, summed in linalg::Cholesky's order.
  double log_det() const noexcept;

  /// Entry (i, j) of the factor (0 above the diagonal and at structural
  /// zeros).
  double lower(std::size_t i, std::size_t j) const;

 private:
  std::size_t k_ = 0;
  std::size_t m_ = 0;
  std::vector<double> diag_;  // k leading diagonal entries
  std::vector<double> rows_;  // (m − k) × m, row-major, lower part used
};

}  // namespace decompeval::linalg
