#include "linalg/arrow_cholesky.h"

#include <algorithm>
#include <cmath>

namespace decompeval::linalg {

void ArrowCholesky::reset(std::size_t k, std::size_t m) {
  DE_EXPECTS(k <= m);
  k_ = k;
  m_ = m;
  diag_.assign(k, 0.0);
  rows_.assign((m - k) * m, 0.0);
}

void ArrowCholesky::factorize() {
  // Leading columns: nothing to subtract from a pivot of the diagonal
  // block, and every coupling entry below it is a single division.
  for (std::size_t j = 0; j < k_; ++j) {
    const double diag = diag_[j];
    if (!(diag > 0.0))
      throw NumericalError("Cholesky: matrix not positive definite");
    diag_[j] = std::sqrt(diag);
  }
  for (std::size_t i = k_; i < m_; ++i) {
    double* li = trailing_row(i);
    for (std::size_t j = 0; j < k_; ++j) li[j] = li[j] / diag_[j];
  }
  // Trailing columns: the dense algorithm on full-width rows.
  for (std::size_t j = k_; j < m_; ++j) {
    double* lj = trailing_row(j);
    double diag = lj[j];
    for (std::size_t c = 0; c < j; ++c) diag -= lj[c] * lj[c];
    if (!(diag > 0.0))
      throw NumericalError("Cholesky: matrix not positive definite");
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    for (std::size_t i = j + 1; i < m_; ++i) {
      double* li = trailing_row(i);
      double s = li[j];
      for (std::size_t c = 0; c < j; ++c) s -= li[c] * lj[c];
      li[j] = s / ljj;
    }
  }
}

void ArrowCholesky::solve_in_place(Vector& b) const {
  DE_EXPECTS(b.size() == m_);
  // Forward substitution L·y = b.
  for (std::size_t i = 0; i < k_; ++i) b[i] = b[i] / diag_[i];
  for (std::size_t i = k_; i < m_; ++i) {
    const double* li = trailing_row(i);
    double s = b[i];
    for (std::size_t c = 0; c < i; ++c) s -= li[c] * b[c];
    b[i] = s / li[i];
  }
  // Back substitution Lᵀ·x = y; rows below a leading pivot start at k.
  for (std::size_t ii = m_; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t r = std::max(ii + 1, k_); r < m_; ++r)
      s -= trailing_row(r)[ii] * b[r];
    b[ii] = s / (ii < k_ ? diag_[ii] : trailing_row(ii)[ii]);
  }
}

double ArrowCholesky::log_det() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < k_; ++i) s += std::log(diag_[i]);
  for (std::size_t i = k_; i < m_; ++i) s += std::log(trailing_row(i)[i]);
  return 2.0 * s;
}

double ArrowCholesky::lower(std::size_t i, std::size_t j) const {
  DE_EXPECTS(i < m_ && j < m_);
  if (j > i) return 0.0;
  if (i < k_) return i == j ? diag_[i] : 0.0;
  return trailing_row(i)[j];
}

}  // namespace decompeval::linalg
