// The frozen datasets of the mixed-model oracle tests, shared with the
// factorization differential tests.
#pragma once

#include <cstddef>

#include "mixed/model_data.h"

namespace decompeval::oracle_data {

// Balanced 12-user x 6-question crossed design, one observation per cell,
// simulated once from y = 10 + u_i + q_j + e with sigma_u = 2,
// sigma_q = 1.5, sigma_e = 1 and frozen at 6 decimals.
inline constexpr double kLmmY[] = {
    11.185543, 8.396325,  11.509528, 11.359862, 8.755835,  8.088605,   //
    11.531000, 9.310785,  12.703083, 12.677416, 9.658219,  9.199898,   //
    9.200120,  6.874107,  11.324032, 10.753992, 9.034318,  9.200305,   //
    7.091923,  6.836987,  9.225961,  10.784208, 8.625975,  8.156661,   //
    6.883262,  6.465807,  9.106826,  9.943932,  6.506054,  10.002345,  //
    11.639396, 13.661886, 12.032395, 13.456016, 11.171522, 14.438308,  //
    6.592289,  8.159711,  9.035716,  12.432420, 8.937861,  10.120575,  //
    8.174565,  8.752105,  9.279687,  9.373161,  5.842529,  10.072198,  //
    6.195385,  8.605105,  9.337052,  10.664394, 7.494853,  8.562142,   //
    7.472897,  6.750877,  8.758410,  8.503736,  8.063108,  7.547753,   //
    13.608559, 12.644246, 12.746332, 15.401578, 11.656378, 14.027883,  //
    8.525879,  7.597093,  10.077544, 11.791228, 5.534642,  8.726937};
inline constexpr std::size_t kLmmUsers = 12;
inline constexpr std::size_t kLmmQuestions = 6;

// 15-user x 6-question binary design with one centered covariate,
// simulated once from logit(p) = 0.3 + 0.9 x1 + u_i + q_j with
// sigma_u = 1, sigma_q = 0.8 and frozen at 6 decimals.
inline constexpr double kGlmmY[] = {
    0, 1, 0, 1, 0, 0, 0, 1, 1, 0,  //
    0, 1, 1, 1, 1, 1, 1, 1, 0, 0,  //
    1, 1, 0, 1, 0, 0, 0, 0, 1, 1,  //
    0, 0, 1, 0, 0, 0, 0, 0, 0, 1,  //
    0, 0, 1, 1, 1, 1, 1, 1, 0, 1,  //
    0, 1, 0, 0, 0, 0, 1, 1, 1, 1,  //
    1, 1, 0, 0, 1, 0, 0, 1, 0, 0,  //
    1, 0, 0, 1, 0, 1, 0, 0, 0, 1,  //
    0, 1, 1, 0, 1, 1, 0, 0, 1, 1};
inline constexpr double kGlmmX1[] = {
    0.691746,  0.696451,  0.954047,  -0.181284, -0.407819, 0.904631,   //
    0.262114,  0.222058,  0.784995,  -0.364272, -0.686053, -0.225389,  //
    -0.459609, -0.257429, -0.902491, 0.380239,  -0.323689, 0.908276,   //
    -0.394923, -0.126654, 0.900835,  -0.913206, -0.271529, 0.414213,   //
    -0.847912, -0.191727, 0.497387,  0.394441,  -0.005792, 0.118789,   //
    -0.837562, 0.131869,  -0.019267, 0.428035,  0.477580,  0.872353,   //
    -0.946755, 0.712832,  0.571454,  -0.286927, 0.949590,  -0.982072,  //
    0.888191,  0.123045,  0.663133,  -0.957697, -0.159369, 0.487879,   //
    -0.539882, -0.983309, 0.565606,  0.848880,  0.412375,  0.074229,   //
    -0.726177, 0.096386,  0.972731,  0.870874,  0.246397,  -0.314501,  //
    0.616258,  0.341250,  -0.807831, -0.624598, -0.180707, -0.535865,  //
    -0.822595, 0.956203,  -0.577707, -0.823050, 0.328093,  -0.964885,  //
    0.998712,  -0.579787, 0.194911,  -0.832242, -0.462571, 0.019165,   //
    -0.270100, 0.560114,  -0.732665, 0.079747,  0.322874,  -0.165373,  //
    0.651105,  -0.055350, 0.232435,  0.198773,  -0.024034, -0.460055};
inline constexpr std::size_t kGlmmUsers = 15;
inline constexpr std::size_t kGlmmQuestions = 6;

inline mixed::MixedModelData balanced_lmm_data() {
  mixed::MixedModelData d;
  const std::size_t n = kLmmUsers * kLmmQuestions;
  d.x = linalg::Matrix(n, 1);
  d.fixed_effect_names = {"(Intercept)"};
  d.y.assign(kLmmY, kLmmY + n);
  for (std::size_t i = 0; i < kLmmUsers; ++i)
    for (std::size_t j = 0; j < kLmmQuestions; ++j) {
      d.x(i * kLmmQuestions + j, 0) = 1.0;
      d.user.push_back(i);
      d.question.push_back(j);
    }
  d.n_users = kLmmUsers;
  d.n_questions = kLmmQuestions;
  return d;
}

inline mixed::MixedModelData glmm_data() {
  mixed::MixedModelData d;
  const std::size_t n = kGlmmUsers * kGlmmQuestions;
  d.x = linalg::Matrix(n, 2);
  d.fixed_effect_names = {"(Intercept)", "x1"};
  d.y.assign(kGlmmY, kGlmmY + n);
  for (std::size_t i = 0; i < kGlmmUsers; ++i)
    for (std::size_t j = 0; j < kGlmmQuestions; ++j) {
      const std::size_t r = i * kGlmmQuestions + j;
      d.x(r, 0) = 1.0;
      d.x(r, 1) = kGlmmX1[r];
      d.user.push_back(i);
      d.question.push_back(j);
    }
  d.n_users = kGlmmUsers;
  d.n_questions = kGlmmQuestions;
  return d;
}

}  // namespace decompeval::oracle_data
