// Determinism contracts for the new parallel stages: the sharded study
// engine, the multi-start mixed-model fits, and the RQ5 metric fan-out
// must be bit-identical at threads = 1, 2 and 4. The suite name matches
// test_parallel's (ParallelDeterminism) so the sanitizer fast path in
// scripts/check.sh picks both binaries up with one regex.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/rq1_correctness.h"
#include "analysis/rq2_timing.h"
#include "analysis/rq5_metrics.h"
#include "decompiler/generator.h"
#include "metrics/static_complexity.h"
#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "mixed/multi_start.h"
#include "snippets/corpus_verifier.h"
#include "study/engine.h"
#include "util/parallel.h"

namespace {

using namespace decompeval;

const study::StudyData& study_data() {
  static const study::StudyData kData = [] {
    study::StudyConfig config;  // default seed
    config.threads = 1;
    return study::run_study(config);
  }();
  return kData;
}

void expect_same_study(const study::StudyData& a, const study::StudyData& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].participant_id, b.responses[i].participant_id);
    EXPECT_EQ(a.responses[i].snippet_index, b.responses[i].snippet_index);
    EXPECT_EQ(a.responses[i].answered, b.responses[i].answered);
    EXPECT_EQ(a.responses[i].correct, b.responses[i].correct);
    EXPECT_EQ(a.responses[i].seconds, b.responses[i].seconds);  // bitwise
  }
  ASSERT_EQ(a.opinions.size(), b.opinions.size());
  for (std::size_t i = 0; i < a.opinions.size(); ++i) {
    EXPECT_EQ(a.opinions[i].participant_id, b.opinions[i].participant_id);
    EXPECT_EQ(a.opinions[i].name_ratings, b.opinions[i].name_ratings);
    EXPECT_EQ(a.opinions[i].type_ratings, b.opinions[i].type_ratings);
  }
  EXPECT_EQ(a.excluded_participants, b.excluded_participants);
}

TEST(ParallelDeterminism, ShardedStudyIsThreadCountInvariant) {
  study::StudyConfig config;
  config.seed = 2024;
  for (const std::size_t threads : {2u, 4u}) {
    config.threads = 1;
    const auto serial = study::run_study(config);
    config.threads = threads;
    const auto parallel = study::run_study(config);
    expect_same_study(serial, parallel);
  }
}

TEST(ParallelDeterminism, MultiStartPointsArePureInTheSeed) {
  const std::vector<double> x0 = {1.0, 1.0, -0.3, 0.0};
  const auto a =
      mixed::multi_start_points(x0, /*n_theta=*/2, /*n_starts=*/8, {});
  const auto b = mixed::multi_start_points(x0, 2, 8, {});
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);          // same seed, same points, bitwise
  EXPECT_EQ(a[0], x0);      // start 0 is the legacy heuristic, verbatim
  for (std::size_t k = 1; k < a.size(); ++k) {
    for (std::size_t d = 0; d < 2; ++d) {
      const double scale = a[k][d] / x0[d];
      EXPECT_GE(scale, mixed::kThetaScaleMin);
      EXPECT_LE(scale, mixed::kThetaScaleMax);
    }
  }
}

TEST(ParallelDeterminism, MultiStartGlmmIsThreadCountInvariant) {
  const auto data = analysis::build_model_data(study_data(), false);
  mixed::FitOptions options;
  options.threads = 1;
  const mixed::GlmmFit serial = mixed::fit_logistic_glmm(data, options);
  for (const std::size_t threads : {2u, 4u}) {
    options.threads = threads;
    const mixed::GlmmFit parallel = mixed::fit_logistic_glmm(data, options);
    EXPECT_EQ(serial.deviance, parallel.deviance);  // bitwise
    EXPECT_EQ(serial.sigma_user, parallel.sigma_user);
    EXPECT_EQ(serial.sigma_question, parallel.sigma_question);
    ASSERT_EQ(serial.coefficients.size(), parallel.coefficients.size());
    for (std::size_t j = 0; j < serial.coefficients.size(); ++j) {
      EXPECT_EQ(serial.coefficients[j].estimate,
                parallel.coefficients[j].estimate);
      EXPECT_EQ(serial.coefficients[j].std_error,
                parallel.coefficients[j].std_error);
    }
    EXPECT_EQ(serial.multi_start.best_start, parallel.multi_start.best_start);
    EXPECT_EQ(serial.multi_start.start_values,
              parallel.multi_start.start_values);
  }
}

TEST(ParallelDeterminism, MultiStartLmmIsThreadCountInvariant) {
  const auto data = analysis::build_model_data(study_data(), true);
  mixed::FitOptions options;
  options.threads = 1;
  const mixed::LmmFit serial = mixed::fit_lmm(data, options);
  for (const std::size_t threads : {2u, 4u}) {
    options.threads = threads;
    const mixed::LmmFit parallel = mixed::fit_lmm(data, options);
    EXPECT_EQ(serial.reml_criterion, parallel.reml_criterion);  // bitwise
    EXPECT_EQ(serial.sigma_user, parallel.sigma_user);
    EXPECT_EQ(serial.sigma_question, parallel.sigma_question);
    EXPECT_EQ(serial.sigma_residual, parallel.sigma_residual);
    ASSERT_EQ(serial.coefficients.size(), parallel.coefficients.size());
    for (std::size_t j = 0; j < serial.coefficients.size(); ++j)
      EXPECT_EQ(serial.coefficients[j].estimate,
                parallel.coefficients[j].estimate);
    EXPECT_EQ(serial.multi_start.start_values,
              parallel.multi_start.start_values);
  }
}

TEST(ParallelDeterminism, MetricAnalysisIsThreadCountInvariant) {
  static const auto model = embed::EmbeddingModel::train_default(4000, 42);
  const auto& pool = snippets::study_snippets();
  analysis::MetricAnalysisOptions options;
  options.threads = 1;
  const auto serial =
      analysis::analyze_metric_correlations(study_data(), pool, model, options);
  for (const std::size_t threads : {2u, 4u}) {
    options.threads = threads;
    const auto parallel = analysis::analyze_metric_correlations(
        study_data(), pool, model, options);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      EXPECT_EQ(serial.rows[i].metric, parallel.rows[i].metric);
      EXPECT_EQ(serial.rows[i].vs_time.estimate,
                parallel.rows[i].vs_time.estimate);  // bitwise
      EXPECT_EQ(serial.rows[i].vs_time.p_value,
                parallel.rows[i].vs_time.p_value);
      EXPECT_EQ(serial.rows[i].vs_correctness.estimate,
                parallel.rows[i].vs_correctness.estimate);
      EXPECT_EQ(serial.rows[i].vs_correctness.p_value,
                parallel.rows[i].vs_correctness.p_value);
    }
    EXPECT_EQ(serial.krippendorff_alpha, parallel.krippendorff_alpha);
    EXPECT_EQ(serial.levenshtein.vs_time.estimate,
              parallel.levenshtein.vs_time.estimate);
    ASSERT_EQ(serial.per_snippet.size(), parallel.per_snippet.size());
    for (const auto& [id, scores] : serial.per_snippet) {
      const auto& other = parallel.per_snippet.at(id);
      EXPECT_EQ(scores.bleu, other.bleu);
      EXPECT_EQ(scores.bertscore_f1, other.bertscore_f1);
      EXPECT_EQ(scores.varclr, other.varclr);
    }
    EXPECT_EQ(serial.human_variable_score, parallel.human_variable_score);
    EXPECT_EQ(serial.human_type_score, parallel.human_type_score);
    ASSERT_EQ(serial.static_rows.size(), parallel.static_rows.size());
    // Compare bit patterns: a constant metric column (dead-store density
    // on the lint-clean paper pool) yields NaN, and NaN != NaN under
    // operator==.
    const auto expect_same_bits = [](double a, double b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
    };
    for (std::size_t i = 0; i < serial.static_rows.size(); ++i) {
      EXPECT_EQ(serial.static_rows[i].metric, parallel.static_rows[i].metric);
      expect_same_bits(serial.static_rows[i].vs_time.estimate,
                       parallel.static_rows[i].vs_time.estimate);
      expect_same_bits(serial.static_rows[i].vs_correctness.estimate,
                       parallel.static_rows[i].vs_correctness.estimate);
    }
  }
}

TEST(ParallelDeterminism, CorpusVerifierIsThreadCountInvariant) {
  decompiler::GeneratorConfig config;
  auto pool = snippets::study_snippets();
  const auto synthetic = decompiler::generate_snippets(40, config);
  pool.insert(pool.end(), synthetic.begin(), synthetic.end());

  snippets::CorpusVerifyOptions options;
  options.threads = 1;
  const auto serial = snippets::verify_corpus(pool, options);
  const std::string serial_report = snippets::verification_report(serial);
  for (const std::size_t threads : {2u, 4u}) {
    options.threads = threads;
    const auto parallel = snippets::verify_corpus(pool, options);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].snippet_id, parallel[i].snippet_id);
      EXPECT_EQ(serial[i].parses, parallel[i].parses);
      EXPECT_EQ(serial[i].original_diagnostics,
                parallel[i].original_diagnostics);
      EXPECT_EQ(serial[i].alignment_issues, parallel[i].alignment_issues);
      EXPECT_EQ(serial[i].hexrays_artifacts, parallel[i].hexrays_artifacts);
      EXPECT_EQ(serial[i].dirty_artifacts, parallel[i].dirty_artifacts);
    }
    EXPECT_EQ(serial_report, snippets::verification_report(parallel));
  }
}

TEST(ParallelDeterminism, StaticComplexityBatteryIsThreadCountInvariant) {
  decompiler::GeneratorConfig config;
  const auto pool = decompiler::generate_snippets(40, config);

  const auto battery = [&pool](std::size_t threads) {
    util::ThreadPool tp(threads);
    return tp.parallel_map(
        pool, [](const snippets::Snippet& s, std::size_t) {
          return metrics::compute_static_complexity(s.dirty_source,
                                                    s.parse_options);
        });
  };
  const auto serial = battery(1);
  for (const std::size_t threads : {2u, 4u}) {
    const auto parallel = battery(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].cyclomatic, parallel[i].cyclomatic);  // bitwise
      EXPECT_EQ(serial[i].halstead_volume, parallel[i].halstead_volume);
      EXPECT_EQ(serial[i].halstead_difficulty,
                parallel[i].halstead_difficulty);
      EXPECT_EQ(serial[i].identifier_entropy, parallel[i].identifier_entropy);
      EXPECT_EQ(serial[i].dead_store_density, parallel[i].dead_store_density);
    }
  }
}

}  // namespace
