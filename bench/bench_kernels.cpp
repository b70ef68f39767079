// Kernel microbench: times every rewritten hot-path kernel — the metric
// kernels, embedding training and the block-arrow mixed-model fits —
// against the retained reference implementation on a fixed seeded
// workload, checks the outputs are bit-identical, splits one
// run_replication request (the replication_sweep shape) into its phases,
// and writes BENCH_kernels.json (host fingerprint + old-vs-new speedup
// ratios + the phase split) to the working directory. Rerunning
// overwrites the file with fresh numbers for the same workload —
// idempotent by construction. Build with -DDECOMPEVAL_NO_SIMD to watch the
// ratios collapse to ~1x (both sides run the reference).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rq1_correctness.h"
#include "analysis/rq2_timing.h"
#include "analysis/rq5_metrics.h"
#include "bench/bench_common.h"
#include "embed/cooccurrence.h"
#include "embed/corpus.h"
#include "metrics/bertscore.h"
#include "metrics/codebleu.h"
#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "text/bleu.h"
#include "text/similarity.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace decompeval;

// Best-of-3 wall-clock of one workload pass; the sink keeps the optimizer
// honest and doubles as the bit-identity evidence.
double best_ms(const std::function<void(std::vector<double>*)>& fn,
               std::vector<double>* sink) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sink->clear();
    const auto start = std::chrono::steady_clock::now();
    fn(sink);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

std::string random_string(util::Rng& rng, std::size_t length,
                          std::string_view alphabet) {
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    s.push_back(alphabet[rng.uniform_index(alphabet.size())]);
  return s;
}

std::vector<std::string> random_tokens(util::Rng& rng, std::size_t length,
                                       const std::vector<std::string>& vocab) {
  std::vector<std::string> tokens;
  tokens.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    tokens.push_back(vocab[rng.uniform_index(vocab.size())]);
  return tokens;
}

struct KernelReading {
  std::string name;
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  bool bit_identical = true;
  // Per-fit search work of the mixed-model rows (-1 = not a fit).
  long nm_evaluations = -1;
  long pirls_iterations = -1;
  // Phase split of the fast side of a training row (-1 = not split).
  double generate_ms = -1.0;
  double count_ms = -1.0;
  double project_ms = -1.0;
};

KernelReading read_kernel(const std::string& name,
                          const std::function<void(std::vector<double>*)>& fast,
                          const std::function<void(std::vector<double>*)>& ref) {
  KernelReading r;
  r.name = name;
  std::vector<double> fast_values, ref_values;
  r.fast_ms = best_ms(fast, &fast_values);
  r.reference_ms = best_ms(ref, &ref_values);
  r.bit_identical = fast_values == ref_values;
  return r;
}

// Shared workloads (built once; the BENCHMARK entries reuse them too).

const std::vector<std::pair<std::string, std::string>>& string_pairs() {
  static const auto kPairs = [] {
    util::Rng rng(11);
    const std::string_view alphabet = "abcdefghijklmnop();{}=+- ";
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 120; ++i)
      pairs.emplace_back(random_string(rng, 20 + rng.uniform_index(400),
                                       alphabet),
                         random_string(rng, 20 + rng.uniform_index(400),
                                       alphabet));
    return pairs;
  }();
  return kPairs;
}

const std::vector<std::pair<std::vector<std::string>,
                            std::vector<std::string>>>&
token_pairs() {
  static const auto kPairs = [] {
    util::Rng rng(23);
    const std::vector<std::string> vocab = {
        "int", "x",   "=",   "0",      ";",   "if",  "(",  ")",
        "ptr", "len", "buf", "return", "for", "i",   "<",  "++"};
    std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
        pairs;
    for (int i = 0; i < 120; ++i)
      pairs.emplace_back(random_tokens(rng, 5 + rng.uniform_index(60), vocab),
                         random_tokens(rng, 5 + rng.uniform_index(60), vocab));
    return pairs;
  }();
  return kPairs;
}

void push_criterion(const mixed::GlmmFit& fit, std::vector<double>* sink) {
  sink->insert(sink->end(),
               {fit.deviance, static_cast<double>(fit.pirls_iterations)});
}

void push_criterion(const mixed::LmmFit& fit, std::vector<double>* sink) {
  sink->insert(sink->end(), {fit.sigma_residual, fit.reml_criterion});
}

// Every numeric field of a fit, for the bitwise comparison.
template <class Fit>
void push_fit(const Fit& fit, std::vector<double>* sink) {
  push_criterion(fit, sink);
  for (const mixed::Coefficient& c : fit.coefficients)
    sink->insert(sink->end(),
                 {c.estimate, c.std_error, c.z_value, c.p_value});
  sink->insert(sink->end(), {fit.sigma_user, fit.sigma_question, fit.aic,
                             fit.bic, fit.r2_marginal, fit.r2_conditional,
                             fit.converged ? 1.0 : 0.0});
  sink->insert(sink->end(), fit.random_user.begin(), fit.random_user.end());
  sink->insert(sink->end(), fit.random_question.begin(),
               fit.random_question.end());
  sink->insert(sink->end(), fit.multi_start.start_values.begin(),
               fit.multi_start.start_values.end());
  for (const int evals : fit.multi_start.start_evaluations)
    sink->push_back(static_cast<double>(evals));
  sink->push_back(static_cast<double>(fit.multi_start.best_start));
}

long nm_evaluations(const mixed::MultiStartReport& report) {
  long total = 0;
  for (const int evals : report.start_evaluations) total += evals;
  return total;
}

// Milliseconds since `start`.
double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One run_replication request as replication_sweep sends it (models and
// metrics on, the embedding model already trained, as the service caches
// it), at threads 1, split into phases. Each phase is timed on its own
// call: the study simulation, the Table I GLMM, the Table II LMM and the
// metric battery. `rest` is run_replication without models, minus the
// simulation and the battery: the figures, RQ4 and the rendering.
struct ReplicationPhases {
  double study_simulation = 0.0;
  double glmm_table1 = 0.0;
  double lmm_table2 = 0.0;
  double metric_battery = 0.0;
  double rest = 0.0;
  double run_replication = 0.0;  // the whole request, models included
};

// The median of each phase over the first 8 seeds from the sweep's seed
// range whose replication succeeds; the sweep screens out the others the
// same way.
ReplicationPhases replication_phases(std::vector<std::uint64_t>* seeds) {
  const auto model = std::make_shared<const embed::EmbeddingModel>(
      embed::EmbeddingModel::train_default(20000, 42));
  std::vector<ReplicationPhases> runs;
  for (std::uint64_t seed = 1000000; runs.size() < 8; ++seed) {
    core::ReplicationConfig config;
    config.seed = seed;
    config.threads = 1;
    config.embedding_model = model;
    config.run_models = false;
    ReplicationPhases r;
    auto start = std::chrono::steady_clock::now();
    try {
      const core::ReplicationReport report = core::run_replication(config);
      r.rest = ms_since(start);
    } catch (const std::exception&) {
      continue;
    }
    config.run_models = true;
    start = std::chrono::steady_clock::now();
    const core::ReplicationReport report = core::run_replication(config);
    r.run_replication = ms_since(start);

    study::StudyConfig study_config;
    study_config.seed = seed;
    study_config.threads = 1;
    start = std::chrono::steady_clock::now();
    study::StudyData data = study::run_study(study_config);
    r.study_simulation = ms_since(start);
    benchmark::DoNotOptimize(data);
    mixed::FitOptions fit_options;
    fit_options.threads = 1;
    start = std::chrono::steady_clock::now();
    auto table1 = analysis::analyze_correctness(data, fit_options);
    r.glmm_table1 = ms_since(start);
    benchmark::DoNotOptimize(table1);
    start = std::chrono::steady_clock::now();
    auto table2 = analysis::analyze_timing(data, fit_options);
    r.lmm_table2 = ms_since(start);
    benchmark::DoNotOptimize(table2);
    analysis::MetricAnalysisOptions metric_options;
    metric_options.threads = 1;
    start = std::chrono::steady_clock::now();
    auto battery = analysis::analyze_metric_correlations(
        data, report.pool, *model, metric_options);
    r.metric_battery = ms_since(start);
    benchmark::DoNotOptimize(battery);
    r.rest -= r.study_simulation + r.metric_battery;
    runs.push_back(r);
    seeds->push_back(seed);
  }
  const auto median = [&runs](double ReplicationPhases::*phase) {
    std::vector<double> v;
    for (const ReplicationPhases& r : runs) v.push_back(r.*phase);
    std::sort(v.begin(), v.end());
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2.0;
  };
  ReplicationPhases m;
  m.study_simulation = median(&ReplicationPhases::study_simulation);
  m.glmm_table1 = median(&ReplicationPhases::glmm_table1);
  m.lmm_table2 = median(&ReplicationPhases::lmm_table2);
  m.metric_battery = median(&ReplicationPhases::metric_battery);
  m.rest = median(&ReplicationPhases::rest);
  m.run_replication = median(&ReplicationPhases::run_replication);
  return m;
}

const embed::EmbeddingModel& small_model() {
  static const embed::EmbeddingModel kModel = embed::EmbeddingModel::train(
      embed::generate_corpus(500, 42), embed::EmbeddingOptions{});
  return kModel;
}

void BM_LevenshteinKernel(benchmark::State& state) {
  const auto& pairs = string_pairs();
  for (auto _ : state)
    for (const auto& [a, b] : pairs)
      benchmark::DoNotOptimize(text::levenshtein(a, b));
}
BENCHMARK(BM_LevenshteinKernel)->Unit(benchmark::kMillisecond);

void BM_BleuKernel(benchmark::State& state) {
  const auto& pairs = token_pairs();
  for (auto _ : state)
    for (const auto& [cand, ref] : pairs)
      benchmark::DoNotOptimize(text::bleu(cand, ref).bleu);
}
BENCHMARK(BM_BleuKernel)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return decompeval::bench::run_bench_main(argc, argv, [] {
    using decompeval::util::format_fixed;
    std::vector<KernelReading> readings;

    readings.push_back(read_kernel(
        "levenshtein",
        [](std::vector<double>* sink) {
          for (const auto& [a, b] : string_pairs())
            sink->push_back(
                static_cast<double>(text::levenshtein(a, b)));
        },
        [](std::vector<double>* sink) {
          for (const auto& [a, b] : string_pairs())
            sink->push_back(
                static_cast<double>(text::levenshtein_reference(a, b)));
        }));

    readings.push_back(read_kernel(
        "bleu",
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs())
            sink->push_back(text::bleu(cand, ref).bleu);
        },
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs())
            sink->push_back(text::bleu_reference(cand, ref).bleu);
        }));

    readings.push_back(read_kernel(
        "weighted_unigram",
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs())
            sink->push_back(metrics::weighted_unigram_match(cand, ref));
        },
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs())
            sink->push_back(
                metrics::weighted_unigram_match_reference(cand, ref));
        }));

    readings.push_back(read_kernel(
        "bert_score",
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs()) {
            const auto s = metrics::bert_score(cand, ref, small_model());
            sink->push_back(s.f1);
          }
        },
        [](std::vector<double>* sink) {
          for (const auto& [cand, ref] : token_pairs()) {
            const auto s =
                metrics::bert_score_reference(cand, ref, small_model());
            sink->push_back(s.f1);
          }
        }));

    // Embedding training, one thread: grouped counting + blocked PPMI
    // projection vs the map-based counting + scalar projection. The sink
    // holds every vocabulary vector, so the bitwise check covers the whole
    // trained model.
    embed::EmbeddingOptions train_options;
    train_options.threads = 1;
    embed::EmbeddingOptions reference_options = train_options;
    reference_options.reference_kernel = true;
    const auto push_model = [](const embed::EmbeddingModel& model,
                               const embed::InternedCorpus& corpus,
                               std::vector<double>* sink) {
      for (const std::string& token : corpus.vocabulary) {
        const auto v = model.embed_token(token);
        sink->insert(sink->end(), v.begin(), v.end());
      }
    };
    const auto corpus_8k = embed::generate_corpus(8000, 42);
    const auto interned_8k = embed::intern_corpus(corpus_8k);
    readings.push_back(read_kernel(
        "embedding_train_8k",
        [&](std::vector<double>* sink) {
          push_model(embed::EmbeddingModel::train(corpus_8k, train_options),
                     interned_8k, sink);
        },
        [&](std::vector<double>* sink) {
          push_model(
              embed::EmbeddingModel::train(corpus_8k, reference_options),
              interned_8k, sink);
        }));

    // The served model (train_default at 20,000 sentences, generator
    // included) against the string-corpus path it replaced, with the fast
    // side split into generate / count / project, where project is
    // train(interned corpus) minus count: the PPMI projection and the
    // model's word map.
    const auto interned_20k = embed::generate_interned_corpus(20000, 42);
    readings.push_back(read_kernel(
        "embedding_train_default_20k",
        [&](std::vector<double>* sink) {
          push_model(
              embed::EmbeddingModel::train_default(20000, 42, train_options),
              interned_20k, sink);
        },
        [&](std::vector<double>* sink) {
          push_model(embed::EmbeddingModel::train(
                         embed::generate_corpus(20000, 42), reference_options),
                     interned_20k, sink);
        }));
    std::vector<double> unused;
    KernelReading& served = readings.back();
    served.generate_ms = best_ms(
        [](std::vector<double>* sink) {
          sink->push_back(static_cast<double>(
              embed::generate_interned_corpus(20000, 42).tokens.size()));
        },
        &unused);
    util::ThreadPool one_thread(1);
    served.count_ms = best_ms(
        [&](std::vector<double>* sink) {
          sink->push_back(static_cast<double>(
              embed::count_cooccurrences(interned_20k, train_options,
                                         one_thread)
                  .total_pairs));
        },
        &unused);
    served.project_ms =
        best_ms(
            [&](std::vector<double>* sink) {
              push_model(
                  embed::EmbeddingModel::train(interned_20k, train_options),
                  interned_20k, sink);
            },
            &unused) -
        served.count_ms;

    // Mixed-model fits on the default study (the Table I GLMM and Table II
    // LMM model data), one thread, the default 10-start search: the
    // block-arrow evaluators vs the dense reference, compared on every
    // numeric field of the fit. This is also the per-phase "fit" split:
    // Nelder–Mead evaluations and, for the GLMM, PIRLS steps per fit.
    const auto glmm_data = analysis::build_model_data(bench::cached_study(),
                                                      /*timing_model=*/false);
    const auto lmm_data = analysis::build_model_data(bench::cached_study(),
                                                     /*timing_model=*/true);
    mixed::FitOptions serial;
    serial.threads = 1;
    mixed::GlmmFit glmm;
    readings.push_back(read_kernel(
        "glmm_fit",
        [&](std::vector<double>* sink) {
          glmm = mixed::fit_logistic_glmm(glmm_data, serial);
          push_fit(glmm, sink);
        },
        [&](std::vector<double>* sink) {
          push_fit(mixed::fit_logistic_glmm_reference(glmm_data, serial), sink);
        }));
    readings.back().nm_evaluations = nm_evaluations(glmm.multi_start);
    readings.back().pirls_iterations =
        static_cast<long>(glmm.pirls_iterations);
    mixed::LmmFit lmm;
    readings.push_back(read_kernel(
        "lmm_fit",
        [&](std::vector<double>* sink) {
          lmm = mixed::fit_lmm(lmm_data, serial);
          push_fit(lmm, sink);
        },
        [&](std::vector<double>* sink) {
          push_fit(mixed::fit_lmm_reference(lmm_data, serial), sink);
        }));
    readings.back().nm_evaluations = nm_evaluations(lmm.multi_start);
    readings.back().pirls_iterations = 0;  // REML is profiled in closed form

    std::cout << "Kernel microbench (fast vs retained reference):\n";
    bool all_identical = true;
    for (const auto& r : readings) {
      all_identical = all_identical && r.bit_identical;
      std::cout << "  " << r.name << ": fast="
                << format_fixed(r.fast_ms, 2) << "ms  reference="
                << format_fixed(r.reference_ms, 2) << "ms  speedup="
                << format_fixed(r.reference_ms / r.fast_ms, 2)
                << "x  bit-identical: "
                << (r.bit_identical ? "yes" : "NO — BUG") << "\n";
    }
    std::cout << "Fit phases (per fit, " << glmm_data.n_observations()
              << " observations, " << glmm_data.n_users << " users, "
              << glmm_data.n_questions << " questions):\n";
    for (const auto& r : readings) {
      if (r.nm_evaluations < 0) continue;
      std::cout << "  " << r.name << ": " << r.nm_evaluations
                << " Nelder-Mead evaluations, " << r.pirls_iterations
                << " PIRLS iterations\n";
    }

    for (const auto& r : readings) {
      if (r.count_ms < 0.0) continue;
      std::cout << "Training phases (" << r.name << ", fast side): generate="
                << format_fixed(r.generate_ms, 2) << "ms  count="
                << format_fixed(r.count_ms, 2) << "ms  project="
                << format_fixed(r.project_ms, 2) << "ms\n";
    }

    std::vector<std::uint64_t> phase_seeds;
    const ReplicationPhases phases = replication_phases(&phase_seeds);
    const std::pair<const char*, double> phase_rows[] = {
        {"study_simulation", phases.study_simulation},
        {"glmm_table1", phases.glmm_table1},
        {"lmm_table2", phases.lmm_table2},
        {"metric_battery", phases.metric_battery},
        {"rest", phases.rest},
        {"run_replication", phases.run_replication}};
    std::cout << "run_replication phases (threads 1, median of "
              << phase_seeds.size() << " seeds from " << phase_seeds.front()
              << "):";
    for (const auto& [name, ms] : phase_rows)
      std::cout << "  " << name << "=" << format_fixed(ms, 2) << "ms";
    std::cout << "\n";

    std::ofstream json("BENCH_kernels.json");
    json << "{\n  \"bench\": \"kernels\",\n"
         << "  \"hardware_concurrency\": " << util::default_thread_count()
         << ",\n  \"host_fingerprint\": \"" << bench::host_fingerprint()
         << "\",\n  \"kernels\": {";
    for (std::size_t i = 0; i < readings.size(); ++i) {
      const auto& r = readings[i];
      json << (i ? "," : "") << "\n    \"" << r.name << "\": {\"fast_ms\": "
           << format_fixed(r.fast_ms, 3) << ", \"reference_ms\": "
           << format_fixed(r.reference_ms, 3) << ", \"speedup\": "
           << format_fixed(r.reference_ms / r.fast_ms, 3)
           << ", \"bit_identical\": "
           << (r.bit_identical ? "true" : "false");
      if (r.nm_evaluations >= 0)
        json << ", \"nm_evaluations\": " << r.nm_evaluations
             << ", \"pirls_iterations\": " << r.pirls_iterations;
      if (r.count_ms >= 0.0)
        json << ", \"generate_ms\": " << format_fixed(r.generate_ms, 3)
             << ", \"count_ms\": " << format_fixed(r.count_ms, 3)
             << ", \"project_ms\": " << format_fixed(r.project_ms, 3);
      json << "}";
    }
    json << "\n  },\n  \"replication_phases_ms\": {\"threads\": 1, "
         << "\"seeds\": [";
    for (std::size_t i = 0; i < phase_seeds.size(); ++i)
      json << (i ? ", " : "") << phase_seeds[i];
    json << "]";
    for (const auto& [name, ms] : phase_rows)
      json << ", \"" << name << "\": " << format_fixed(ms, 3);
    json << "},\n  \"all_bit_identical\": "
         << (all_identical ? "true" : "false") << "\n}\n";
    std::cout << "\nWrote BENCH_kernels.json\n";
  });
}
