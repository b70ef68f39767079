#include "replay.h"

#include <filesystem>
#include <functional>

#include "analysis/rq1_correctness.h"
#include "analysis/rq2_timing.h"
#include "analysis/rq5_metrics.h"
#include "analysis_service/annotation_engine.h"
#include "cluster/disk_cache.h"
#include "cluster/journal.h"
#include "core/replication.h"
#include "embed/embedding.h"
#include "lang/lint.h"
#include "lang/parser.h"
#include "snippets/snippet.h"
#include "streaming/engine.h"
#include "study/engine.h"

namespace clusterbench {

namespace de = decompeval;

namespace {

constexpr std::size_t kStudySeeds = 32;
constexpr std::size_t kStorageSamples = 64;
constexpr int kEditsPerSession = 50;
/// Workload cycles replayed after set-up; the first one refits.
constexpr std::uint64_t kStreamCycles = 10;

double elapsed_us(const std::function<void()>& fn) {
  const std::int64_t start = now_ns();
  fn();
  return static_cast<double>(now_ns() - start) / 1e3;
}

de::study::StudyConfig study_config(std::uint64_t study_seed) {
  de::study::StudyConfig config;
  config.seed = study_seed;
  config.threads = 1;  // what a backend runs: ServiceOptions::default_threads
  return config;
}

void replay_study(std::uint64_t seed, std::map<std::string, double>& out) {
  std::vector<double> samples;
  for (std::uint64_t rank = 0; rank < kStudySeeds; ++rank) {
    const auto config = study_config(study_seed_for_rank(seed, rank));
    samples.push_back(elapsed_us([&] { de::study::run_study(config); }));
  }
  out["study.run_study_us"] = quantile(samples, 0.5);
}

void replay_replication(std::uint64_t seed,
                        std::map<std::string, double>& out) {
  const auto& pool = de::snippets::study_snippets();
  de::study::StudyData data;
  const auto config = study_config(replication_seed(seed, 0, 0));
  elapsed_us([&] { data = de::study::run_study(config, pool); });
  de::mixed::FitOptions fit;
  fit.threads = 1;
  out["mixed.glmm_ms"] =
      elapsed_us([&] { de::analysis::analyze_correctness(data, fit); }) / 1e3;
  out["mixed.lmm_ms"] =
      elapsed_us([&] { de::analysis::analyze_timing(data, fit); }) / 1e3;
  de::embed::EmbeddingOptions embed_options;
  embed_options.threads = 1;
  std::unique_ptr<de::embed::EmbeddingModel> model;
  out["embed.train_ms"] = elapsed_us([&] {
    model = std::make_unique<de::embed::EmbeddingModel>(
        de::embed::EmbeddingModel::train_default(20000, 42, embed_options));
  }) / 1e3;
  de::analysis::MetricAnalysisOptions metric_options;
  metric_options.threads = 1;
  out["metrics.battery_ms"] = elapsed_us([&] {
    de::analysis::analyze_metric_correlations(data, pool, *model,
                                              metric_options);
  }) / 1e3;
}

void replay_annotate(std::uint64_t seed, std::map<std::string, double>& out) {
  std::vector<double> annotate_us, parse_us, lint_us;
  std::uint64_t hits = 0, misses = 0;
  for (int s = 0; s < 4; ++s) {
    EditSession session(seed, s);
    de::analysis_service::AnnotationEngine engine;
    engine.annotate(session.anchor().get_string("source", ""));
    const auto before = engine.cache_stats();
    for (int i = 0; i < kEditsPerSession; ++i) {
      std::string edited;
      bool repeat = false;
      const Json request = session.next(&edited, &repeat);
      const std::string source = request.get_string("source", "");
      annotate_us.push_back(elapsed_us([&] { engine.annotate(source); }));
      if (edited.empty()) continue;
      de::lang::Function fn;
      parse_us.push_back(
          elapsed_us([&] { fn = de::lang::parse_function(edited); }));
      lint_us.push_back(elapsed_us([&] { de::lang::lint_function(fn); }));
    }
    const auto after = engine.cache_stats();
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
  }
  out["annotate_engine.annotate_us"] = quantile(annotate_us, 0.5);
  out["annotate_engine.replay_slice_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  out["lang.parse_us"] = quantile(parse_us, 0.5);
  out["lang.lint_us"] = quantile(lint_us, 0.5);
}

void replay_stream(std::uint64_t seed, std::map<std::string, double>& out) {
  de::streaming::StreamEngine engine;
  for (const Json& request : stream_setup_requests(seed, 0))
    engine.handle(request);
  std::vector<double> plain_us, refit_us, dashboard_us;
  double refits_before = 0.0;
  for (std::uint64_t step = 0; step < kStreamCycles * kStreamCycle; ++step) {
    const Json request = stream_step_request(0, step);
    Json response;
    const double t = elapsed_us([&] { response = engine.handle(request); });
    if (!stream_step_absorbs(step)) {
      dashboard_us.push_back(t);
      continue;
    }
    const double refits = response.get_number("refits_run", 0.0);
    (refits > refits_before ? refit_us : plain_us).push_back(t);
    refits_before = refits;
  }
  const double plain = mean(plain_us);
  out["streaming.absorb_us_per_arrival"] =
      plain / static_cast<double>(kStreamBatch);
  out["streaming.refit_ms"] = (mean(refit_us) - plain) / 1e3;
  out["streaming.dashboard_us"] = quantile(dashboard_us, 0.5);
}

void replay_storage(const std::vector<Answered>& answered,
                    const std::string& dir,
                    std::map<std::string, double>& out) {
  const std::size_t n = std::min(answered.size(), kStorageSamples);
  de::cluster::DiskCacheOptions cache_options;
  cache_options.directory = dir + "/replay.cache";
  cache_options.version = de::core::version();
  std::vector<double> store_us, load_us, append_us;
  {
    de::cluster::DiskCache cache(cache_options);
    for (std::size_t i = 0; i < n; ++i) {
      const Json response = Json::parse(answered[i].response);
      const std::string digest = cache.digest(answered[i].request);
      store_us.push_back(elapsed_us([&] { cache.store(digest, response); }));
    }
  }
  {
    // A second instance starts with a cold memory front: every load reads
    // the file back from disk.
    de::cluster::DiskCache cache(cache_options);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string digest = cache.digest(answered[i].request);
      Json loaded;
      load_us.push_back(elapsed_us([&] { cache.load(digest, &loaded); }));
    }
  }
  {
    de::cluster::JournalOptions journal_options;
    journal_options.path = dir + "/replay.journal";
    de::cluster::Journal journal(journal_options);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string record =
          de::service::strip_volatile_fields(answered[i].request).dump();
      append_us.push_back(elapsed_us([&] { journal.append(record); }));
    }
  }
  out["disk_cache.store_us"] = quantile(store_us, 0.5);
  out["disk_cache.load_us"] = quantile(load_us, 0.5);
  out["journal.append_us"] = quantile(append_us, 0.5);
}

}  // namespace

std::map<std::string, double> replay_layers(
    std::uint64_t seed, const std::vector<Answered>& answered,
    const std::string& scratch_dir) {
  std::map<std::string, double> out;
  std::filesystem::create_directories(scratch_dir);
  replay_study(seed, out);
  replay_replication(seed, out);
  replay_annotate(seed, out);
  replay_stream(seed, out);
  replay_storage(answered, scratch_dir, out);
  return out;
}

}  // namespace clusterbench
