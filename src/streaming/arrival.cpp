#include "streaming/arrival.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace decompeval::streaming {

namespace {

// Domain-separation salts: the candidate streams, the phase timeline, and
// the population cohort must never alias each other or any batch seed.
constexpr std::uint64_t kArrivalSalt = 0x5742EA11D2A45ULL;
constexpr std::uint64_t kPhaseSalt = 0x0FF04A5E5ULL;
constexpr std::uint64_t kCohortSalt = 0xC0480125ULL;

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, " %llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_bits(std::string& out, double v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, " %016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

int clamp_likert(double mean) {
  const long r = std::lround(mean);
  return static_cast<int>(std::clamp(r, 1L, 5L));
}

}  // namespace

std::string Arrival::serialize() const {
  std::string out = "a1";
  append_u64(out, seq);
  append_u64(out, draw);
  append_u64(out, virtual_us);
  append_u64(out, user);
  append_u64(out, snippet_index);
  append_u64(out, question_index);
  append_u64(out, question_global);
  append_u64(out, treatment == study::Treatment::kDirty ? 1 : 0);
  append_u64(out, answered ? 1 : 0);
  append_u64(out, gradeable ? 1 : 0);
  append_u64(out, correct ? 1 : 0);
  append_bits(out, seconds);
  append_bits(out, exp_coding);
  append_bits(out, exp_re);
  append_u64(out, has_opinion ? 1 : 0);
  append_u64(out, static_cast<std::uint64_t>(likert_name));
  append_u64(out, static_cast<std::uint64_t>(likert_type));
  return out;
}

std::vector<study::Participant> streaming_population(std::size_t n,
                                                     std::uint64_t seed) {
  DE_EXPECTS_MSG(n > 0, "streaming population must be non-empty");
  study::CohortConfig config;
  config.n_unemployed = n / 42;
  config.n_professionals = (n * 10) / 42;
  config.n_students = n - config.n_professionals - config.n_unemployed;
  // The stream models genuine live traffic; the batch study's planted
  // low-effort responders exist to exercise the exclusion rule, which the
  // windowed analyses do not apply.
  config.n_rapid_students = 0;
  config.n_rapid_professionals = 0;
  config.seed = seed ^ kCohortSalt;
  return study::generate_cohort(config);
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config,
                                     const std::vector<snippets::Snippet>* pool)
    : config_(config),
      pool_(pool),
      population_(streaming_population(config.population, config.seed)),
      base_(config.seed ^ kArrivalSalt),
      phase_rng_(config.seed ^ kPhaseSalt) {
  DE_EXPECTS_MSG(pool_ != nullptr && !pool_->empty(),
                 "workload generator needs a snippet pool");
  DE_EXPECTS_MSG(config_.rate_per_s > 0.0, "arrival rate must be positive");
  DE_EXPECTS_MSG(config_.burst_on_mean_s > 0.0 &&
                     config_.burst_off_mean_s > 0.0,
                 "burst phase means must be positive");
  DE_EXPECTS_MSG(config_.off_acceptance >= 0.0 &&
                     config_.off_acceptance <= 1.0,
                 "off_acceptance must be a probability");
  for (const snippets::Snippet& s : *pool_)
    DE_EXPECTS_MSG(!s.questions.empty(), "pool snippet has no questions");
}

bool WorkloadGenerator::phase_on_at(std::uint64_t t_us) {
  // The boundary list is consumed strictly left to right, so lazily
  // extending it keeps every boundary a pure function of the seed no
  // matter when it is first needed.
  while (phase_ends_us_.empty() || phase_ends_us_.back() <= t_us) {
    const bool next_is_on = phase_ends_us_.size() % 2 == 0;
    const double mean =
        next_is_on ? config_.burst_on_mean_s : config_.burst_off_mean_s;
    const double len_s = phase_rng_.exponential(1.0 / mean);
    const auto len_us = static_cast<std::uint64_t>(
        std::max<long long>(1, std::llround(len_s * 1e6)));
    const std::uint64_t start =
        phase_ends_us_.empty() ? 0 : phase_ends_us_.back();
    phase_ends_us_.push_back(start + len_us);
  }
  const auto it = std::upper_bound(phase_ends_us_.begin(),
                                   phase_ends_us_.end(), t_us);
  const std::size_t phase =
      static_cast<std::size_t>(it - phase_ends_us_.begin());
  return phase % 2 == 0;  // phase 0 is "on"
}

Arrival WorkloadGenerator::next() {
  for (;;) {
    const std::uint64_t c = drawn_++;
    // Everything this candidate needs — gap, thinning coin, payload —
    // comes from one split stream, so the candidate is a pure function
    // of (config, c) regardless of generation batching.
    util::Rng stream = base_.split(c);
    const double gap_s = stream.exponential(config_.rate_per_s);
    clock_us_ += static_cast<std::uint64_t>(
        std::max<long long>(1, std::llround(gap_s * 1e6)));
    if (config_.process == ArrivalProcess::kBursty) {
      const bool on = phase_on_at(clock_us_);
      const double coin = stream.uniform();
      if (!on && coin >= config_.off_acceptance) continue;
    }

    Arrival a;
    a.seq = emitted_++;
    a.draw = c;
    a.virtual_us = clock_us_;
    a.user = stream.uniform_index(population_.size());
    const study::Participant& p = population_[a.user];
    a.snippet_index = stream.uniform_index(pool_->size());
    const snippets::Snippet& snippet = (*pool_)[a.snippet_index];
    a.question_index = stream.uniform_index(snippet.questions.size());
    a.treatment = stream.bernoulli(0.5) ? study::Treatment::kDirty
                                        : study::Treatment::kHexRays;
    const study::Response r = study::simulate_response(
        p, snippet, a.snippet_index, a.question_index, a.treatment,
        config_.response_model, stream);
    a.question_global = r.question_global;
    a.answered = r.answered;
    a.gradeable = r.gradeable;
    a.correct = r.correct;
    a.seconds = r.seconds;
    a.exp_coding = p.coding_experience_years;
    a.exp_re = p.re_experience_years;
    if (a.answered && stream.bernoulli(config_.opinion_probability)) {
      const study::OpinionRecord o = study::simulate_opinion(
          p, snippet, a.snippet_index, a.treatment, config_.response_model,
          stream);
      a.has_opinion = true;
      a.likert_name = clamp_likert(o.mean_name_rating());
      a.likert_type = clamp_likert(o.mean_type_rating());
    }
    return a;
  }
}

}  // namespace decompeval::streaming
