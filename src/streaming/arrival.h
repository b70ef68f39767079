// Sessionized workload generator for the streaming study engine.
//
// The batch pipeline simulates a whole cohort at once; the production
// shape is an open-loop *arrival process*: simulated participants answer
// questions continuously against the served cluster. Two processes are
// provided — Poisson (exponential inter-arrivals at a fixed rate) and
// bursty (a Markov-modulated on/off process: candidates are generated at
// the peak rate and thinned outside "on" phases) — both over the existing
// cognitive-model population and response model.
//
// Determinism contract (the subsystem's headline property): every
// arrival is a pure function of (WorkloadConfig, candidate index). Each
// candidate c draws from `Rng(seed).split(c)` — inter-arrival gap,
// thinning coin, and the full response payload all come from that one
// stream — and the on/off phase timeline is a separate pure function of
// the seed alone. Time is an injectable *virtual clock* (microseconds,
// advanced by the drawn gaps, never read from the host), so a generator
// re-emits the exact byte-for-byte arrival sequence at any thread count,
// on any machine.
//
// Arrivals serialize to a one-line text record (doubles as raw bit
// patterns) that StreamState::snapshot() — and so its digest — is built
// from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snippets/snippet.h"
#include "study/participant.h"
#include "study/response_model.h"
#include "util/rng.h"

namespace decompeval::streaming {

enum class ArrivalProcess {
  kPoisson,  ///< exponential inter-arrivals at rate_per_s
  kBursty,   ///< on/off thinned: peak rate in bursts, trickle between
};

struct WorkloadConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean arrival rate (Poisson) / peak in-burst rate (bursty), per
  /// virtual second.
  double rate_per_s = 200.0;
  /// Bursty process: exponential mean lengths of the on and off phases,
  /// and the acceptance probability of a candidate arriving in an off
  /// phase (the between-burst trickle).
  double burst_on_mean_s = 2.0;
  double burst_off_mean_s = 6.0;
  double off_acceptance = 0.05;
  /// Size of the live population; participants are generated once from
  /// the cohort model with occupations in the paper's 31:10:1 proportion
  /// and no planted rapid responders.
  std::size_t population = 64;
  /// Probability that an answered arrival also files a Likert opinion.
  double opinion_probability = 0.35;
  study::ResponseModelConfig response_model;
  std::uint64_t seed = 68;
};

/// One streamed observation: the (user, question, treatment, correct,
/// time, likert) tuple of the ROADMAP, plus the covariates the windowed
/// analyses need. `draw` is the candidate index (== seq for Poisson;
/// for bursty processes rejected candidates advance it past seq).
struct Arrival {
  std::uint64_t seq = 0;         ///< ordinal among emitted arrivals
  std::uint64_t draw = 0;        ///< candidate index that produced it
  std::uint64_t virtual_us = 0;  ///< arrival time on the virtual clock
  std::uint64_t user = 0;        ///< index into the population
  std::uint64_t snippet_index = 0;
  std::uint64_t question_index = 0;
  std::uint64_t question_global = 0;
  study::Treatment treatment = study::Treatment::kHexRays;
  bool answered = false;
  bool gradeable = false;
  bool correct = false;
  double seconds = 0.0;
  double exp_coding = 0.0;  ///< participant covariates, copied so the
  double exp_re = 0.0;      ///< window is self-contained
  bool has_opinion = false;
  int likert_name = 0;  ///< 1 best … 5 worst; 0 = no opinion filed
  int likert_type = 0;

  /// One-line text record; doubles are serialized as hex bit patterns,
  /// so equal records mean bit-equal arrivals. Contains no newline.
  std::string serialize() const;
};

/// The live population: the cohort model scaled to `n` participants
/// (31:10:1 students:professionals:unemployed, no rapid responders).
/// Pure function of (n, seed).
std::vector<study::Participant> streaming_population(std::size_t n,
                                                     std::uint64_t seed);

/// Open-loop arrival generator. Not thread-safe (the engine serializes
/// per-stream access); determinism does not depend on call batching —
/// next() called N times yields the same N arrivals whether the calls
/// come one at a time or in one burst.
class WorkloadGenerator {
 public:
  /// `pool` must outlive the generator.
  WorkloadGenerator(const WorkloadConfig& config,
                    const std::vector<snippets::Snippet>* pool);

  const std::vector<study::Participant>& population() const {
    return population_;
  }

  /// Emits the next arrival (skipping thinned bursty candidates).
  Arrival next();

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t drawn() const { return drawn_; }
  std::uint64_t virtual_us() const { return clock_us_; }

  /// True when the virtual instant falls in an "on" phase of the bursty
  /// timeline (phase 0 starts "on" at t = 0). Pure function of
  /// (config.seed, t); exposed for the occupancy property tests.
  bool phase_on_at(std::uint64_t t_us);

 private:
  WorkloadConfig config_;
  const std::vector<snippets::Snippet>* pool_;
  std::vector<study::Participant> population_;
  util::Rng base_;
  util::Rng phase_rng_;  ///< consumed only by the boundary list below
  /// Phase-end instants, alternating on/off ends starting with the first
  /// "on" phase; extended lazily (and deterministically) as time grows.
  std::vector<std::uint64_t> phase_ends_us_;
  std::uint64_t emitted_ = 0;
  std::uint64_t drawn_ = 0;
  std::uint64_t clock_us_ = 0;
};

}  // namespace decompeval::streaming
