#include "streaming/engine.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/rq1_correctness.h"
#include "metrics/static_complexity.h"
#include "snippets/snippet.h"
#include "stats/correlation.h"
#include "stats/tests.h"
#include "streaming/arrival.h"
#include "util/check.h"

namespace decompeval::streaming {

namespace {

using service::Json;

constexpr std::size_t kMaxNotes = 32;
/// Minimum usable window rows before a model is attempted; below this a
/// refit records "sparse" and keeps the previous fit (not a fault).
constexpr std::size_t kMinFitRows = 16;

Json bad_request(std::string_view message) {
  return service::failure_response("bad_request", message);
}

Json error_response(const std::string& op, const std::string& message) {
  Json r = Json::object();
  r.set("status", Json::string("error"));
  r.set("op", Json::string(op));
  r.set("error", Json::string(message));
  return r;
}

// The answer to a stream op on a stream that is not open.
Json no_such_stream(const std::string& op, const std::string& id) {
  if (id.empty()) return bad_request("stream ops need a string field 'stream'");
  return error_response(op, "unknown stream '" + id + "'");
}

struct StreamOptions {
  WorkloadConfig workload;
  WindowOptions window;
  std::uint64_t refit_every = 0;  ///< 0 disables refits
  int fit_starts = 4;
};

/// Caps on the stream_open fields that size a stream's work: the whole
/// cohort is built at open, every refit fits both models on up to
/// `window_events` rows (16× the 4,096 default), and runs `fit_starts`
/// simplex fits per model.
constexpr std::uint64_t kMaxPopulation = 100000;
constexpr std::uint64_t kMaxWindowEvents = 65536;
constexpr std::uint64_t kMaxFitStarts = 64;

/// Throws service::JsonError — a "bad_request" — for a count field out of
/// range and std::runtime_error — an "error" — for an unknown process, so
/// the backend refuses an invalid open before it is journaled.
StreamOptions parse_stream_options(const Json& request) {
  StreamOptions o;
  const std::string process = request.get_string("process", "poisson");
  if (process == "poisson") {
    o.workload.process = ArrivalProcess::kPoisson;
  } else if (process == "bursty") {
    o.workload.process = ArrivalProcess::kBursty;
  } else {
    throw std::runtime_error("unknown arrival process '" + process + "'");
  }
  o.workload.rate_per_s = request.get_number("rate_per_s", 200.0);
  o.workload.burst_on_mean_s = request.get_number("burst_on_s", 2.0);
  o.workload.burst_off_mean_s = request.get_number("burst_off_s", 6.0);
  o.workload.off_acceptance = request.get_number("off_acceptance", 0.05);
  o.workload.population =
      request.get_positive_count("population", 64, kMaxPopulation);
  o.workload.opinion_probability =
      request.get_number("opinion_probability", 0.35);
  o.workload.seed = request.get_count("seed", 68);
  o.window.max_events =
      request.get_positive_count("window_events", 4096, kMaxWindowEvents);
  o.window.max_age_us =
      request.get_count("window_age_ms", 0, UINT64_MAX / 1000) * 1000;
  o.refit_every = request.get_count("refit_every", 0);
  o.fit_starts = static_cast<int>(
      request.get_positive_count("fit_starts", 4, kMaxFitStarts));
  return o;
}

bool nonconstant(const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i] != v[0]) return true;
  return false;
}

void set_correlation(Json& out, const std::vector<double>& x,
                     const std::vector<double>& y) {
  set_count(out, "n", x.size());
  if (x.size() < 8 || !nonconstant(x) || !nonconstant(y)) return;
  const stats::CorrelationResult c = stats::spearman(x, y);
  out.set("rho", Json::number(c.estimate));
  out.set("p", Json::number(c.p_value));
}

void set_wilcoxon(Json& out, const std::vector<double>& x,
                  const std::vector<double>& y) {
  if (x.empty() || y.empty()) return;
  // An all-tied pooled sample has no rank variance to test against.
  if (!nonconstant(x) && !nonconstant(y) && x[0] == y[0]) return;
  const stats::WilcoxonResult w = stats::wilcoxon_rank_sum(x, y);
  out.set("w", Json::number(w.w));
  out.set("p", Json::number(w.p_value));
  out.set("shift", Json::number(w.location_shift));
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

class StreamSession {
 public:
  StreamSession(std::string id, StreamOptions options,
                const util::FaultInjector* faults,
                const std::vector<snippets::Snippet>* pool)
      : id_(std::move(id)),
        options_(std::move(options)),
        faults_(faults),
        pool_(pool),
        generator_(options_.workload, pool),
        state_(options_.window) {}

  Json open_response(bool already_open) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Json r = service::ok_response("stream_open");
    r.set("stream", Json::string(id_));
    r.set("already_open", Json::boolean(already_open));
    set_count(r, "emitted", generator_.emitted());
    set_count(r, "absorbed", state_.absorbed());
    set_count(r, "population", generator_.population().size());
    return r;
  }

  /// The bad_request refusing an absorb to `upto` that asks for more than
  /// one request may past "emitted": over kMaxAbsorbPerRequest arrivals,
  /// or over kMaxRefitsPerAbsorb refit points crossed (a refit runs after
  /// every arrival that brings "emitted" to a multiple of refit_every).
  /// Empty when the absorb is within both caps. "emitted" only grows, so an
  /// absorb that runs between this check and the one it passes can only
  /// shrink what that one asks for.
  std::optional<Json> refuse_absorb(std::uint64_t upto) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t emitted = generator_.emitted();
    if (upto <= emitted) return std::nullopt;
    if (upto - emitted > StreamEngine::kMaxAbsorbPerRequest)
      return bad_request("stream_absorb may ask for at most " +
                         std::to_string(StreamEngine::kMaxAbsorbPerRequest) +
                         " arrivals past the stream's 'emitted'");
    const std::uint64_t every = options_.refit_every;
    if (every != 0 &&
        upto / every - emitted / every > StreamEngine::kMaxRefitsPerAbsorb)
      return bad_request("stream_absorb may cross at most " +
                         std::to_string(StreamEngine::kMaxRefitsPerAbsorb) +
                         " refit points past the stream's 'emitted'");
    return std::nullopt;
  }

  Json absorb(std::uint64_t upto, std::size_t threads) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t dropped_before = dropped_;
    const std::uint64_t faulted_before = refits_faulted_;
    while (generator_.emitted() < upto) {
      const Arrival a = generator_.next();
      process_arrival(a, threads);
    }
    Json r = Json::object();
    const bool degraded = dropped_ > dropped_before ||
                          refits_faulted_ > faulted_before;
    r.set("status", Json::string(degraded ? "degraded" : "ok"));
    r.set("op", Json::string("stream_absorb"));
    r.set("stream", Json::string(id_));
    set_count(r, "emitted", generator_.emitted());
    set_count(r, "absorbed", state_.absorbed());
    set_count(r, "dropped", dropped_);
    set_count(r, "refit_attempts", refit_attempts_);
    set_count(r, "refits_run", refits_run_);
    if (degraded) r.set("notes", service::string_array(notes_));
    return r;
  }

  Json stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Json r = service::ok_response("stream_stats");
    r.set("stream", Json::string(id_));
    set_count(r, "emitted", generator_.emitted());
    set_count(r, "drawn", generator_.drawn());
    set_count(r, "virtual_us", generator_.virtual_us());
    set_count(r, "absorbed", state_.absorbed());
    set_count(r, "evicted", state_.evicted());
    set_count(r, "dropped", dropped_);
    set_count(r, "window", state_.window().size());
    set_count(r, "refit_attempts", refit_attempts_);
    set_count(r, "refits_run", refits_run_);
    set_count(r, "refits_faulted", refits_faulted_);
    set_count(r, "refits_sparse", refits_sparse_);
    set_count(r, "refit_failures", refit_failures_);
    r.set("degraded", Json::boolean(dropped_ > 0 || refits_faulted_ > 0));
    r.set("digest", Json::string(state_.digest()));
    for (int t = 0; t < 2; ++t) {
      const study::Treatment arm =
          t == 0 ? study::Treatment::kHexRays : study::Treatment::kDirty;
      Json c = Json::object();
      const TreatmentCounts& lc = state_.lifetime_counts(arm);
      set_count(c, "arrivals", lc.arrivals);
      set_count(c, "answered", lc.answered);
      set_count(c, "gradeable", lc.gradeable);
      set_count(c, "correct", lc.correct);
      set_count(c, "opinions", lc.opinions);
      r.set(t == 0 ? "hexrays" : "dirty", c);
    }
    return r;
  }

  Json dashboard() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Json r = service::ok_response("stream_dashboard");
    r.set("stream", Json::string(id_));
    set_count(r, "absorbed", state_.absorbed());
    set_count(r, "dropped", dropped_);
    set_count(r, "window", state_.window().size());
    set_count(r, "virtual_us", state_.newest_virtual_us());
    // A window that lost arrivals or skipped refits to faults is degraded:
    // the summaries are internally consistent over what survived but must
    // not be read as the full stream.
    const bool degraded = dropped_ > 0 || refits_faulted_ > 0;
    r.set("window_degraded", Json::boolean(degraded));
    if (degraded) r.set("notes", service::string_array(notes_));
    r.set("rq1", rq1_json());
    r.set("rq2", rq2_json());
    r.set("rq3", rq3_json());
    r.set("rq4", rq4_json());
    r.set("rq5", rq5_json());
    return r;
  }

  SessionView view() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    SessionView v;
    v.window_data = window_study_data();
    v.fit_starts = options_.fit_starts;
    v.have_glmm = have_glmm_;
    v.have_lmm = have_lmm_;
    v.glmm = glmm_;
    v.lmm = lmm_;
    v.digest = state_.digest();
    v.absorbed = state_.absorbed();
    v.dropped = dropped_;
    v.refit_attempts = refit_attempts_;
    v.refits_run = refits_run_;
    v.refits_faulted = refits_faulted_;
    return v;
  }

 private:
  void note(std::string text) {
    if (notes_.size() >= kMaxNotes) notes_.erase(notes_.begin());
    notes_.push_back(std::move(text));
  }

  /// Absorbs (or drops) one arrival and runs the refit cadence. The
  /// cadence keys on arrival seq — not on absorption success — so a
  /// fault-dropped arrival still triggers the same refit schedule a
  /// clean run would see.
  void process_arrival(const Arrival& a, std::size_t threads) {
    bool dropped = false;
    if (faults_ != nullptr) {
      try {
        faults_->raise_if("stream.absorb", a.seq);
      } catch (const util::FaultError& e) {
        dropped = true;
        ++dropped_;
        note("arrival " + std::to_string(a.seq) + " dropped: " + e.what());
      }
    }
    if (!dropped) state_.absorb(a);
    if (options_.refit_every != 0 && (a.seq + 1) % options_.refit_every == 0)
      run_refit(threads);
  }

  void run_refit(std::size_t threads) {
    const std::uint64_t attempt = refit_attempts_++;
    if (faults_ != nullptr) {
      try {
        faults_->raise_if("stream.refit", attempt);
      } catch (const util::FaultError& e) {
        ++refits_faulted_;
        note("refit " + std::to_string(attempt) + " skipped: " + e.what());
        return;
      }
    }
    const study::StudyData data = window_study_data();
    if (!refit_eligible(data)) {
      ++refits_sparse_;
      return;
    }
    // Each refit is the default fit of its window: cold, so a stream's fit
    // depends on the current window alone, never on earlier refits.
    mixed::FitOptions fit;
    fit.n_starts = options_.fit_starts;
    fit.threads = threads;
    bool fitted_any = false;
    try {
      glmm_ = mixed::fit_logistic_glmm(
          analysis::build_model_data(data, /*timing_model=*/false, nullptr),
          fit);
      have_glmm_ = true;
      fitted_any = true;
    } catch (const NumericalError& e) {
      ++refit_failures_;
      note("refit " + std::to_string(attempt) + " glmm failed: " + e.what());
    }
    try {
      lmm_ = mixed::fit_lmm(
          analysis::build_model_data(data, /*timing_model=*/true, nullptr),
          fit);
      have_lmm_ = true;
      fitted_any = true;
    } catch (const NumericalError& e) {
      ++refit_failures_;
      note("refit " + std::to_string(attempt) + " lmm failed: " + e.what());
    }
    if (fitted_any) ++refits_run_;
  }

  /// The windowed refits need enough rows, both treatment arms, response
  /// variation, and at least two levels per grouping factor; a window
  /// that fails the check is "sparse" (the previous fit stays current).
  bool refit_eligible(const study::StudyData& data) const {
    std::size_t gradeable = 0;
    std::size_t correct = 0;
    std::size_t per_arm[2] = {0, 0};
    std::set<std::size_t> users;
    std::set<std::size_t> questions;
    for (const study::Response& r : data.responses) {
      if (!r.answered) continue;
      users.insert(r.participant_id);
      questions.insert(r.question_global);
      ++per_arm[r.treatment == study::Treatment::kDirty ? 1 : 0];
      if (!r.gradeable) continue;
      ++gradeable;
      if (r.correct) ++correct;
    }
    return gradeable >= kMinFitRows && users.size() >= 2 &&
           questions.size() >= 2 && per_arm[0] >= 2 && per_arm[1] >= 2 &&
           correct > 0 && correct < gradeable;
  }

  study::StudyData window_study_data() const {
    study::StudyData data;
    data.cohort = generator_.population();
    data.n_questions = 0;
    for (const Arrival& a : state_.window()) {
      study::Response r;
      r.participant_id = a.user;
      r.snippet_index = a.snippet_index;
      r.question_index = a.question_index;
      r.question_global = a.question_global;
      r.treatment = a.treatment;
      r.answered = a.answered;
      r.gradeable = a.gradeable;
      r.correct = a.correct;
      r.seconds = a.seconds;
      data.responses.push_back(r);
      data.n_questions = std::max<std::size_t>(data.n_questions,
                                               a.question_global + 1);
    }
    return data;
  }

  // ---- windowed RQ summaries (caller holds mutex_) ----

  Json rq1_json() const {
    Json out = Json::object();
    for (int t = 0; t < 2; ++t) {
      const study::Treatment arm =
          t == 0 ? study::Treatment::kHexRays : study::Treatment::kDirty;
      std::uint64_t gradeable = 0;
      std::uint64_t correct = 0;
      for (const Arrival& a : state_.window()) {
        if (a.treatment != arm || !a.gradeable) continue;
        ++gradeable;
        if (a.correct) ++correct;
      }
      Json c = Json::object();
      set_count(c, "gradeable", gradeable);
      set_count(c, "correct", correct);
      if (gradeable > 0)
        c.set("rate", Json::number(static_cast<double>(correct) /
                                   static_cast<double>(gradeable)));
      out.set(t == 0 ? "hexrays" : "dirty", c);
    }
    Json g = Json::object();
    g.set("fitted", Json::boolean(have_glmm_));
    if (have_glmm_) {
      g.set("deviance", Json::number(glmm_.deviance));
      g.set("sigma_user", Json::number(glmm_.sigma_user));
      g.set("sigma_question", Json::number(glmm_.sigma_question));
      if (glmm_.coefficients.size() > 1) {
        g.set("treatment_estimate",
              Json::number(glmm_.coefficients[1].estimate));
        g.set("treatment_p", Json::number(glmm_.coefficients[1].p_value));
      }
    }
    out.set("glmm", g);
    return out;
  }

  Json rq2_json() const {
    Json out = Json::object();
    for (int t = 0; t < 2; ++t) {
      const study::Treatment arm =
          t == 0 ? study::Treatment::kHexRays : study::Treatment::kDirty;
      std::uint64_t answered = 0;
      double sum = 0.0;
      for (const Arrival& a : state_.window()) {
        if (a.treatment != arm || !a.answered) continue;
        ++answered;
        sum += a.seconds;
      }
      Json c = Json::object();
      set_count(c, "answered", answered);
      if (answered > 0)
        c.set("mean_seconds",
              Json::number(sum / static_cast<double>(answered)));
      out.set(t == 0 ? "hexrays" : "dirty", c);
    }
    Json l = Json::object();
    l.set("fitted", Json::boolean(have_lmm_));
    if (have_lmm_) {
      l.set("reml", Json::number(lmm_.reml_criterion));
      l.set("sigma_user", Json::number(lmm_.sigma_user));
      l.set("sigma_residual", Json::number(lmm_.sigma_residual));
      if (lmm_.coefficients.size() > 1) {
        l.set("treatment_estimate",
              Json::number(lmm_.coefficients[1].estimate));
        l.set("treatment_p", Json::number(lmm_.coefficients[1].p_value));
      }
    }
    out.set("lmm", l);
    return out;
  }

  Json rq3_json() const {
    Json out = Json::object();
    for (const bool name_scale : {true, false}) {
      std::vector<double> ratings[2];
      Json counts[2] = {Json::array(), Json::array()};
      for (int t = 0; t < 2; ++t) {
        const study::Treatment arm =
            t == 0 ? study::Treatment::kHexRays : study::Treatment::kDirty;
        const TreatmentCounts& wc = state_.window_counts(arm);
        for (int i = 0; i < 5; ++i) {
          const std::uint64_t n =
              name_scale ? wc.likert_name[i] : wc.likert_type[i];
          counts[t].push_back(Json::number(static_cast<double>(n)));
          for (std::uint64_t k = 0; k < n; ++k)
            ratings[t].push_back(static_cast<double>(i + 1));
        }
      }
      Json scale = Json::object();
      scale.set("hexrays_counts", counts[0]);
      scale.set("dirty_counts", counts[1]);
      set_wilcoxon(scale, ratings[1], ratings[0]);  // DIRTY vs Hex-Rays
      out.set(name_scale ? "name" : "type", scale);
    }
    return out;
  }

  Json rq4_json() const {
    // Perception vs performance over the DIRTY window arrivals that
    // filed an opinion: does a better (lower) rating go with being
    // right, and do trusting raters actually do better?
    std::vector<double> rating;
    std::vector<double> correct;
    std::vector<double> rating_correct;
    std::vector<double> rating_incorrect;
    for (const Arrival& a : state_.window()) {
      if (a.treatment != study::Treatment::kDirty || !a.has_opinion ||
          !a.gradeable)
        continue;
      const double mean_rating =
          (static_cast<double>(a.likert_name) +
           static_cast<double>(a.likert_type)) /
          2.0;
      rating.push_back(mean_rating);
      correct.push_back(a.correct ? 1.0 : 0.0);
      (a.correct ? rating_correct : rating_incorrect)
          .push_back(mean_rating);
    }
    Json out = Json::object();
    Json corr = Json::object();
    set_correlation(corr, rating, correct);
    out.set("rating_vs_correctness", corr);
    Json trust = Json::object();
    set_count(trust, "n_correct", rating_correct.size());
    set_count(trust, "n_incorrect", rating_incorrect.size());
    set_wilcoxon(trust, rating_correct, rating_incorrect);
    out.set("trust", trust);
    return out;
  }

  Json rq5_json() const {
    // Static-complexity family only: the embedding-backed RQ5 metrics
    // need a model the streaming path must not depend on, while the
    // structural metrics are a pure function of the snippet pool.
    ensure_complexity();
    std::vector<double> cyclomatic;
    std::vector<double> seconds;
    std::vector<double> entropy;
    std::vector<double> correct;
    for (const Arrival& a : state_.window()) {
      if (a.treatment != study::Treatment::kDirty) continue;
      if (a.snippet_index >= complexity_.size() ||
          !complexity_ok_[a.snippet_index])
        continue;
      const metrics::StaticComplexity& c = complexity_[a.snippet_index];
      if (a.answered) {
        cyclomatic.push_back(c.cyclomatic);
        seconds.push_back(a.seconds);
      }
      if (a.gradeable) {
        entropy.push_back(c.identifier_entropy);
        correct.push_back(a.correct ? 1.0 : 0.0);
      }
    }
    Json out = Json::object();
    Json time_corr = Json::object();
    set_correlation(time_corr, cyclomatic, seconds);
    out.set("cyclomatic_vs_seconds", time_corr);
    Json correct_corr = Json::object();
    set_correlation(correct_corr, entropy, correct);
    out.set("entropy_vs_correctness", correct_corr);
    return out;
  }

  void ensure_complexity() const {
    if (!complexity_.empty()) return;
    complexity_.reserve(pool_->size());
    complexity_ok_.reserve(pool_->size());
    for (const snippets::Snippet& s : *pool_) {
      try {
        complexity_.push_back(metrics::compute_static_complexity(
            s.dirty_source, s.parse_options));
        complexity_ok_.push_back(true);
      } catch (const std::exception&) {
        complexity_.push_back(metrics::StaticComplexity{});
        complexity_ok_.push_back(false);
      }
    }
  }

  const std::string id_;
  const StreamOptions options_;
  const util::FaultInjector* faults_;
  const std::vector<snippets::Snippet>* pool_;
  mutable std::mutex mutex_;
  WorkloadGenerator generator_;
  StreamState state_;
  std::uint64_t dropped_ = 0;
  std::uint64_t refit_attempts_ = 0;
  std::uint64_t refits_run_ = 0;
  std::uint64_t refits_faulted_ = 0;
  std::uint64_t refits_sparse_ = 0;
  std::uint64_t refit_failures_ = 0;
  bool have_glmm_ = false;
  bool have_lmm_ = false;
  mixed::GlmmFit glmm_;
  mixed::LmmFit lmm_;
  std::vector<std::string> notes_;
  /// Lazily computed per-snippet static complexity for the windowed RQ5.
  mutable std::vector<metrics::StaticComplexity> complexity_;
  mutable std::vector<bool> complexity_ok_;
};

// ---------------------------------------------------------------------------
// StreamEngine
// ---------------------------------------------------------------------------

StreamEngine::StreamEngine(const util::FaultInjector* faults,
                           const std::vector<snippets::Snippet>* pool)
    : faults_(faults),
      pool_(pool != nullptr ? pool : &snippets::study_snippets()) {}

StreamEngine::~StreamEngine() = default;

StreamSession* StreamEngine::find(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::optional<service::Json> StreamEngine::refusal(
    const service::Json& request) const {
  const std::string op =
      request.is_object() ? request.get_string("op", "") : "";
  try {
    const std::string id = request.get_string("stream", "");
    if (op == "stream_open") {
      if (id.empty())
        return bad_request("stream_open needs a string field 'stream'");
      parse_stream_options(request);
      return std::nullopt;
    }
    const StreamSession* session = find(id);
    if (session == nullptr) return no_such_stream(op, id);
    if (op != "stream_absorb") return std::nullopt;
    if (request.get("upto") == nullptr)
      return bad_request("stream_absorb needs a non-negative 'upto'");
    request.get_count("threads", 0);
    return session->refuse_absorb(request.get_count("upto", 0));
  } catch (const service::JsonError& e) {
    return bad_request(e.what());
  } catch (const std::exception& e) {
    return error_response(op, e.what());
  }
}

service::Json StreamEngine::pinned_command(service::Json command,
                                           const service::Json& answer) {
  if (command.get_string("op", "") == "stream_absorb")
    command.set("upto", Json::number(answer.get_number("emitted", 0.0)));
  return command;
}

service::Json StreamEngine::handle(const service::Json& request) {
  if (std::optional<Json> refused = refusal(request)) return *refused;
  const std::string op = request.get_string("op", "");
  try {
    if (op == "stream_open") return open_op(request);
    StreamSession* session = find(request.get_string("stream", ""));
    if (op == "stream_absorb")
      return session->absorb(request.get_count("upto", 0),
                             request.get_count("threads", 0));
    if (op == "stream_stats") return session->stats();
    if (op == "stream_dashboard") return session->dashboard();
    return bad_request("unknown stream op '" + op + "'");
  } catch (const service::JsonError& e) {
    return bad_request(e.what());
  } catch (const std::exception& e) {
    return error_response(op, e.what());
  }
}

service::Json StreamEngine::open_op(const service::Json& request) {
  const std::string id = request.get_string("stream", "");
  {
    // Idempotent re-open (journal replays re-issue the command): the
    // existing session answers; its config stays authoritative.
    StreamSession* existing = find(id);
    if (existing != nullptr) return existing->open_response(true);
  }
  auto session = std::make_unique<StreamSession>(
      id, parse_stream_options(request), faults_, pool_);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = sessions_.emplace(id, std::move(session));
  return it->second->open_response(!inserted);
}

SessionView StreamEngine::view(const std::string& stream_id) const {
  StreamSession* session = find(stream_id);
  if (session == nullptr)
    throw std::runtime_error("unknown stream '" + stream_id + "'");
  return session->view();
}

std::size_t StreamEngine::open_streams() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace decompeval::streaming
