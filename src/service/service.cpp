#include "service/service.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "core/replication.h"
#include "study/engine.h"
#include "util/check.h"

namespace decompeval::service {

namespace {

/// LRU bound on the result tier, in rendered lines.
constexpr std::size_t kResultCacheCapacity = 256;
/// LRU bound on the trained-embedding cache. Models are large, so only a
/// handful of (corpus, seed) configurations stay warm.
constexpr std::size_t kEmbedCacheCapacity = 4;
/// Cap on "corpus_sentences", ten times the served default: one cacheable
/// request trains an embedding on a corpus this size at most.
constexpr std::uint64_t kMaxCorpusSentences = 200000;
/// Total attempts (first try + retries) for transiently-faulted requests.
constexpr int kMaxAttempts = 3;
/// LRU bound on the annotation engine's per-function digest cache — the
/// incremental lane of the "annotate" op.
constexpr std::size_t kAnnotateCacheCapacity = 256;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Canonical digest of a study dataset: every field that analyses consume,
// serialized deterministically (doubles by bit pattern). Two datasets with
// equal digests are interchangeable inputs to the analysis layer, which is
// what the chaos suite's service-vs-offline bit-identity check relies on.
std::string study_digest(const study::StudyData& data) {
  std::ostringstream os;
  os << data.cohort.size() << '|' << data.n_questions << '|';
  for (const std::size_t id : data.excluded_participants) os << id << ',';
  os << '|';
  for (const auto& r : data.responses) {
    os << r.participant_id << ':' << r.snippet_index << ':'
       << r.question_index << ':' << static_cast<int>(r.treatment) << ':'
       << r.answered << r.gradeable << r.correct << ':';
    os.write(reinterpret_cast<const char*>(&r.seconds), sizeof r.seconds);
    os << ';';
  }
  os << '|';
  for (const auto& o : data.opinions) {
    os << o.participant_id << ':' << o.snippet_index << ':'
       << static_cast<int>(o.treatment) << ':';
    for (const int v : o.name_ratings) os << v << ',';
    os << ':';
    for (const int v : o.type_ratings) os << v << ',';
    os << ';';
  }
  return hex64(fnv1a(os.str()));
}

Json bad_request(std::string_view message) {
  return failure_response("bad_request", message);
}

}  // namespace

ServiceCore::ServiceCore(ServiceOptions options)
    : options_(std::move(options)),
      faults_(options_.fault_plan),
      result_cache_(kResultCacheCapacity),
      embed_cache_(kEmbedCacheCapacity),
      annotate_engine_(kAnnotateCacheCapacity) {}

ServiceStats ServiceCore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ServiceCore::note_status(const std::string& status) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (status == "ok") ++stats_.ok;
  else if (status == "degraded") ++stats_.degraded;
  else if (status == "deadline_exceeded") ++stats_.deadline_exceeded;
  else if (status == "bad_request") ++stats_.bad_requests;
  else ++stats_.errors;
}

Json ServiceCore::handle(const Json& request,
                         const std::atomic<bool>* cancel) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }
  bool cached = false;
  Json response;
  try {
    response = dispatch(request, cancel, cached);
  } catch (const util::DeadlineExceeded& e) {
    response = failure_response("deadline_exceeded", e.what());
    response.set("cancelled", Json::boolean(e.cancelled()));
  } catch (const JsonError& e) {
    response = bad_request(e.what());
  } catch (const std::exception& e) {
    // Backstop: no exception ever reaches the server loop.
    response = failure_response("error", e.what());
  }
  echo_op(response, request);
  const std::string status = response.get_string("status", "error");
  note_status(status);
  // The stored line is the final response, op echo included: every later
  // hit, at any tier reading this cache, replays exactly these bytes.
  if (!cached && status == "ok" && cacheable_request(request))
    result_cache_.put(request, response);
  return response;
}

bool ServiceCore::try_serve_cached_line(const Json& request, std::string& out) {
  if (!faults_.plan().empty() || !cacheable_request(request) ||
      !result_cache_.find(request, out))
    return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  ++stats_.ok;
  ++stats_.cache_hits;
  return true;
}

Json ServiceCore::dispatch(const Json& request,
                           const std::atomic<bool>* cancel, bool& cached) {
  if (!request.is_object()) return bad_request("request must be an object");
  const Json* opv = request.get("op");
  if (!opv || opv->type() != Json::Type::kString)
    return bad_request("missing string field 'op'");
  const std::string& op = opv->as_string();

  // Per-request deadline with the watchdog cancel flag attached. The
  // admission check makes an already-expired request cost nothing — it
  // never touches pipeline state.
  util::Deadline deadline;
  const double deadline_ms = request.get_number("deadline_ms", 0.0);
  if (deadline_ms > 0.0)
    deadline = util::Deadline::after(std::chrono::nanoseconds(
        static_cast<std::int64_t>(deadline_ms * 1e6)));
  deadline = deadline.with_cancel(cancel);
  deadline.check("request admission");

  if (op == "ping") {
    Json r = ok_response();
    r.set("version", Json::string(core::version()));
    return r;
  }
  if (op == "stats") {
    const ServiceStats s = stats();
    Json r = ok_response();
    set_count(r, "requests", s.requests);
    set_count(r, "ok", s.ok);
    set_count(r, "degraded", s.degraded);
    set_count(r, "errors", s.errors);
    set_count(r, "bad_requests", s.bad_requests);
    set_count(r, "deadline_exceeded", s.deadline_exceeded);
    set_count(r, "retries", s.retries);
    set_count(r, "cache_hits", s.cache_hits);
    return r;
  }
  if (op == "cache_stats") {
    Json r = ok_response();
    set_count(r, "result_cache_size", result_cache_.size());
    set_count(r, "result_cache_capacity", result_cache_.capacity());
    set_count(r, "result_cache_evictions", result_cache_.evictions());
    set_count(r, "cache_hits", stats().cache_hits);
    {
      const std::lock_guard<std::mutex> lock(embed_mutex_);
      set_count(r, "embed_cache_size", embed_cache_.size());
      set_count(r, "embed_cache_capacity", embed_cache_.capacity());
      set_count(r, "embed_cache_evictions", embed_cache_.evictions());
    }
    {
      // Engine hit/miss counters live here and only here: placing them in
      // annotate responses would break warm-vs-cold bit-identity.
      const auto s = annotate_engine_.cache_stats();
      set_count(r, "annotate_cache_size", s.size);
      set_count(r, "annotate_cache_capacity", s.capacity);
      set_count(r, "annotate_cache_evictions", s.evictions);
      set_count(r, "annotate_cache_hits", s.hits);
      set_count(r, "annotate_cache_misses", s.misses);
    }
    return r;
  }
  const OpSpec* spec = find_op(op);
  if (spec == nullptr || !spec->cacheable)
    return bad_request("unknown op '" + op + "'");

  maybe_stall(deadline);

  // Transient-fault retry loop with exponential backoff. Only FaultError
  // is transient; degraded results and numerical failures are answers,
  // not reasons to retry.
  double backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0;; ++attempt) {
    try {
      faults_.raise_next("service.request");
      // The result tier sits behind both fault sites, so a warm repeat
      // consumes exactly the site hits a cold one does.
      thread_local std::string line;
      line.clear();
      if (cacheable_request(request) && result_cache_.find(request, line)) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.cache_hits;
        }
        cached = true;
        return Json::parse(line);
      }
      if (op == "annotate") return annotate_op(request, deadline);
      return op == "run_study" ? run_study_op(request, deadline)
                               : run_replication_op(request, deadline);
    } catch (const util::FaultError& e) {
      if (attempt + 1 >= kMaxAttempts) {
        Json r = failure_response(
            "error", std::string("retry budget exhausted: ") + e.what());
        r.set("attempts", Json::number(attempt + 1));
        return r;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.retries;
      }
      deadline.check("retry backoff");
      if (backoff_ms > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_ms));
      backoff_ms *= 2.0;
    }
  }
}

void ServiceCore::maybe_stall(const util::Deadline& deadline) {
  if (!faults_.fire_next("service.stall")) return;
  // Simulated wedged worker: spin at a cooperative checkpoint until the
  // watchdog or the deadline kills the request. stall_max_ms bounds the
  // spin so a plan without a watchdog still terminates.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.stall_max_ms);
  while (std::chrono::steady_clock::now() < until) {
    deadline.check("service.stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Json ServiceCore::run_study_op(const Json& request,
                               const util::Deadline& deadline) {
  study::StudyConfig config;
  config.seed = request.get_count("seed", 68);
  config.threads = request.get_count("threads", 0);
  config.faults = &faults_;
  config.deadline = deadline;

  const study::StudyData data = study::run_study(config);

  Json r = Json::object();
  r.set("status", Json::string(data.degraded ? "degraded" : "ok"));
  r.set("digest", Json::string(study_digest(data)));
  set_count(r, "recruited", data.cohort.size());
  set_count(r, "responses", data.responses.size());
  set_count(r, "excluded", data.excluded_participants.size());
  if (data.degraded) {
    r.set("notes", string_array(data.degradation_notes));
    Json failed = Json::array();
    for (const std::size_t id : data.failed_shards)
      failed.push_back(Json::number(static_cast<double>(id)));
    r.set("failed_shards", failed);
  }
  return r;
}

Json ServiceCore::run_replication_op(const Json& request,
                                     const util::Deadline& deadline) {
  core::ReplicationConfig config;
  config.seed = request.get_count("seed", 68);
  config.threads = request.get_count("threads", 0);
  config.run_models = request.get_bool("run_models", true);
  config.run_metrics = request.get_bool("run_metrics", false);
  config.embedding_corpus_sentences = request.get_positive_count(
      "corpus_sentences", 20000, kMaxCorpusSentences);
  config.embedding_corpus_seed = request.get_count("corpus_seed", 42);
  config.faults = &faults_;
  config.deadline = deadline;
  if (config.run_metrics)
    config.embedding_model =
        embedding_for(config.embedding_corpus_sentences,
                      config.embedding_corpus_seed, config.threads);

  const core::ReplicationReport report = core::run_replication(config);

  Json r = Json::object();
  r.set("status", Json::string(report.degraded ? "degraded" : "ok"));
  r.set("digest", Json::string(hex64(fnv1a(report.rendered))));
  set_count(r, "rendered_bytes", report.rendered.size());
  set_count(r, "recruited", report.data.cohort.size());
  set_count(r, "excluded", report.data.excluded_participants.size());
  if (request.get_bool("include_rendered", false))
    r.set("rendered", Json::string(report.rendered));
  if (report.degraded) {
    r.set("notes", string_array(report.degradation_notes));
  }
  return r;
}

Json ServiceCore::annotate_op(const Json& request,
                              const util::Deadline& deadline) {
  const Json* src = request.get("source");
  if (src == nullptr || src->type() != Json::Type::kString)
    return bad_request("annotate requires string field 'source'");
  const std::string& source = src->as_string();

  analysis_service::AnnotateOptions opts;
  opts.threads = request.get_count("threads", 0);
  opts.faults = &faults_;
  if (const Json* typedefs = request.get("typedefs");
      typedefs != nullptr && typedefs->type() == Json::Type::kArray) {
    for (const Json& t : typedefs->items())
      if (t.type() == Json::Type::kString)
        opts.parse_options.typedef_names.insert(t.as_string());
  }

  deadline.check("annotate");
  const analysis_service::AnnotationResult result =
      annotate_engine_.annotate(source, opts);

  const auto span_json = [](const lang::SourceSpan& s) {
    Json o = Json::object();
    set_count(o, "begin", s.begin);
    set_count(o, "end", s.end);
    o.set("line", Json::number(s.line));
    o.set("col", Json::number(s.col));
    return o;
  };

  Json r = Json::object();
  r.set("status", Json::string(result.degraded ? "degraded" : "ok"));
  r.set("digest", Json::string(hex64(fnv1a(source))));
  Json functions = Json::array();
  std::size_t n_annotations = 0;
  Json notes = Json::array();
  for (const auto& f : result.functions) {
    Json fo = Json::object();
    fo.set("name", Json::string(f.name));
    fo.set("digest", Json::string(f.digest));
    fo.set("parsed", Json::boolean(f.parsed));
    fo.set("span", span_json(f.span));
    if (f.degraded) fo.set("degraded", Json::boolean(true));
    if (!f.note.empty()) fo.set("note", Json::string(f.note));
    Json annotations = Json::array();
    for (const auto& a : f.annotations) {
      Json ao = Json::object();
      ao.set("kind", Json::string(a.kind));
      ao.set("code", Json::string(a.code));
      if (!a.symbol.empty()) ao.set("symbol", Json::string(a.symbol));
      ao.set("span", span_json(a.span));
      ao.set("message", Json::string(a.message));
      annotations.push_back(std::move(ao));
      ++n_annotations;
    }
    fo.set("annotations", std::move(annotations));
    functions.push_back(std::move(fo));
    if (f.degraded)
      notes.push_back(Json::string("function #" +
                                   std::to_string(&f - result.functions.data()) +
                                   " degraded: " + f.note));
  }
  set_count(r, "n_functions", result.functions.size());
  set_count(r, "n_annotations", n_annotations);
  r.set("functions", std::move(functions));
  // Genuine parse errors are deterministic properties of the source and
  // answer "ok" (cached like any ok result); only injected-fault
  // degradation marks the response degraded.
  if (result.degraded) r.set("notes", std::move(notes));
  return r;
}

std::shared_ptr<const embed::EmbeddingModel> ServiceCore::embedding_for(
    std::size_t sentences, std::uint64_t seed, std::size_t threads) {
  const std::string key =
      std::to_string(sentences) + "|" + std::to_string(seed);
  const std::lock_guard<std::mutex> lock(embed_mutex_);
  if (const auto* hit = embed_cache_.find(key)) return *hit;
  embed::EmbeddingOptions options;
  options.threads = threads;
  options.faults = &faults_;
  auto model = std::make_shared<const embed::EmbeddingModel>(
      embed::EmbeddingModel::train_default(sentences, seed, options));
  // A model with quarantined trainer shards is an answer for this request
  // (the response will be marked degraded) but is never cached.
  if (!model->degraded()) embed_cache_.put(key, model);
  return model;
}

}  // namespace decompeval::service
