#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <stdexcept>
#include <thread>

#include "service/service.h"
#include "streaming/engine.h"

namespace clusterbench {

namespace service = decompeval::service;

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

std::uint64_t stream_state(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x100000001B3ULL + salt;
  splitmix(s);
  return s;
}

Json number(double v) { return Json::number(v); }

Json op(const char* name) {
  Json r = Json::object();
  r.set("op", Json::string(name));
  return r;
}

std::string stream_id(int client) { return "stream-" + std::to_string(client); }

// Runs fn(i) for every i in [0, n) on up to four threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const std::size_t width = std::min<std::size_t>(4, n);
  for (std::size_t t = 0; t < width; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (auto& t : threads) t.join();
}

// Re-answers each request with one shared standalone ServiceCore.
std::map<std::uint64_t, Answered> core_oracle(
    const std::vector<std::uint64_t>& ids,
    const std::function<Json(std::uint64_t)>& request_of) {
  service::ServiceCore core;
  std::vector<Answered> answers(ids.size());
  parallel_for(ids.size(), [&](std::size_t i) {
    answers[i].request = request_of(ids[i]);
    answers[i].response = core.handle(answers[i].request).dump();
  });
  std::map<std::uint64_t, Answered> out;
  for (std::size_t i = 0; i < ids.size(); ++i)
    out.emplace(ids[i], std::move(answers[i]));
  return out;
}

// --------------------------------------------------------------------------
// study_reads: closed loop, run_study with Zipf(1.1) seeds over 2000 keys.
// --------------------------------------------------------------------------
class StudyReads final : public Workload {
 public:
  static constexpr std::size_t kKeys = 2000;
  static constexpr double kExponent = 1.1;
  static constexpr std::size_t kWarmKeys = kKeys * 9 / 10;

  explicit StudyReads(std::uint64_t seed) : seed_(seed) {
    double total = 0.0;
    for (std::size_t rank = 0; rank < kKeys; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kExponent);
      cdf_.push_back(total);
      requests_.push_back(request(rank));
    }
    for (double& c : cdf_) c /= total;
    restart();
  }

  const char* name() const override { return "study_reads"; }
  double tail_quantile() const override { return 0.9; }

  void restart() override {
    rng_.clear();
    for (int c = 0; c < clients(); ++c)
      rng_.push_back(stream_state(seed_, 100 + c));
  }

  // Warms every cache tier with all but the coldest tenth of the key
  // space, so the window starts near steady state and its misses come
  // from first touches of cold keys.
  void prewarm(
      const std::vector<std::unique_ptr<service::ServiceClient>>& clients,
      const std::vector<std::string>&, PhaseCount& phase) override {
    std::vector<PhaseCount> counts(clients.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c)
      threads.emplace_back([&, c] {
        for (std::size_t rank = c; rank < kWarmKeys; rank += clients.size()) {
          try {
            counts[c].note(clients[c]->call(requests_[rank]));
          } catch (const std::exception&) {
            counts[c].note_transport_failure();
          }
        }
      });
    for (auto& t : threads) t.join();
    for (const PhaseCount& c : counts) phase += c;
  }

  bool next(int client, Step& step) override {
    const double u = uniform(rng_[client]);
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    step.id = std::min(rank, kKeys - 1);
    step.request = &requests_[step.id];
    return true;
  }

  std::map<std::uint64_t, Answered> oracle(
      const std::vector<std::uint64_t>& ids) override {
    return core_oracle(ids, [this](std::uint64_t id) { return request(id); });
  }

 private:
  Json request(std::uint64_t rank) const {
    Json r = op("run_study");
    r.set("seed", number(static_cast<double>(study_seed_for_rank(seed_, rank))));
    return r;
  }

  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<Json> requests_;
  std::vector<std::uint64_t> rng_;
};

// --------------------------------------------------------------------------
// replication_sweep: closed loop, run_replication with metrics, every seed
// new.
// --------------------------------------------------------------------------
class ReplicationSweep final : public Workload {
 public:
  /// Seeds per client; a run sends about a third of them.
  static constexpr std::size_t kSeedsPerClient = 96;

  // Some seeds' studies leave a paper figure with too few data points, and
  // run_replication answers "error" for them. Each candidate first runs
  // without models and metrics, which builds the same study and figures
  // in milliseconds, and seeds that fail there are never sent.
  explicit ReplicationSweep(std::uint64_t seed)
      : seeds_(static_cast<std::size_t>(clients())) {
    service::ServiceCore screen;
    parallel_for(seeds_.size(), [&](std::size_t c) {
      for (std::uint64_t k = 0; seeds_[c].size() < kSeedsPerClient; ++k) {
        const std::uint64_t s = replication_seed(seed, static_cast<int>(c), k);
        Json probe = request(s);
        probe.set("run_models", Json::boolean(false));
        probe.set("run_metrics", Json::boolean(false));
        if (screen.handle(probe).get_string("status", "") == "ok")
          seeds_[c].push_back(s);
      }
    });
    restart();
  }

  const char* name() const override { return "replication_sweep"; }
  double tail_quantile() const override { return 0.8; }

  void restart() override {
    sent_.assign(static_cast<std::size_t>(clients()), 0);
    current_.assign(static_cast<std::size_t>(clients()), Json());
  }

  // Trains each backend's embedding model: one metrics-only replication
  // per backend, sent straight to its socket, all three at once.
  void prewarm(const std::vector<std::unique_ptr<service::ServiceClient>>&,
               const std::vector<std::string>& backend_sockets,
               PhaseCount& phase) override {
    std::vector<PhaseCount> counts(backend_sockets.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < backend_sockets.size(); ++i)
      threads.emplace_back([&, i] {
        Json r = op("run_replication");
        r.set("seed", number(static_cast<double>(1 + i)));
        r.set("run_models", Json::boolean(false));
        r.set("run_metrics", Json::boolean(true));
        try {
          service::ServiceClient client;
          client.connect(backend_sockets[i]);
          counts[i].note(client.call(r));
        } catch (const std::exception&) {
          counts[i].note_transport_failure();
        }
      });
    for (auto& t : threads) t.join();
    for (const PhaseCount& c : counts) phase += c;
  }

  bool next(int client, Step& step) override {
    if (sent_[client] >= seeds_[client].size()) return false;
    const std::uint64_t s = seeds_[client][sent_[client]++];
    current_[client] = request(s);
    step.request = &current_[client];
    step.id = s;
    return true;
  }

  std::map<std::uint64_t, Answered> oracle(
      const std::vector<std::uint64_t>& ids) override {
    return core_oracle(ids, [](std::uint64_t id) { return request(id); });
  }

 private:
  static Json request(std::uint64_t s) {
    Json r = op("run_replication");
    r.set("seed", number(static_cast<double>(s)));
    r.set("run_metrics", Json::boolean(true));
    return r;
  }

  std::vector<std::vector<std::uint64_t>> seeds_;
  std::vector<std::uint64_t> sent_;
  std::vector<Json> current_;
};

// --------------------------------------------------------------------------
// annotate_edits: open loop, Poisson arrivals over four editing sessions.
// --------------------------------------------------------------------------
class AnnotateEdits final : public Workload {
 public:
  /// Offered load, requests per second over all four sessions.
  static constexpr double kRate = 80.0;

  explicit AnnotateEdits(std::uint64_t seed) : seed_(seed) { restart(); }

  const char* name() const override { return "annotate_edits"; }
  bool open_loop() const override { return true; }
  double tail_quantile() const override { return 0.9; }

  void restart() override {
    sessions_.clear();
    clocks_.clear();
    due_ns_.assign(static_cast<std::size_t>(clients()), 0.0);
    sent_.assign(static_cast<std::size_t>(clients()), {});
    ids_.assign(static_cast<std::size_t>(clients()), {});
    for (int c = 0; c < clients(); ++c) {
      sessions_.emplace_back(seed_, c);
      clocks_.push_back(stream_state(seed_, 200 + c));
    }
  }

  void prewarm(
      const std::vector<std::unique_ptr<service::ServiceClient>>& clients,
      const std::vector<std::string>&, PhaseCount& phase) override {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      try {
        phase.note(clients[c]->call(sessions_[c].anchor()));
      } catch (const std::exception&) {
        phase.note_transport_failure();
      }
    }
  }

  bool next(int client, Step& step) override {
    const double per_session = kRate / clients();
    due_ns_[client] += -std::log(1.0 - uniform(clocks_[client])) /
                       per_session * 1e9;
    bool repeat = false;
    Json request = sessions_[client].next(nullptr, &repeat);
    auto& sent = sent_[client];
    auto& ids = ids_[client];
    const std::uint64_t id =
        repeat && !ids.empty()
            ? ids.back()
            : (static_cast<std::uint64_t>(client) << 32) | sent.size();
    sent.push_back(std::move(request));
    ids.push_back(id);
    step.request = &sent.back();
    step.id = id;
    step.due_ns = static_cast<std::int64_t>(due_ns_[client]);
    return true;
  }

  std::map<std::uint64_t, Answered> oracle(
      const std::vector<std::uint64_t>& ids) override {
    return core_oracle(ids, [this](std::uint64_t id) {
      return sent_[id >> 32][id & 0xffffffffULL];
    });
  }

 private:
  std::uint64_t seed_;
  std::vector<EditSession> sessions_;
  std::vector<std::uint64_t> clocks_;
  std::vector<double> due_ns_;
  std::vector<std::deque<Json>> sent_;
  std::vector<std::vector<std::uint64_t>> ids_;
};

// --------------------------------------------------------------------------
// stream_ingest: closed loop, one stream per client, absorb then dashboards.
// --------------------------------------------------------------------------
class StreamIngest final : public Workload {
 public:
  explicit StreamIngest(std::uint64_t seed) : seed_(seed) { restart(); }

  const char* name() const override { return "stream_ingest"; }
  double tail_quantile() const override { return 0.9; }

  void restart() override {
    steps_.assign(static_cast<std::size_t>(clients()), 0);
    current_.assign(static_cast<std::size_t>(clients()), Json());
  }

  void prewarm(
      const std::vector<std::unique_ptr<service::ServiceClient>>& clients,
      const std::vector<std::string>&, PhaseCount& phase) override {
    std::vector<PhaseCount> counts(clients.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c)
      threads.emplace_back([&, c] {
        for (const Json& request :
             stream_setup_requests(seed_, static_cast<int>(c))) {
          try {
            counts[c].note(clients[c]->call(request));
          } catch (const std::exception&) {
            counts[c].note_transport_failure();
          }
        }
      });
    for (auto& t : threads) t.join();
    for (const PhaseCount& c : counts) phase += c;
  }

  bool next(int client, Step& step) override {
    const std::uint64_t k = steps_[client]++;
    current_[client] = stream_step_request(client, k);
    step.request = &current_[client];
    step.id = (static_cast<std::uint64_t>(client) << 32) | k;
    step.probe = !stream_step_absorbs(k);
    return true;
  }

  // Replays each stream's whole prefix on one local StreamEngine: stream
  // answers depend on every earlier write, so no step is answered alone.
  std::map<std::uint64_t, Answered> oracle(
      const std::vector<std::uint64_t>& ids) override {
    std::vector<std::uint64_t> last(static_cast<std::size_t>(clients()), 0);
    std::vector<bool> used(static_cast<std::size_t>(clients()), false);
    for (const std::uint64_t id : ids) {
      const std::size_t c = id >> 32;
      used[c] = true;
      last[c] = std::max<std::uint64_t>(last[c], id & 0xffffffffULL);
    }
    decompeval::streaming::StreamEngine engine;
    std::vector<std::vector<Answered>> replies(used.size());
    parallel_for(used.size(), [&](std::size_t c) {
      if (!used[c]) return;
      for (const Json& request :
           stream_setup_requests(seed_, static_cast<int>(c)))
        engine.handle(request);
      for (std::uint64_t k = 0; k <= last[c]; ++k) {
        Answered a;
        a.request = stream_step_request(static_cast<int>(c), k);
        a.response = engine.handle(a.request).dump();
        replies[c].push_back(std::move(a));
      }
    });
    std::map<std::uint64_t, Answered> out;
    for (const std::uint64_t id : ids)
      out.emplace(id, replies[id >> 32][id & 0xffffffffULL]);
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint64_t> steps_;
  std::vector<Json> current_;
};

}  // namespace

// --- shared generators -----------------------------------------------------

std::uint64_t study_seed_for_rank(std::uint64_t seed, std::uint64_t rank) {
  // 7919 is prime, so rank -> (rank * 7919) mod 2000 is a bijection: the
  // popular ranks land on scattered study seeds, a fresh range per seed.
  const std::uint64_t keys = StudyReads::kKeys;
  return 1 + (seed % 100000) * keys + (rank * 7919) % keys;
}

std::uint64_t replication_seed(std::uint64_t seed, int client,
                               std::uint64_t k) {
  return 1000000 + (seed % 100000) * 100000 + k * 4 +
         static_cast<std::uint64_t>(client);
}

std::string render_function(int shape, const std::string& name,
                            std::uint64_t version) {
  const std::string k = std::to_string(version);
  switch (shape) {
    case 0:
      return "int " + name + "(int a1, int a2) {\n  int v5 = 0;\n"
             "  for (int i = 0; i < a2; i = i + 1) { v5 = v5 + a1; }\n"
             "  return v5 + " + k + ";\n}\n\n";
    case 1:
      return "int " + name + "(int *a1, int a2) {\n  int v3;\n"
             "  int v4 = " + k + ";\n"
             "  if (a2 > 0) { v3 = a1[0] + v4; } else { v3 = v4 - a2; }\n"
             "  while (v3 > 100) { v3 = v3 / 2; }\n  return v3;\n}\n\n";
    case 2:
      return "int " + name + "(int a1) {\n  int v1 = a1;\n  int v2 = v1;\n"
             "  int v3 = " + k + " * 2;\n  int v4 = v2 + v3;\n"
             "  return v4;\n}\n\n";
    default:
      return "int " + name + "(char *a1, int a2) {\n  int v6 = 0;\n"
             "  int i;\n  for (i = 0; i < a2; i = i + 1) {\n"
             "    if (a1[i] == " + std::to_string(version % 128) + ") {"
             " v6 = v6 + 1; }\n  }\n  return v6;\n}\n\n";
  }
}

EditSession::EditSession(std::uint64_t seed, int session)
    : rng_state_(stream_state(seed, 300 + static_cast<std::uint64_t>(session))),
      session_(session) {
  new_document();
  anchor_ = op("annotate");
  anchor_.set("source", Json::string(text_));
  previous_ = anchor_;
}

void EditSession::new_document() {
  functions_.clear();
  const std::uint64_t n = 8 + splitmix(rng_state_) % 17;
  for (std::uint64_t i = 0; i < n; ++i) {
    Function f;
    f.shape = static_cast<int>(splitmix(rng_state_) % 4);
    f.id = next_function_id_++;
    f.version = splitmix(rng_state_) % 1000;
    functions_.push_back(f);
  }
  text_ = render();
}

std::string EditSession::render() const {
  std::string text;
  for (const Function& f : functions_)
    text += render_function(
        f.shape,
        "s" + std::to_string(session_) + "_f" + std::to_string(f.id),
        f.version);
  return text;
}

Json EditSession::next(std::string* edited_function, bool* repeat) {
  const std::uint64_t roll = splitmix(rng_state_) % 100;
  *repeat = roll < 5;
  if (edited_function != nullptr) edited_function->clear();
  if (*repeat) return previous_;
  Json request = op("annotate");
  if (roll < 15) {
    new_document();
    request.set("source", Json::string(text_));
  } else {
    const std::string baseline = text_;
    Function& f = functions_[splitmix(rng_state_) % functions_.size()];
    f.version += 1 + splitmix(rng_state_) % 7;
    text_ = render();
    request.set("source", Json::string(text_));
    request.set("baseline", Json::string(baseline));
    if (edited_function != nullptr)
      *edited_function = render_function(
          f.shape,
          "s" + std::to_string(session_) + "_f" + std::to_string(f.id),
          f.version);
  }
  previous_ = request;
  return request;
}

std::vector<Json> stream_setup_requests(std::uint64_t seed, int client) {
  Json r = op("stream_open");
  r.set("stream", Json::string(stream_id(client)));
  r.set("seed", number(static_cast<double>((seed % 100000) * 8 +
                                           static_cast<std::uint64_t>(client))));
  r.set("refit_every", number(static_cast<double>(kStreamRefitEvery)));
  Json fill = op("stream_absorb");
  fill.set("stream", Json::string(stream_id(client)));
  fill.set("upto", number(static_cast<double>(kStreamFill)));
  return {r, fill};
}

bool stream_step_absorbs(std::uint64_t step) {
  return step % kStreamCycle == 0;
}

Json stream_step_request(int client, std::uint64_t step) {
  if (!stream_step_absorbs(step)) {
    Json r = op("stream_dashboard");
    r.set("stream", Json::string(stream_id(client)));
    return r;
  }
  Json r = op("stream_absorb");
  r.set("stream", Json::string(stream_id(client)));
  r.set("upto", number(static_cast<double>(
                    kStreamFill + (step / kStreamCycle + 1) * kStreamBatch)));
  return r;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "study_reads") return std::make_unique<StudyReads>(seed);
  if (name == "replication_sweep")
    return std::make_unique<ReplicationSweep>(seed);
  if (name == "annotate_edits") return std::make_unique<AnnotateEdits>(seed);
  if (name == "stream_ingest") return std::make_unique<StreamIngest>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace clusterbench
