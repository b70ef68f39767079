// Streaming study engine walkthrough.
//
//   ./streaming_demo [journal_dir]
//
// Opens a bursty live-population stream on an in-process, journaled
// cluster backend, absorbs arrivals in waves while printing the windowed
// RQ dashboard after each wave, then simulates a crash: the backend is
// destroyed and a fresh one on the same journal re-warms through
// "journal_replay". The rebuilt stream reports the same digest and the
// same dashboard bytes as the one that "crashed" — the streamed run
// replays bit-for-bit from the journaled stream writes. The exit status
// is 1 when either differs, so a check script can run the walkthrough.
//
// Everything is deterministic: run it twice and every line (digests,
// RQ numbers, window sizes) is byte-identical.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "cluster/backend.h"
#include "service/json.h"

using namespace decompeval;
using service::Json;

namespace {

Json open_request() {
  Json req = Json::object();
  req.set("op", Json::string("stream_open"));
  req.set("stream", Json::string("live"));
  req.set("process", Json::string("bursty"));
  req.set("rate_per_s", Json::number(120.0));
  req.set("population", Json::number(24));
  req.set("window_events", Json::number(256));
  req.set("refit_every", Json::number(200));
  req.set("fit_starts", Json::number(2));
  return req;
}

// Absorbs up to the absolute target `upto`, the only form an absorb takes:
// a retried or replayed one asks for nothing twice.
Json absorb_request(std::uint64_t upto) {
  Json req = Json::object();
  req.set("op", Json::string("stream_absorb"));
  req.set("stream", Json::string("live"));
  req.set("upto", Json::number(static_cast<double>(upto)));
  return req;
}

Json stream_request(const char* op) {
  Json req = Json::object();
  req.set("op", Json::string(op));
  req.set("stream", Json::string("live"));
  return req;
}

void print_dashboard(const Json& dash) {
  std::cout << "  window=" << dash.get_number("window", 0)
            << " arrivals (virtual t="
            << dash.get_number("virtual_us", 0) / 1e6 << "s)\n";
  const Json* rq1 = dash.get("rq1");
  if (rq1 != nullptr) {
    const Json* hex = rq1->get("hexrays");
    const Json* dirty = rq1->get("dirty");
    if (hex != nullptr && dirty != nullptr)
      std::cout << "  rq1 correctness: hexrays="
                << hex->get_number("correct", 0) << "/"
                << hex->get_number("gradeable", 0) << "  dirty="
                << dirty->get_number("correct", 0) << "/"
                << dirty->get_number("gradeable", 0) << "\n";
    const Json* glmm = rq1->get("glmm");
    if (glmm != nullptr && glmm->get_bool("fitted", false))
      std::cout << "  rq1 glmm: treatment=" <<
          glmm->get_number("treatment_estimate", 0)
                << " p=" << glmm->get_number("treatment_p", 1) << "\n";
  }
  const Json* rq2 = dash.get("rq2");
  if (rq2 != nullptr) {
    const Json* lmm = rq2->get("lmm");
    if (lmm != nullptr && lmm->get_bool("fitted", false))
      std::cout << "  rq2 lmm: treatment_seconds="
                << lmm->get_number("treatment_estimate", 0)
                << " p=" << lmm->get_number("treatment_p", 1) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string journal_dir =
      argc > 1 ? argv[1]
               : "/tmp/decompeval-streaming-" + std::to_string(::getpid());
  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);

  // --- first life: open, absorb in waves, watch the dashboard ------------
  cluster::ClusterBackendOptions options;
  options.journal.path = journal_dir + "/commands.journal";
  auto backend = std::make_unique<cluster::ClusterBackend>(options);

  Json opened = backend->handle(open_request(), nullptr);
  std::cout << "opened stream 'live': " << opened.get_string("status", "?")
            << " (bursty arrivals, 256-event window, refit every 200)\n";

  for (int wave = 1; wave <= 3; ++wave) {
    const Json r = backend->handle(absorb_request(250 * wave), nullptr);
    std::cout << "\n--- wave " << wave << ": absorbed up to "
              << r.get_number("emitted", 0) << " arrivals (refits run: "
              << r.get_number("refits_run", 0) << ") ---\n";
    print_dashboard(backend->handle(stream_request("stream_dashboard"), nullptr));
  }

  const Json before = backend->handle(stream_request("stream_stats"), nullptr);
  const std::string digest_before = before.get_string("digest", "?");
  const std::string dashboard_before =
      backend->handle(stream_request("stream_dashboard"), nullptr).dump();
  std::cout << "\nstate digest before crash: " << digest_before << "\n";

  // --- crash + re-warm: the journal replays bit-for-bit -----------------
  std::cout << "\n--- simulated crash: backend destroyed, fresh one "
               "replays the journal ---\n";
  backend.reset();
  backend = std::make_unique<cluster::ClusterBackend>(options);
  Json replay = Json::object();
  replay.set("op", Json::string("journal_replay"));
  const Json report = backend->handle(replay, nullptr);
  std::cout << "journal_replay: records=" << report.get_number("records", 0)
            << " replayed=" << report.get_number("replayed", 0)
            << " failures=" << report.get_number("failures", 0) << " from "
            << options.journal.path << "\n";

  const Json after = backend->handle(stream_request("stream_stats"), nullptr);
  const std::string digest_after = after.get_string("digest", "?");
  const std::string dashboard_after =
      backend->handle(stream_request("stream_dashboard"), nullptr).dump();
  const bool identical =
      digest_after == digest_before && dashboard_after == dashboard_before;
  std::cout << "state digest after replay:  " << digest_after << "\n";
  std::cout << "dashboard bytes after replay "
            << (dashboard_after == dashboard_before ? "match" : "DIFFER")
            << " (" << dashboard_after.size() << " B)\n";
  std::cout << "replay bit-identical: " << (identical ? "yes" : "NO — BUG")
            << "\n";

  // The rebuilt stream keeps absorbing from where the journal left off.
  const Json more = backend->handle(absorb_request(850), nullptr);
  std::cout << "\nabsorbed 100 more after replay: emitted="
            << more.get_number("emitted", 0)
            << " status=" << more.get_string("status", "?") << "\n";

  std::filesystem::remove_all(journal_dir);
  return identical ? 0 : 1;
}
