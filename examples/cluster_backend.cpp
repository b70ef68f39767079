// Standalone cluster backend: one ClusterBackend (ServiceCore + disk
// cache + command journal) served on a Unix socket. This is the binary
// the Supervisor fork/execs — exec'ing a fresh single-purpose process is
// the only sanitizer-safe way to supervise children from multithreaded
// test binaries (fork without exec in a threaded TSan process is UB).
//
//   ./cluster_backend --socket PATH [--cache-dir DIR] [--journal PATH]
//                     [--max-bytes N] [--workers N] [--id NAME]
//                     [--exit-after-requests N] [--wedge-after-requests N]
//
// Chaos hooks (both count *work* ops only — run_study/run_replication —
// so pings and introspection never consume the budget):
//   --exit-after-requests N   _Exit(9) *before answering* the Nth work
//                             request: a deterministic kill -9 mid-stream
//   --wedge-after-requests N  the Nth and every later work request blocks
//                             forever: alive for waitpid, dead to pings
//                             (run with --workers 1 so the wedge also
//                             starves the ping path)
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "cluster/backend.h"
#include "core/replication.h"
#include "service/server.h"

using namespace decompeval;
using service::Json;

namespace {

bool work_op(const Json& request) {
  const std::string op = request.is_object()
                             ? request.get_string("op", "")
                             : std::string();
  return op == "run_study" || op == "run_replication";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string cache_dir;
  std::string journal_path;
  std::string id = "backend";
  std::uint64_t max_bytes = 0;
  int workers = 2;
  std::uint64_t exit_after = 0;
  std::uint64_t wedge_after = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << id << ": missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket")
      socket_path = value();
    else if (arg == "--cache-dir")
      cache_dir = value();
    else if (arg == "--journal")
      journal_path = value();
    else if (arg == "--max-bytes")
      max_bytes = std::stoull(value());
    else if (arg == "--workers")
      workers = std::stoi(value());
    else if (arg == "--id")
      id = value();
    else if (arg == "--exit-after-requests")
      exit_after = std::stoull(value());
    else if (arg == "--wedge-after-requests")
      wedge_after = std::stoull(value());
    else {
      std::cerr << id << ": unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "usage: cluster_backend --socket PATH [--cache-dir DIR]"
                 " [--journal PATH] [--max-bytes N] [--workers N] [--id NAME]"
                 " [--exit-after-requests N] [--wedge-after-requests N]\n";
    return 2;
  }

  cluster::ClusterBackendOptions backend_options;
  backend_options.cache.directory = cache_dir;
  backend_options.cache.version = core::version();
  backend_options.cache.max_bytes = max_bytes;
  backend_options.journal.path = journal_path;
  // The chaos hooks count handled requests, so no fast path is wired into
  // the server: every request reaches the handler.
  cluster::ClusterBackend backend(backend_options);

  auto inner = backend.handler();
  std::atomic<std::uint64_t> work_seen{0};

  service::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = workers;
  options.handler = [&](const Json& request,
                        const std::atomic<bool>* cancel) -> Json {
    if (work_op(request)) {
      const std::uint64_t n = work_seen.fetch_add(1) + 1;
      // Dies before the handler runs: the caller sees a torn
      // connection, exactly like kill -9 between accept and reply. Work
      // ops are never journaled, so the restart replays nothing of it.
      if (exit_after > 0 && n == exit_after) std::_Exit(9);
      if (wedge_after > 0 && n >= wedge_after)
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return inner(request, cancel);
  };
  service::ReplicationServer server(options);
  server.start();
  while (server.running())
    ::usleep(20 * 1000);  // the "shutdown" op stops the server
  server.stop();
  return 0;
}
