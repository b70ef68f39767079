// Sharded, replicated cluster with supervised backend processes.
//
//   ./replication_cluster [n_backends] [cache_dir]
//
// A Supervisor fork/execs `n_backends` (default 3) cluster_backend
// processes — each serving ServiceCore + disk cache + command journal on
// its own Unix socket — and watches them: any child that dies is
// restarted with backoff and re-warmed from its journal. A
// consistent-hashing dispatcher with replication_factor=2 fronts the
// shards on TCP: every stream write is applied on its ring replica too,
// and a read whose primary is gone walks on to the next backend, which
// recomputes the same bytes, so killing a primary mid-demo loses nothing.
//
// Demo traffic: a cold seed sweep, kill -9 of one backend, the same
// sweep again (ring failover + supervisor make it whole), cluster/cache
// introspection, and a cache_gc pass. Ctrl-C at any point is safe:
// install_signal_cleanup() guarantees no orphaned backend survives an
// abnormal dispatcher exit.
//
// Run it twice with the same cache_dir to watch the cold pass turn into
// disk hits across a process restart.
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/supervisor.h"
#include "service/server.h"

using namespace decompeval;
using service::Json;

namespace {

Json study_request(std::uint64_t seed) {
  Json req = Json::object();
  req.set("op", Json::string("run_study"));
  req.set("seed", Json::number(static_cast<double>(seed)));
  return req;
}

// The exec'd backend binary lives next to this one.
std::string backend_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "./cluster_backend";
  std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  return self.substr(0, slash + 1) + "cluster_backend";
}

}  // namespace

int main(int argc, char** argv) {
  const int n_backends = argc > 1 ? std::stoi(argv[1]) : 3;
  const std::string cache_root =
      argc > 2 ? argv[2]
               : "/tmp/decompeval-cluster-" + std::to_string(::getpid());

  // --- supervised backend shard processes --------------------------------
  // Even if this process dies abnormally (Ctrl-C, SIGTERM), every child
  // is SIGKILLed from the signal handler — no orphans, ever.
  cluster::Supervisor::install_signal_cleanup();

  cluster::SupervisorOptions supervise;
  cluster::DispatcherOptions dispatch;
  std::vector<std::string> sockets;
  for (int i = 0; i < n_backends; ++i) {
    const std::string id = "backend-" + std::to_string(i);
    const std::string socket_path =
        cache_root + "-" + id + ".sock";
    const std::string shard_dir = cache_root + "/" + id;
    cluster::SupervisedBackend spec;
    spec.id = id;
    spec.socket_path = socket_path;
    // The journal sits next to the cache directory (never inside it —
    // the cache janitor sweeps stale non-.json files in its directory).
    spec.argv = {backend_binary(),
                 "--socket",    socket_path,
                 "--cache-dir", shard_dir,
                 "--journal",   shard_dir + ".journal",
                 "--id",        id};
    supervise.backends.push_back(spec);
    sockets.push_back(socket_path);
    cluster::BackendEndpoint endpoint;
    endpoint.id = id;
    endpoint.socket_path = socket_path;
    dispatch.backends.push_back(endpoint);
  }
  cluster::Supervisor supervisor(supervise);
  supervisor.start();
  for (int i = 0; i < n_backends; ++i) {
    const std::string id = "backend-" + std::to_string(i);
    if (!supervisor.wait_until_serving(id, 10000)) {
      std::cerr << id << " never came up\n";
      return 1;
    }
    std::cout << "serving " << id << " pid=" << supervisor.pid_of(id)
              << " socket=" << sockets[i] << "\n";
  }

  // --- replicated dispatcher front-end on TCP ----------------------------
  dispatch.replication_factor = 2;
  // Hedged reads: a primary still quiet after 10ms gets a second attempt
  // on the next ring node, and the first answer wins. A request carrying
  // "deadline_ms" reaches each backend with the budget it has left, and
  // is refused once it is spent.
  dispatch.hedge_delay_ms = 10.0;
  cluster::Dispatcher dispatcher(dispatch);
  dispatcher.start();
  service::ServerOptions front_options;
  front_options.tcp_port = 0;  // ephemeral, loopback
  front_options.workers = 4;
  front_options.max_queue = 32;
  front_options.handler = dispatcher.handler();
  service::ReplicationServer front(front_options);
  front.start();
  std::cout << "dispatcher (R=2) listening on 127.0.0.1:" << front.tcp_port()
            << "\n\n";

  service::ServiceClient client;
  client.connect_tcp("127.0.0.1", front.tcp_port());

  // --- demo traffic ------------------------------------------------------
  std::cout << "--- cold pass (seeds 1..6 via dispatcher) ---\n";
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Json r = client.call(study_request(seed));
    std::cout << "  seed " << seed << ": " << r.get_string("status", "?")
              << " digest=" << r.get_string("digest", "?") << "\n";
  }

  std::cout << "\n--- kill -9 backend-0, then the same sweep ---\n";
  supervisor.kill_backend("backend-0", SIGKILL);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Json r = client.call(study_request(seed));
    std::cout << "  seed " << seed << ": " << r.get_string("status", "?")
              << " digest=" << r.get_string("digest", "?") << "\n";
  }
  supervisor.wait_until_serving("backend-0", 10000);
  // The supervisor runs its own serving check + re-warm just after ours
  // succeeds; give its bookkeeping a moment before reading the counter.
  for (int i = 0; i < 500 && supervisor.restarts_of("backend-0") == 0; ++i)
    ::usleep(10 * 1000);
  std::cout << "  backend-0 restarted (restarts="
            << supervisor.restarts_of("backend-0") << ") and re-warmed\n";

  std::cout << "\n--- cluster_stats ---\n";
  Json stats_req = Json::object();
  stats_req.set("op", Json::string("cluster_stats"));
  const Json stats = client.call(stats_req);
  std::cout << stats.dump() << "\n";
  std::cout << "  overload controls: deadline_refusals="
            << stats.get_number("deadline_refusals", 0)
            << " overloaded_retries="
            << stats.get_number("overloaded_retries", 0)
            << " hedges=" << stats.get_number("hedges", 0) << " hedge_wins="
            << stats.get_number("hedge_wins", 0) << "\n";

  std::cout << "\n--- per-backend cache_stats + cache_gc ---\n";
  Json cache_req = Json::object();
  cache_req.set("op", Json::string("cache_stats"));
  Json gc_req = Json::object();
  gc_req.set("op", Json::string("cache_gc"));
  gc_req.set("max_bytes", Json::number(256.0 * 1024.0));
  for (int i = 0; i < n_backends; ++i) {
    try {
      service::ServiceClient direct;
      direct.connect(sockets[i]);
      const Json s = direct.call(cache_req);
      const Json g = direct.call(gc_req);
      std::cout << "  backend-" << i << ": disk_stores="
                << s.get_number("disk_stores", 0) << " disk_hits="
                << s.get_number("disk_hits", 0) << " disk_bytes="
                << s.get_number("disk_bytes", 0) << " gc_deleted="
                << g.get_number("files_deleted", 0) << "\n";
    } catch (const std::exception& e) {
      std::cout << "  backend-" << i << ": unreachable (" << e.what() << ")\n";
    }
  }

  // --- orderly teardown --------------------------------------------------
  front.stop();
  dispatcher.stop();
  supervisor.stop();  // shutdown op → SIGTERM → SIGKILL; reaps every child
  std::cout << "\nall backends shut down; cache persists in " << cache_root
            << "\n";
  return 0;
}
