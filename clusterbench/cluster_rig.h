// The benchmark's cluster: the deployment shape of
// examples/replication_cluster hosted in one process. Three
// ClusterBackends, each behind its own ReplicationServer on a Unix socket
// with its own disk cache and journal, and a Dispatcher at replication
// factor 2 behind a front ReplicationServer. Only deployment settings are
// set (paths, the backend list, the replication factor); every tuning
// option keeps its library default.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/backend.h"
#include "cluster/dispatcher.h"
#include "service/server.h"

namespace clusterbench {

class Rig {
 public:
  static constexpr int kBackends = 3;

  /// Starts the cluster with every path under `dir` (created here). With
  /// a tracer, the front and backend handlers and fast paths are wrapped
  /// in spans; without one, the library's own callables are plugged in.
  Rig(const std::string& dir, Tracer* tracer);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::string front_socket() const { return dir_ + "/front.sock"; }
  std::string backend_socket(int i) const;

  /// Counters read over the wire: cluster_stats and server_stats from the
  /// front, server_stats, cache_stats and journal_stats from each
  /// backend. Keys are "front.<field>" and "b<i>.<field>". Every call is
  /// counted in `phase`.
  std::map<std::string, double> read_counters(PhaseCount& phase) const;

 private:
  std::string dir_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<decompeval::cluster::ClusterBackend>> backends_;
  std::vector<std::unique_ptr<decompeval::service::ReplicationServer>> servers_;
  std::unique_ptr<decompeval::cluster::Dispatcher> dispatcher_;
  std::unique_ptr<decompeval::service::ReplicationServer> front_;
};

/// Sum of "b<i>.<field>" over the backends.
double backend_sum(const std::map<std::string, double>& counters,
                   const std::string& field);

}  // namespace clusterbench
