// Backend process supervisor: fork/exec, crash detection, restart with
// backoff, and journal-driven re-warm.
//
// The supervisor owns a set of backend *processes* (each an exec'd
// binary serving a ClusterBackend on a Unix socket — see
// examples/cluster_backend.cpp). A watch thread reaps children with
// waitpid(WNOHANG) every 20 ms; any exit — clean, crash, or kill -9 —
// schedules a restart after an exponential backoff (10 ms, doubled by
// each consecutive failed restart attempt up to 2 s; a restart that
// answers a ping within 5 s resets it). After a successful restart the
// supervisor *re-warms* the backend by sending it the "journal_replay"
// op: the backend rebuilds its streams from their journaled writes (see
// journal.h). A backend without a journal answers with zero records;
// its disk cache survived the restart on its own.
//
// Liveness beyond exit: with ping_interval_ms set, the watch thread
// reuses the prober idiom — a cheap "ping" op per backend — and a
// backend that stays silent for ping_failures_before_kill consecutive
// probes is SIGKILLed, which re-enters the ordinary restart path. This
// catches wedged-but-alive processes that waitpid alone never sees.
//
// Shutdown discipline: stop() asks each child to exit via the "shutdown"
// op, escalates to SIGTERM then SIGKILL, and waitpid()s every child —
// the supervisor never leaves zombies behind, including when it is being
// destroyed during stack unwinding. For *abnormal* supervisor death
// (SIGINT/SIGTERM), install_signal_cleanup() arms an async-signal-safe
// handler that SIGKILLs every currently supervised pid from a static
// registry before re-raising; SIGCHLD is left at its default so the
// handler never races the reaper.
//
// Fault site (serial-counter, from SupervisorOptions::fault_plan):
//   "supervisor.restart"  the due restart attempt is skipped and
//                         rescheduled with doubled backoff (simulates a
//                         failed spawn)
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/fault.h"

namespace decompeval::cluster {

struct SupervisedBackend {
  std::string id;                  ///< unique, non-empty
  std::vector<std::string> argv;   ///< absolute binary path + args, exec'd
  std::string socket_path;         ///< for ping / re-warm / shutdown
};

struct SupervisorOptions {
  std::vector<SupervisedBackend> backends;
  /// Restarts allowed per backend; < 0 = unbounded, 0 = never restart.
  int max_restarts = -1;
  /// Liveness probing of running backends; 0 disables.
  std::uint64_t ping_interval_ms = 0;
  int ping_failures_before_kill = 3;
  double ping_timeout_ms = 500.0;
  /// Schedule for the "supervisor.restart" site.
  util::FaultPlan fault_plan;
};

struct SupervisorStats {
  std::uint64_t spawns = 0;           ///< initial starts + restarts
  std::uint64_t exits_observed = 0;   ///< child exits reaped by the watcher
  std::uint64_t restarts = 0;         ///< successful restarts (serving again)
  std::uint64_t restart_failures = 0; ///< attempts that never reached serving
  std::uint64_t restart_faults = 0;   ///< "supervisor.restart" firings
  std::uint64_t gave_up = 0;          ///< backends past max_restarts
  std::uint64_t rewarm_replayed = 0;  ///< stream writes re-issued by re-warms
  std::uint64_t rewarm_failures = 0;  ///< replay failures + unclean journals
  std::uint64_t hang_kills = 0;       ///< wedged backends SIGKILLed
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every backend and starts the watch thread. Does not wait for
  /// the children to serve — use wait_until_serving().
  void start();
  /// Stops watching, shuts every child down (op → SIGTERM → SIGKILL) and
  /// reaps them all. Idempotent.
  void stop();

  /// Blocks until the backend answers a ping, or the timeout elapses.
  bool wait_until_serving(const std::string& id, std::uint64_t timeout_ms);

  /// Delivers `sig` to a child (chaos hook: SIGKILL mid-stream).
  void kill_backend(const std::string& id, int sig);

  bool alive(const std::string& id) const;
  pid_t pid_of(const std::string& id) const;
  std::uint64_t restarts_of(const std::string& id) const;
  /// True when the backend exceeded max_restarts and stays down.
  bool given_up(const std::string& id) const;

  SupervisorStats stats() const;

  /// Arms the process-wide abnormal-exit handler (SIGINT/SIGTERM):
  /// SIGKILLs every supervised child, then re-raises. Idempotent.
  static void install_signal_cleanup();

 private:
  struct BackendState {
    SupervisedBackend spec;
    pid_t pid = -1;
    std::uint64_t restarts = 0;        ///< successful (reached serving)
    std::uint64_t attempts = 0;        ///< restart attempts, incl. failed
    int consecutive_failures = 0;
    bool restart_pending = false;
    bool gave_up = false;
    int ping_failures = 0;
    std::chrono::steady_clock::time_point next_restart{};
  };

  void watch_loop();
  /// fork/exec one backend; returns the child pid or -1. Lock-free.
  pid_t spawn(const SupervisedBackend& spec);
  /// Ping `socket_path` once; true on an "ok" answer.
  bool ping(const std::string& socket_path, double timeout_ms) const;
  /// Re-warm a restarted backend via "journal_replay" (best-effort).
  void rewarm(const SupervisedBackend& spec);
  double backoff_ms(int consecutive_failures) const;
  std::size_t index_of(const std::string& id) const;  ///< throws on unknown

  SupervisorOptions options_;
  util::FaultInjector faults_;
  mutable std::mutex mutex_;
  std::vector<BackendState> backends_;
  std::atomic<bool> running_{false};
  std::thread watch_thread_;
  std::chrono::steady_clock::time_point last_ping_{};
  mutable std::mutex stats_mutex_;
  SupervisorStats stats_;
};

}  // namespace decompeval::cluster
