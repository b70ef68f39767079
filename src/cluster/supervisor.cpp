#include "cluster/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "service/server.h"
#include "util/check.h"

namespace decompeval::cluster {

namespace {

constexpr std::uint64_t kPollIntervalMs = 20;
constexpr double kBackoffInitialMs = 10.0;
constexpr double kBackoffMaxMs = 2000.0;
/// How long a freshly (re)started backend gets to answer its first ping
/// before the attempt counts as failed.
constexpr std::uint64_t kServingTimeoutMs = 5000;

// Static pid registry for the abnormal-exit signal handler. Slots are
// plain atomics so the handler (async-signal context) only does loads
// and kill(2) — both async-signal-safe. 0 means empty.
constexpr std::size_t kMaxSupervised = 128;
std::atomic<pid_t> g_supervised[kMaxSupervised];
std::atomic<bool> g_cleanup_installed{false};

void register_pid(pid_t pid) {
  for (auto& slot : g_supervised) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  // Registry full: the child is still reaped by stop(), it just loses
  // the abnormal-exit safety net.
}

void unregister_pid(pid_t pid) {
  for (auto& slot : g_supervised) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void decompeval_supervisor_cleanup(int sig) {
  for (auto& slot : g_supervised) {
    const pid_t pid = slot.load(std::memory_order_relaxed);
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void Supervisor::install_signal_cleanup() {
  if (g_cleanup_installed.exchange(true)) return;
  struct sigaction action{};
  action.sa_handler = decompeval_supervisor_cleanup;
  ::sigemptyset(&action.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP})
    ::sigaction(sig, &action, nullptr);
  // SIGCHLD stays at default (ignore): the watch thread owns reaping, so
  // the cleanup handler never races a signal-driven reaper.
  ::signal(SIGCHLD, SIG_DFL);
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)), faults_(options_.fault_plan) {
  DE_EXPECTS_MSG(!options_.backends.empty(),
                 "Supervisor needs at least one backend");
  for (const SupervisedBackend& spec : options_.backends) {
    DE_EXPECTS_MSG(!spec.id.empty(), "backend id must be non-empty");
    DE_EXPECTS_MSG(!spec.argv.empty(), "backend argv must be non-empty");
    BackendState state;
    state.spec = spec;
    backends_.push_back(std::move(state));
  }
}

Supervisor::~Supervisor() { stop(); }

std::size_t Supervisor::index_of(const std::string& id) const {
  for (std::size_t i = 0; i < backends_.size(); ++i)
    if (backends_[i].spec.id == id) return i;
  DE_EXPECTS_MSG(false, "unknown supervised backend '" + id + "'");
  return 0;
}

pid_t Supervisor::spawn(const SupervisedBackend& spec) {
  // argv must outlive execv in the child; the child sees the parent's
  // copy-on-write memory, so stack-local storage is fine.
  std::vector<char*> argv;
  argv.reserve(spec.argv.size() + 1);
  for (const std::string& arg : spec.argv)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; only async-signal-safe calls after fork
  }
  if (pid > 0) {
    register_pid(pid);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.spawns;
  }
  return pid;
}

void Supervisor::start() {
  if (running_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (BackendState& backend : backends_)
      if (backend.pid < 0) backend.pid = spawn(backend.spec);
  }
  last_ping_ = std::chrono::steady_clock::now();
  watch_thread_ = std::thread([this] { watch_loop(); });
}

bool Supervisor::ping(const std::string& socket_path,
                      double timeout_ms) const {
  try {
    service::ServiceClient probe;
    probe.connect(socket_path, /*attempts=*/1);
    probe.set_timeout_ms(timeout_ms);
    service::Json request = service::Json::object();
    request.set("op", service::Json::string("ping"));
    return probe.call(request).get_string("status", "") == "ok";
  } catch (const std::exception&) {
    return false;
  }
}

bool Supervisor::wait_until_serving(const std::string& id,
                                    std::uint64_t timeout_ms) {
  std::string socket_path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    socket_path = backends_[index_of(id)].spec.socket_path;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ping(socket_path, options_.ping_timeout_ms)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

void Supervisor::rewarm(const SupervisedBackend& spec) {
  try {
    service::ServiceClient client;
    client.connect(spec.socket_path, /*attempts=*/10);
    // Replay re-runs every journaled absorb and its refits; give it room.
    client.set_timeout_ms(static_cast<double>(kServingTimeoutMs) + 30000.0);
    service::Json request = service::Json::object();
    request.set("op", service::Json::string("journal_replay"));
    const service::Json r = client.call(request);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.rewarm_replayed +=
        static_cast<std::uint64_t>(r.get_number("replayed", 0.0));
    stats_.rewarm_failures +=
        static_cast<std::uint64_t>(r.get_number("failures", 0.0));
    if (!r.get_bool("clean", true)) ++stats_.rewarm_failures;
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rewarm_failures;
  }
}

double Supervisor::backoff_ms(int consecutive_failures) const {
  double ms = kBackoffInitialMs;
  for (int i = 0; i < consecutive_failures && ms < kBackoffMaxMs; ++i)
    ms *= 2.0;
  return std::min(ms, kBackoffMaxMs);
}

void Supervisor::watch_loop() {
  while (running_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    const auto now = std::chrono::steady_clock::now();

    // Phase 1 (under the lock): reap exits, schedule restarts, and spawn
    // the ones that are due. Slow IO (pings, re-warm) happens later,
    // outside the lock.
    std::vector<SupervisedBackend> just_restarted;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (BackendState& backend : backends_) {
        if (backend.pid > 0) {
          int status = 0;
          const pid_t reaped = ::waitpid(backend.pid, &status, WNOHANG);
          if (reaped == backend.pid) {
            unregister_pid(backend.pid);
            backend.pid = -1;
            backend.ping_failures = 0;
            {
              const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
              ++stats_.exits_observed;
            }
            if (options_.max_restarts >= 0 &&
                backend.attempts >=
                    static_cast<std::uint64_t>(options_.max_restarts)) {
              backend.gave_up = true;
              const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
              ++stats_.gave_up;
            } else {
              backend.restart_pending = true;
              backend.next_restart =
                  now + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                backoff_ms(backend.consecutive_failures)));
            }
          }
        }
        if (backend.restart_pending && !backend.gave_up &&
            now >= backend.next_restart) {
          ++backend.attempts;
          if (faults_.fire_next("supervisor.restart")) {
            // Injected spawn failure: reschedule with doubled backoff.
            ++backend.consecutive_failures;
            backend.next_restart =
                now + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              backoff_ms(backend.consecutive_failures)));
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.restart_faults;
            continue;
          }
          backend.pid = spawn(backend.spec);
          backend.restart_pending = false;
          if (backend.pid < 0) ++backend.consecutive_failures;
        }
      }
      // Snapshot freshly spawned backends that still need their serving
      // check + re-warm (identified by attempts > restarts).
      for (BackendState& backend : backends_)
        if (backend.pid > 0 && backend.attempts > backend.restarts &&
            !backend.restart_pending)
          just_restarted.push_back(backend.spec);
    }

    // Phase 2 (no lock): serving checks and re-warm for fresh restarts.
    for (const SupervisedBackend& spec : just_restarted) {
      const bool serving = wait_until_serving(spec.id, kServingTimeoutMs);
      if (serving) rewarm(spec);
      const std::lock_guard<std::mutex> lock(mutex_);
      BackendState& backend = backends_[index_of(spec.id)];
      if (serving) {
        backend.restarts = backend.attempts;
        backend.consecutive_failures = 0;
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.restarts;
      } else {
        ++backend.consecutive_failures;
        {
          const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.restart_failures;
        }
        // Alive but not serving: put it out of its misery so the next
        // poll reaps it and re-enters the restart path. Mark this
        // attempt resolved so the serving check is not repeated.
        backend.restarts = backend.attempts;
        if (backend.pid > 0) ::kill(backend.pid, SIGKILL);
      }
      if (!running_.load()) return;
    }

    // Phase 3: liveness pings for wedged-but-alive backends.
    if (options_.ping_interval_ms > 0 &&
        now - last_ping_ >=
            std::chrono::milliseconds(options_.ping_interval_ms)) {
      last_ping_ = now;
      std::vector<std::pair<std::string, std::string>> to_ping;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const BackendState& backend : backends_)
          if (backend.pid > 0 && !backend.restart_pending)
            to_ping.emplace_back(backend.spec.id, backend.spec.socket_path);
      }
      for (const auto& [id, socket_path] : to_ping) {
        const bool ok = ping(socket_path, options_.ping_timeout_ms);
        const std::lock_guard<std::mutex> lock(mutex_);
        BackendState& backend = backends_[index_of(id)];
        if (ok) {
          backend.ping_failures = 0;
        } else if (++backend.ping_failures >=
                   options_.ping_failures_before_kill) {
          if (backend.pid > 0) {
            ::kill(backend.pid, SIGKILL);
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.hang_kills;
          }
          backend.ping_failures = 0;
        }
        if (!running_.load()) return;
      }
    }
  }
}

void Supervisor::kill_backend(const std::string& id, int sig) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const BackendState& backend = backends_[index_of(id)];
  if (backend.pid > 0) ::kill(backend.pid, sig);
}

bool Supervisor::alive(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const BackendState& backend = backends_[index_of(id)];
  return backend.pid > 0 && ::kill(backend.pid, 0) == 0;
}

pid_t Supervisor::pid_of(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backends_[index_of(id)].pid;
}

std::uint64_t Supervisor::restarts_of(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backends_[index_of(id)].restarts;
}

bool Supervisor::given_up(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backends_[index_of(id)].gave_up;
}

SupervisorStats Supervisor::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Supervisor::stop() {
  if (!running_.exchange(false)) {
    // Never started or already stopped — but a constructed-then-dropped
    // supervisor may still own children from a start()/stop() race; the
    // loop below is idempotent either way.
  }
  if (watch_thread_.joinable()) watch_thread_.join();

  std::vector<std::pair<pid_t, std::string>> children;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (BackendState& backend : backends_) {
      if (backend.pid > 0)
        children.emplace_back(backend.pid, backend.spec.socket_path);
      backend.pid = -1;
      backend.restart_pending = false;
    }
  }
  // Polite first: the shutdown op lets a backend finish in-flight
  // responses and unlink its socket.
  for (const auto& [pid, socket_path] : children) {
    (void)pid;
    try {
      service::ServiceClient client;
      client.connect(socket_path, /*attempts=*/1);
      client.set_timeout_ms(500.0);
      service::Json request = service::Json::object();
      request.set("op", service::Json::string("shutdown"));
      client.call(request);
    } catch (const std::exception&) {
      // Dead or deaf; the signals below handle it.
    }
  }
  for (const auto& [pid, socket_path] : children) {
    (void)socket_path;
    const auto reap_within = [pid = pid](std::uint64_t ms) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(ms);
      while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return false;
    };
    bool reaped = reap_within(500);
    if (!reaped) {
      ::kill(pid, SIGTERM);
      reaped = reap_within(500);
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);  // SIGKILL cannot be ignored
    }
    unregister_pid(pid);
  }
}

}  // namespace decompeval::cluster
