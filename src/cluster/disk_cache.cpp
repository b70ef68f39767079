#include "cluster/disk_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cluster/hash_ring.h"

namespace decompeval::cluster {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr std::size_t kMaxWarnings = 16;

// Temp files from a writer that crashed between open and rename are
// litter; anything this old cannot belong to an in-flight store.
constexpr std::uint64_t kStaleTempMs = 60'000;

// mkdir -p: orchestrators hand each backend a nested directory
// (<root>/backend-N) whose parent may not exist yet.
void make_directories(const std::string& path) {
  for (std::size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    ::mkdir(path.substr(0, pos).c_str(), 0755);  // EEXIST is fine
  }
}

std::uint64_t file_size_of(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

DiskCache::DiskCache(DiskCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.directory.empty()) {
    make_directories(options_.directory);
    stats_.bytes = scan_directory_bytes();
  }
}

std::uint64_t DiskCache::scan_directory_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".json") continue;
    total += static_cast<std::uint64_t>(entry.file_size(ec));
  }
  return total;
}

std::string DiskCache::digest(const service::Json& request) const {
  return hex64(HashRing::hash(service::canonical_request_key(request) +
                              "|version=" + options_.version));
}

std::string DiskCache::path_for(const std::string& digest) const {
  return options_.directory + "/" + digest + ".json";
}

void DiskCache::warn(std::string message) {
  // Callers hold mutex_.
  if (warnings_.size() >= kMaxWarnings)
    warnings_.erase(warnings_.begin());
  warnings_.push_back(std::move(message));
}

bool DiskCache::load(const std::string& digest, service::Json* response) {
  if (!enabled()) return false;
  try {
    if (options_.faults != nullptr) options_.faults->raise_next("cache.read");
    std::ifstream in(path_for(digest));
    if (!in.is_open()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return false;
    }
    std::ostringstream content;
    content << in.rdbuf();

    const service::Json envelope = service::Json::parse(content.str());
    const service::Json* stored = envelope.get("response");
    const std::string version = envelope.get_string("cache_version", "");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stored == nullptr || !stored->is_object() ||
        version != options_.version) {
      warn("cache file " + digest + ".json rejected: " +
           (stored == nullptr || !stored->is_object()
                ? "missing response object"
                : "version '" + version + "' != '" + options_.version + "'"));
      ++stats_.invalid_files;
      ++stats_.misses;
      return false;
    }
    ++stats_.disk_hits;
    // Touch the entry so the janitor's mtime order is LRU, not FIFO.
    // Best-effort: a failed touch only makes the file look older.
    ::utimensat(AT_FDCWD, path_for(digest).c_str(), nullptr, 0);
    *response = *stored;
    return true;
  } catch (const util::FaultError& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    warn(std::string("cache read abandoned: ") + e.what());
    ++stats_.misses;
    return false;
  } catch (const std::exception& e) {
    // Torn, truncated, or non-JSON file: a miss, never a crash.
    const std::lock_guard<std::mutex> lock(mutex_);
    warn("cache file " + digest + ".json unreadable: " + e.what());
    ++stats_.invalid_files;
    ++stats_.misses;
    return false;
  }
}

bool DiskCache::store(const std::string& digest,
                      const service::Json& response,
                      std::string_view canonical_key) {
  if (!enabled()) return false;
  // Only clean results are reusable artifacts; degraded/error responses
  // describe one particular (possibly faulted) run.
  if (response.get_string("status", "") != "ok") return false;

  service::Json envelope = service::Json::object();
  envelope.set("cache_version", service::Json::string(options_.version));
  envelope.set("digest", service::Json::string(digest));
  if (!canonical_key.empty())
    envelope.set("key", service::Json::string(canonical_key));
  envelope.set("response", response);
  const std::string bytes = envelope.dump() + "\n";

  // Replacing an existing entry frees its bytes at rename time; count
  // that in the growth check so a same-size overwrite always fits.
  const std::uint64_t replaced = file_size_of(path_for(digest));
  std::string temp_path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (options_.max_bytes > 0 &&
        stats_.bytes - std::min(stats_.bytes, replaced) + bytes.size() >
            options_.max_bytes) {
      ++stats_.growth_refusals;
      ++stats_.store_failures;
      warn("cache store refused: entry of " + std::to_string(bytes.size()) +
           " bytes would grow the cache past max_bytes=" +
           std::to_string(options_.max_bytes) + " (currently " +
           std::to_string(stats_.bytes) + " bytes; run cache_gc)");
      return false;
    }
    temp_path = options_.directory + "/." + digest + ".tmp." +
                std::to_string(::getpid()) + "." +
                std::to_string(temp_counter_++);
  }
  try {
    {
      std::ofstream out(temp_path, std::ios::trunc);
      if (!out.is_open())
        throw std::runtime_error("cannot open temp file " + temp_path);
      out << bytes;
      out.flush();
      if (!out.good())
        throw std::runtime_error("short write to " + temp_path);
    }
    // The injected write fault fires after the temp write and before the
    // rename — the worst possible crash point — to prove no partial file
    // can ever land at the final path.
    if (options_.faults != nullptr) options_.faults->raise_next("cache.write");
    if (std::rename(temp_path.c_str(), path_for(digest).c_str()) != 0)
      throw std::runtime_error("rename into " + path_for(digest) + " failed");
  } catch (const std::exception& e) {
    std::remove(temp_path.c_str());
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.store_failures;
    warn(std::string("cache store aborted: ") + e.what());
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  stats_.bytes = stats_.bytes - std::min(stats_.bytes, replaced) +
                 bytes.size();
  return true;
}

CacheGcReport DiskCache::gc(const CacheGcOptions& bounds) {
  CacheGcReport report;
  if (!enabled()) return report;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.gc_runs;

  struct Entry {
    std::string path;
    std::uint64_t bytes = 0;
    std::int64_t mtime_ms = 0;
    std::string key;   ///< canonical key from the envelope ("" = unknown)
    bool immune = false;
  };
  std::vector<Entry> entries;
  const auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  const std::int64_t now = now_ms();

  std::error_code ec;
  for (const auto& dirent :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    if (!dirent.is_regular_file(ec)) continue;
    const std::string path = dirent.path().string();
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    const std::int64_t mtime_ms =
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000 +
        st.st_mtim.tv_nsec / 1'000'000;
    if (dirent.path().extension() != ".json") {
      // Writer litter: a temp file this stale belongs to no live store.
      if (now - mtime_ms > static_cast<std::int64_t>(kStaleTempMs) &&
          std::remove(path.c_str()) == 0)
        ++report.temp_files_deleted;
      continue;
    }
    Entry entry;
    entry.path = path;
    entry.bytes = static_cast<std::uint64_t>(st.st_size);
    entry.mtime_ms = mtime_ms;
    try {
      std::ifstream in(path);
      std::ostringstream content;
      content << in.rdbuf();
      entry.key =
          service::Json::parse(content.str()).get_string("key", "");
    } catch (const std::exception&) {
      // Unparseable: prime deletion candidate, never immune.
    }
    entries.push_back(std::move(entry));
  }
  report.files_scanned = entries.size();
  for (const Entry& entry : entries) report.bytes_before += entry.bytes;

  // Oldest first; path breaks mtime ties so the pass is deterministic.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime_ms != b.mtime_ms ? a.mtime_ms < b.mtime_ms
                                    : a.path < b.path;
  });
  // The newest file of each logical key is immune to the *size* pass:
  // LRU eviction never takes the only (or freshest) copy of a live entry.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->key.empty()) continue;
    bool newest = true;
    for (auto later = entries.rbegin(); later != it; ++later)
      if (later->key == it->key) {
        newest = false;
        break;
      }
    if (newest) {
      it->immune = true;
      ++report.newest_kept;
    }
  }

  std::uint64_t remaining = report.bytes_before;
  const auto drop = [&](Entry& entry) {
    if (std::remove(entry.path.c_str()) != 0) {
      warn("cache_gc could not delete " + entry.path);
      return;
    }
    ++report.files_deleted;
    ++stats_.gc_deleted_files;
    stats_.gc_deleted_bytes += entry.bytes;
    remaining -= entry.bytes;
    entry.bytes = 0;  // marks it gone for the size pass
  };
  // Age pass: an explicit TTL overrides immunity — an entry nobody used
  // for max_age is dead weight even as the newest of its key. Without
  // this, a full cache of distinct keys could never free space.
  if (bounds.max_age_ms > 0)
    for (Entry& entry : entries)
      if (entry.bytes > 0 &&
          now - entry.mtime_ms >
              static_cast<std::int64_t>(bounds.max_age_ms))
        drop(entry);
  // Size pass: least-recently-used first until the directory fits.
  if (bounds.max_bytes > 0)
    for (Entry& entry : entries) {
      if (remaining <= bounds.max_bytes) break;
      if (!entry.immune && entry.bytes > 0) drop(entry);
    }

  stats_.bytes = remaining;
  report.bytes_after = remaining;
  return report;
}

DiskCacheStats DiskCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<std::string> DiskCache::warnings() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return warnings_;
}

}  // namespace decompeval::cluster
