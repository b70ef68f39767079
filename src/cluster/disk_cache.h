// Persistent, digest-keyed result cache for cluster backends.
//
// Key derivation: the key is service::canonical_request_key — the
// request's members sorted by name with the volatile fields removed
// ("threads" — results are bit-identical at every thread count;
// "no_cache"; "deadline_ms"; "baseline" — an annotate edit baseline only
// steers routing). The dispatcher routes and every in-memory tier keys on
// the same function, so they all agree on what one logical request is.
// The digest is FNV-1a over that key plus the binary version string, so
// a new binary version can never serve a stale file: the old entry's
// digest simply no longer matches and the old file is left untouched.
// Each cache file also records the version, digest, and canonical key it
// was written under — the key is what lets the janitor group files into
// versions of one logical entry.
//
// Crash atomicity: entries are written to a unique temp name in the same
// directory and rename(2)d into place, so readers only ever see absent
// or complete files — never a torn write. Concurrent writers of the same
// digest each rename their own temp file; the last rename wins and the
// result is a valid file either way.
//
// Degraded responses are NEVER stored: a degraded result is an answer
// about one faulted run, not a reusable artifact (store() refuses them).
//
// Growth bound: with max_bytes set, a store that would push the cache
// past the bound is *refused* — counted (growth_refusals) and logged as
// a structured warning, with no temp file ever written — instead of
// silently growing. Byte totals are tracked from a construction-time
// scan plus per-store deltas and exposed via stats().bytes; they are
// approximate under concurrent multi-process writers and re-exact after
// every gc().
//
// Janitor (gc): size/age-bounded collection over the cache directory.
// Disk hits touch the file's mtime, so mtime order is true LRU order,
// and gc deletes least-recently-used files first until the directory
// fits the byte budget. The size pass never deletes the newest version
// of a logical key (grouped by the recorded canonical key) — a
// size-bounded cache stays a *complete* cache for every live key; its
// floor is the sum of newest-version files, and absolute growth is the
// store guard's job. The age pass is an explicit TTL and overrides that
// immunity: an entry unused for max_age is deleted outright, which is
// how an operator frees space in a cache full of live keys. Unparseable
// files enjoy no protection from either pass, and stale temp files from
// crashed writers are swept too.
//
// The cache is disk-only: the one in-memory tier in front of it is the
// owning backend's (ServiceCore's rendered result tier, see backend.h).
// Corrupted or truncated files are a miss plus a structured warning
// (readable via warnings()), never a crash.
//
// Fault sites (deterministic, serial-counter): "cache.read" — the load
// is abandoned and counted as a miss; "cache.write" — the store aborts
// cleanly, the temp file is removed, and no partial file remains.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/json.h"
#include "util/fault.h"

namespace decompeval::cluster {

struct DiskCacheOptions {
  /// Cache directory; created on construction. Empty disables the cache
  /// (every load misses, every store is a no-op).
  std::string directory;
  /// Binary version folded into every digest (use core::version()).
  std::string version;
  /// Refuse-to-grow bound on the directory's total bytes (0 = unbounded).
  /// Stores that would exceed it fail with a structured warning; run gc()
  /// (the "cache_gc" op) to make room.
  std::uint64_t max_bytes = 0;
  /// Optional injector for the "cache.read" / "cache.write" sites
  /// (non-const: these are serial-counter sites).
  util::FaultInjector* faults = nullptr;
};

struct DiskCacheStats {
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;   ///< IO errors and injected write faults
  std::uint64_t invalid_files = 0;    ///< corrupt/truncated/mismatched files
  std::uint64_t growth_refusals = 0;  ///< stores refused by max_bytes
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_deleted_files = 0;
  std::uint64_t gc_deleted_bytes = 0;
  std::uint64_t bytes = 0;            ///< tracked directory total
};

/// Bounds for one gc() pass; 0 disables that bound.
struct CacheGcOptions {
  /// Shrink (LRU-first, newest-of-key immune) until under this.
  std::uint64_t max_bytes = 0;
  /// TTL: delete entries not used for this long (overrides immunity).
  std::uint64_t max_age_ms = 0;
};

struct CacheGcReport {
  std::uint64_t files_scanned = 0;
  std::uint64_t files_deleted = 0;
  std::uint64_t temp_files_deleted = 0;  ///< stale writer litter swept
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::uint64_t newest_kept = 0;  ///< files immune as newest of their key
};

class DiskCache {
 public:
  explicit DiskCache(DiskCacheOptions options);

  /// Digest of the request's canonical key under this cache's version
  /// string (see file comment).
  std::string digest(const service::Json& request) const;

  /// Fills `response` and returns true on a hit. A corrupt, truncated,
  /// or version/key-mismatched file is a miss (plus a warning); so is an
  /// injected "cache.read" fault. Disk hits touch the file's mtime so
  /// gc()'s LRU order tracks use, not just write time.
  bool load(const std::string& digest, service::Json* response);

  /// Writes the entry (temp + rename). `canonical_key` (when given) is
  /// recorded in the envelope for the janitor's per-key grouping.
  /// Returns false — storing nothing, leaving no partial file — when the
  /// cache is disabled, the response is not status "ok", the entry would
  /// exceed max_bytes, IO fails, or "cache.write" fires.
  bool store(const std::string& digest, const service::Json& response,
             std::string_view canonical_key = {});

  /// Runs one janitor pass (see file comment). Holds the cache lock for
  /// the duration; byte totals are exact afterwards.
  CacheGcReport gc(const CacheGcOptions& bounds);

  bool enabled() const { return !options_.directory.empty(); }
  const std::string& directory() const { return options_.directory; }
  std::uint64_t max_bytes() const { return options_.max_bytes; }
  std::string path_for(const std::string& digest) const;

  DiskCacheStats stats() const;
  /// Most recent structured warnings (bounded; oldest dropped first).
  std::vector<std::string> warnings() const;

 private:
  void warn(std::string message);
  std::uint64_t scan_directory_bytes() const;

  DiskCacheOptions options_;
  mutable std::mutex mutex_;
  DiskCacheStats stats_;
  std::vector<std::string> warnings_;
  std::uint64_t temp_counter_ = 0;
};

}  // namespace decompeval::cluster
