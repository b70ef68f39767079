// RenderedLineCache: the in-memory result tier.
//
// An LRU from a request's canonical key (the key the disk cache digests)
// to its rendered response line, no newline. Json::dump is deterministic,
// so a cached line is byte-for-byte what the server would write, and a
// hit is appended straight to a connection's write buffer.
//
// Its one user is ServiceCore's result tier, read by the server's fast
// path and by ClusterBackend in front of its disk. Thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "service/json.h"
#include "util/lru.h"

namespace decompeval::service {

class RenderedLineCache {
 public:
  /// Capacity in entries.
  explicit RenderedLineCache(std::size_t capacity);

  /// Appends the line cached for `request` to `out` and returns true;
  /// false, leaving `out` untouched, on a miss.
  bool find(const Json& request, std::string& out);
  /// Caches `response`, rendered, for `request` (replacing; LRU-evicting
  /// past capacity).
  void put(const Json& request, const Json& response);

  std::size_t capacity() const { return lines_.capacity(); }
  std::size_t size() const;
  std::uint64_t evictions() const;

 private:
  mutable std::mutex mutex_;
  util::LruCache<std::string, std::string> lines_;
};

}  // namespace decompeval::service
