#include "service/line_cache.h"

#include <utility>

namespace decompeval::service {

RenderedLineCache::RenderedLineCache(std::size_t capacity)
    : lines_(capacity) {}

bool RenderedLineCache::find(const Json& request, std::string& out) {
  thread_local std::string key;
  key.clear();
  canonical_request_key(request, key);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string* hit = lines_.find(key);
  if (hit == nullptr) return false;
  out += *hit;
  return true;
}

void RenderedLineCache::put(const Json& request, const Json& response) {
  thread_local std::string key;
  key.clear();
  canonical_request_key(request, key);
  std::string line = response.dump();
  const std::lock_guard<std::mutex> lock(mutex_);
  lines_.put(key, std::move(line));
}

std::size_t RenderedLineCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

std::uint64_t RenderedLineCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.evictions();
}

}  // namespace decompeval::service
