#include "service/line_cache.h"

#include <utility>
#include <vector>

namespace decompeval::service {

RenderedLineCache::RenderedLineCache(std::size_t capacity)
    : capacity_(capacity), lines_(capacity) {}

bool RenderedLineCache::find(const Json& request, std::string& out) {
  if (capacity_ == 0) return false;
  thread_local std::string key;
  key.clear();
  canonical_request_key(request, key);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string_view* hit = lines_.find(key);
  if (hit == nullptr) return false;
  out.append(hit->data(), hit->size());
  return true;
}

void RenderedLineCache::put(const Json& request, const Json& response) {
  if (capacity_ == 0) return;
  thread_local std::string key;
  thread_local std::string line;
  key.clear();
  line.clear();
  canonical_request_key(request, key);
  response.dump_to(line);
  const std::lock_guard<std::mutex> lock(mutex_);
  lines_.put(key, arena_.intern(line));
  maybe_compact();
}

std::size_t RenderedLineCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

std::uint64_t RenderedLineCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.evictions();
}

void RenderedLineCache::maybe_compact() {
  if (arena_.live_bytes() < (256u << 10)) return;
  std::size_t live = 0;
  lines_.for_each([&live](const std::string&, const std::string_view& v) {
    live += v.size();
  });
  if (arena_.live_bytes() < live * 2 + (64u << 10)) return;
  std::vector<std::pair<std::string, std::string>> survivors;
  survivors.reserve(lines_.size());
  lines_.for_each(
      [&survivors](const std::string& k, const std::string_view& v) {
        survivors.emplace_back(k, std::string(v));
      });
  lines_.clear();
  arena_.reset();
  // for_each walked most- to least-recent; reinsert in reverse so the
  // most recent entry lands back at the front.
  for (auto it = survivors.rbegin(); it != survivors.rend(); ++it)
    lines_.put(it->first, arena_.intern(it->second));
}

}  // namespace decompeval::service
