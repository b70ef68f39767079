#include "streaming/state.h"

#include <bit>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace decompeval::streaming {

namespace {

std::size_t arm(study::Treatment t) {
  return t == study::Treatment::kDirty ? 1 : 0;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void append_u64_line(std::string& out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_bits_line(std::string& out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %016llx\n", key,
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

void snapshot_counts(std::string& out, const char* prefix,
                     const TreatmentCounts& c) {
  std::string key(prefix);
  const std::size_t base = key.size();
  const auto put = [&](const char* name, std::uint64_t v) {
    key.resize(base);
    key += name;
    append_u64_line(out, key.c_str(), v);
  };
  put("arrivals", c.arrivals);
  put("answered", c.answered);
  put("gradeable", c.gradeable);
  put("correct", c.correct);
  put("opinions", c.opinions);
  for (int i = 0; i < 5; ++i) {
    key.resize(base);
    key += "likert_name_";
    key += static_cast<char>('1' + i);
    append_u64_line(out, key.c_str(), c.likert_name[i]);
  }
  for (int i = 0; i < 5; ++i) {
    key.resize(base);
    key += "likert_type_";
    key += static_cast<char>('1' + i);
    append_u64_line(out, key.c_str(), c.likert_type[i]);
  }
}

}  // namespace

void TreatmentCounts::add(const Arrival& a) {
  ++arrivals;
  if (a.answered) ++answered;
  if (a.gradeable) ++gradeable;
  if (a.gradeable && a.correct) ++correct;
  if (a.has_opinion) {
    ++opinions;
    ++likert_name[a.likert_name - 1];
    ++likert_type[a.likert_type - 1];
  }
}

void TreatmentCounts::remove(const Arrival& a) {
  --arrivals;
  if (a.answered) --answered;
  if (a.gradeable) --gradeable;
  if (a.gradeable && a.correct) --correct;
  if (a.has_opinion) {
    --opinions;
    --likert_name[a.likert_name - 1];
    --likert_type[a.likert_type - 1];
  }
}

StreamState::StreamState(WindowOptions options) : window_options_(options) {}

void StreamState::absorb(const Arrival& a) {
  if (a.has_opinion &&
      (a.likert_name < 1 || a.likert_name > 5 || a.likert_type < 1 ||
       a.likert_type > 5))
    throw std::runtime_error("absorb: Likert rating out of range");
  const std::size_t t = arm(a.treatment);
  lifetime_counts_[t].add(a);
  if (a.answered) {
    lifetime_sums_[t].sum_seconds += a.seconds;
    lifetime_sums_[t].sum_sq_seconds += a.seconds * a.seconds;
  }
  window_counts_[t].add(a);
  window_.push_back(a);
  ++absorbed_;
  newest_virtual_us_ = a.virtual_us;

  if (window_options_.max_events > 0)
    while (window_.size() > window_options_.max_events) evict_front();
  if (window_options_.max_age_us > 0)
    while (!window_.empty() &&
           window_.front().virtual_us + window_options_.max_age_us <
               newest_virtual_us_)
      evict_front();
}

void StreamState::evict_front() {
  const Arrival& a = window_.front();
  window_counts_[arm(a.treatment)].remove(a);
  window_.pop_front();
  ++evicted_;
}

const TreatmentCounts& StreamState::window_counts(study::Treatment t) const {
  return window_counts_[arm(t)];
}

const TreatmentCounts& StreamState::lifetime_counts(study::Treatment t) const {
  return lifetime_counts_[arm(t)];
}

const TreatmentSums& StreamState::lifetime_sums(study::Treatment t) const {
  return lifetime_sums_[arm(t)];
}

std::string StreamState::digest() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(snapshot())));
  return buf;
}

std::string StreamState::snapshot() const {
  std::string out = "stream_state_v1\n";
  append_u64_line(out, "max_events", window_options_.max_events);
  append_u64_line(out, "max_age_us", window_options_.max_age_us);
  append_u64_line(out, "absorbed", absorbed_);
  append_u64_line(out, "evicted", evicted_);
  append_u64_line(out, "newest_virtual_us", newest_virtual_us_);
  for (int t = 0; t < 2; ++t) {
    const char* prefix = t == 0 ? "hexrays_" : "dirty_";
    snapshot_counts(out, prefix, lifetime_counts_[t]);
    append_bits_line(out, (std::string(prefix) + "sum_seconds").c_str(),
                     lifetime_sums_[t].sum_seconds);
    append_bits_line(out, (std::string(prefix) + "sum_sq_seconds").c_str(),
                     lifetime_sums_[t].sum_sq_seconds);
  }
  append_u64_line(out, "window", window_.size());
  for (const Arrival& a : window_) {
    out += a.serialize();
    out += '\n';
  }
  return out;
}

}  // namespace decompeval::streaming
