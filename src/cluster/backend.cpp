#include "cluster/backend.h"

#include <optional>
#include <unordered_set>
#include <vector>

namespace decompeval::cluster {

namespace {

service::Json bad_request(std::string_view message) {
  return service::failure_response("bad_request", message);
}

constexpr std::size_t kMaxJournalWarnings = 16;

}  // namespace

ClusterBackend::ClusterBackend(ClusterBackendOptions options)
    : options_(std::move(options)),
      core_(options_.service),
      cache_(options_.cache),
      journal_(options_.journal),
      streaming_(&core_.faults()),
      // Serving or warming the memory tier from this layer would skip
      // service/cache fault sites and shift their deterministic hit
      // sequences.
      memory_tier_(options_.service.fault_plan.empty() &&
                   options_.cache.faults == nullptr) {
  if (!journal_.repair_warning().empty())
    journal_warnings_.push_back(journal_.repair_warning());
}

bool ClusterBackend::try_serve_cached_line(const service::Json& request,
                                           std::string& out) {
  if (!memory_tier_ || !service::cacheable_request(request) ||
      !core_.result_cache().find(request, out))
    return false;
  memory_hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::string> ClusterBackend::journal_warnings() const {
  const std::lock_guard<std::mutex> lock(journal_warn_mutex_);
  return journal_warnings_;
}

JournalReplayReport ClusterBackend::replay_journal(
    const std::atomic<bool>* cancel) {
  JournalReplayReport report;
  if (!journal_.enabled()) return report;
  journal_.flush();
  const ReplayedJournal scanned =
      Journal::replay(journal_.path(), options_.journal.faults);
  report.records = scanned.records.size();
  report.clean = scanned.clean;
  report.warning = scanned.warning;

  std::unordered_set<std::string> seen_keys;
  for (const std::string& record : scanned.records) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
    service::Json command;
    try {
      command = service::Json::parse(record);
    } catch (const std::exception&) {
      ++report.failures;
      continue;
    }
    // Only stream writes replay. Any other record (a cacheable request an
    // older binary journaled) is skipped unexecuted, so it cannot
    // crash-loop a restart.
    const service::OpSpec* spec = service::find_op(command);
    if (spec == nullptr || !spec->stream_write) continue;
    if (!seen_keys.insert(service::canonical_request_key(command)).second)
      continue;
    ++report.replayed;
    // Straight to the engine: the record is already journaled.
    const std::string status =
        streaming_.handle(command).get_string("status", "");
    if (status == "ok" || status == "degraded")
      ++report.ok;
    else
      ++report.failures;
  }
  return report;
}

service::Json ClusterBackend::cache_gc_op(const service::Json& request) {
  CacheGcOptions bounds;
  try {
    bounds.max_bytes = request.get_count("max_bytes", 0);
    // The age pass compares against a signed millisecond difference.
    bounds.max_age_ms = request.get_count("max_age_ms", 0, INT64_MAX);
  } catch (const service::JsonError& e) {
    return bad_request(e.what());
  }
  const CacheGcReport report = cache_.gc(bounds);
  service::Json r = service::ok_response("cache_gc");
  set_count(r, "files_scanned", report.files_scanned);
  set_count(r, "files_deleted", report.files_deleted);
  set_count(r, "temp_files_deleted", report.temp_files_deleted);
  set_count(r, "bytes_before", report.bytes_before);
  set_count(r, "bytes_after", report.bytes_after);
  set_count(r, "newest_kept", report.newest_kept);
  return r;
}

service::Json ClusterBackend::journal_stats_op() {
  const JournalStats s = journal_.stats();
  service::Json r = service::ok_response("journal_stats");
  r.set("enabled", service::Json::boolean(journal_.enabled()));
  set_count(r, "appends", s.appends);
  set_count(r, "append_failures", s.append_failures);
  set_count(r, "fsyncs", s.fsyncs);
  set_count(r, "bytes", s.bytes);
  r.set("warnings", service::string_array(journal_warnings()));
  return r;
}

service::Json ClusterBackend::journal_replay_op(
    const std::atomic<bool>* cancel) {
  const JournalReplayReport report = replay_journal(cancel);
  service::Json r = service::ok_response("journal_replay");
  set_count(r, "records", report.records);
  set_count(r, "replayed", report.replayed);
  set_count(r, "replay_ok", report.ok);
  set_count(r, "failures", report.failures);
  r.set("clean", service::Json::boolean(report.clean));
  if (!report.warning.empty())
    r.set("warning", service::Json::string(report.warning));
  return r;
}

service::Json ClusterBackend::handle_stream_op(const service::Json& request) {
  // A stream write is journaled as it arrived, minus its volatile fields,
  // once the engine's refusal() has passed it: every absorb carries its
  // absolute "upto", so the record is idempotent under replay dedup and
  // replica fan-out, and it replays to the same canonical key (and
  // bit-identical state) at any thread count; Json objects are
  // insertion-ordered and dump() is deterministic. Stream results are
  // time-varying and never touch the disk or memory tiers.
  if (!service::find_op(request)->stream_write)
    return streaming_.handle(request);
  if (std::optional<service::Json> refused = streaming_.refusal(request))
    return *refused;
  if (journal_.enabled() &&
      !journal_.append(service::strip_volatile_fields(request).dump())) {
    const std::lock_guard<std::mutex> lock(journal_warn_mutex_);
    if (journal_warnings_.size() >= kMaxJournalWarnings)
      journal_warnings_.erase(journal_warnings_.begin());
    journal_warnings_.push_back("journal append failed for key '" +
                                service::canonical_request_key(request) +
                                "': stream write applied but not durable");
  }
  return streaming_.handle(request);
}

service::Json ClusterBackend::handle(const service::Json& request,
                                     const std::atomic<bool>* cancel) {
  if (request.is_object()) {
    const std::string op = request.get_string("op", "");
    if (op == "cache_stats") {
      service::Json r = core_.handle(request, cancel);
      const DiskCacheStats disk = cache_.stats();
      r.set("disk_enabled", service::Json::boolean(cache_.enabled()));
      set_count(r, "disk_memory_hits",
                memory_hits_.load(std::memory_order_relaxed));
      set_count(r, "disk_hits", disk.disk_hits);
      set_count(r, "disk_misses", disk.misses);
      set_count(r, "disk_stores", disk.stores);
      set_count(r, "disk_store_failures", disk.store_failures);
      set_count(r, "disk_invalid_files", disk.invalid_files);
      set_count(r, "disk_growth_refusals", disk.growth_refusals);
      set_count(r, "disk_gc_runs", disk.gc_runs);
      set_count(r, "disk_bytes", disk.bytes);
      set_count(r, "disk_max_bytes", cache_.max_bytes());
      r.set("disk_warnings", service::string_array(cache_.warnings()));
      return r;
    }
    if (op == "cache_gc") return cache_gc_op(request);
    if (op == "journal_stats") return journal_stats_op();
    if (op == "journal_replay") return journal_replay_op(cancel);
  }
  const service::OpSpec* spec = service::find_op(request);
  if (spec != nullptr && spec->routing == service::Routing::kStreamId)
    return handle_stream_op(request);

  // Cacheable reads try the memory tier, then the disk.
  thread_local std::string line;
  line.clear();
  if (try_serve_cached_line(request, line)) return service::Json::parse(line);
  const bool try_disk = service::cacheable_request(request) && cache_.enabled();
  std::string digest;
  std::string key;
  if (try_disk) {
    key = service::canonical_request_key(request);
    digest = cache_.digest(request);
    service::Json cached;
    if (cache_.load(digest, &cached)) {
      if (memory_tier_) core_.result_cache().put(request, cached);
      return cached;
    }
  }

  service::Json response = core_.handle(request, cancel);
  if (try_disk && response.get_string("status", "") == "ok")
    cache_.store(digest, response, key);
  return response;
}

}  // namespace decompeval::cluster
