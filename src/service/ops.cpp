#include "service/ops.h"

namespace decompeval::service {

namespace {

constexpr RequestLane kBatch = RequestLane::kBatch;
constexpr RequestLane kInteractive = RequestLane::kInteractive;

constexpr OpSpec kOps[] = {
    // name              lane          cacheable routing         stream_write
    // Pipeline ops, answered by ServiceCore.
    {"run_study",        kBatch,       true,  Routing::kCanonical, false},
    {"run_replication",  kBatch,       true,  Routing::kCanonical, false},
    {"annotate",         kInteractive, true,  Routing::kBaseline,  false},
    // ServiceCore introspection.
    {"ping",             kInteractive, false, Routing::kCanonical, false},
    {"stats",            kInteractive, false, Routing::kCanonical, false},
    {"cache_stats",      kInteractive, false, Routing::kCanonical, false},
    // ClusterBackend: the disk janitor, the journal.
    {"cache_gc",         kInteractive, false, Routing::kCanonical, false},
    {"journal_stats",    kInteractive, false, Routing::kCanonical, false},
    {"journal_replay",   kBatch,       false, Routing::kCanonical, false},
    // The streaming engine's op family.
    {"stream_open",      kInteractive, false, Routing::kStreamId,  true},
    {"stream_absorb",    kBatch,       false, Routing::kStreamId,  true},
    {"stream_stats",     kInteractive, false, Routing::kStreamId,  false},
    {"stream_dashboard", kInteractive, false, Routing::kStreamId,  false},
    // Dispatcher and server introspection and control.
    {"cluster_stats",    kInteractive, false, Routing::kCanonical, false},
    {"server_stats",     kInteractive, false, Routing::kCanonical, false},
    {"shutdown",         kInteractive, false, Routing::kCanonical, false},
};

}  // namespace

std::span<const OpSpec> op_table() { return kOps; }

const OpSpec* find_op(std::string_view name) {
  for (const OpSpec& spec : kOps)
    if (spec.name == name) return &spec;
  return nullptr;
}

const OpSpec* find_op(const Json& request) {
  if (!request.is_object()) return nullptr;
  const Json* op = request.get("op");
  if (op == nullptr || op->type() != Json::Type::kString) return nullptr;
  return find_op(op->as_string());
}

bool cacheable_request(const Json& request) {
  const OpSpec* spec = find_op(request);
  return spec != nullptr && spec->cacheable &&
         !request.get_bool("no_cache", false);
}

RequestLane classify_lane(const Json& request) {
  const OpSpec* spec = find_op(request);
  return spec != nullptr ? spec->lane : kInteractive;
}

void routing_key(const Json& request, std::string& out) {
  const OpSpec* spec = find_op(request);
  const Routing routing = spec != nullptr ? spec->routing : Routing::kCanonical;
  if (routing == Routing::kBaseline) {
    // Routing on a request whose source *is* the baseline produces the
    // same key, so the edited request lands where the unchanged
    // functions are already warm.
    const Json* baseline = request.get("baseline");
    if (baseline != nullptr && baseline->type() == Json::Type::kString) {
      Json surrogate = strip_volatile_fields(request);
      surrogate.set("source", *baseline);
      canonical_request_key(surrogate, out);
      return;
    }
  } else if (routing == Routing::kStreamId) {
    // Whatever else the op says ("upto", workload knobs), the stream id
    // alone picks the backend.
    const Json* stream = request.get("stream");
    if (stream != nullptr && stream->type() == Json::Type::kString) {
      out += "stream\x1f";
      out += stream->as_string();
      return;
    }
  }
  canonical_request_key(request, out);
}

}  // namespace decompeval::service
