// The op table: one declarative row per op name the line protocol knows,
// at any layer (core, cluster backend, stream engine, dispatcher, server).
// Whether an op's answer is cached, journaled, replicated or hedged, which
// admission lane it queues in and how the dispatcher places it are read
// from its row, never from compared op names; a new op is one new row. A
// name with no row is unknown: it queues interactive, routes by its
// canonical key, and every layer answers it "bad_request".
//
//   cacheable     the answer is a pure function of the canonical request:
//                 "ok" answers live in every rendered-line tier and in the
//                 disk cache of the backend that computed them, and the
//                 dispatcher may hedge the read. It is never journaled or
//                 replicated: a lost answer is recomputed bit-identically
//                 by the next backend on the ring walk. A "no_cache" field
//                 opts one request out (cacheable_request).
//   stream_write  the command mutates stream state: every backend that
//                 executes it journals it in absolute form, and the
//                 dispatcher replicates it to the ring replicas as a
//                 command.
// A row with neither flag is never journaled, cached, replicated or
// hedged.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "service/json.h"

namespace decompeval::service {

/// Admission lane under the server's two-lane bounded queue. Batch covers
/// the long sweeps; interactive requests overtake batch under overload.
enum class RequestLane { kInteractive, kBatch };

/// What places an op on the dispatcher's ring (see routing_key).
enum class Routing {
  kCanonical,  ///< the canonical request key
  kBaseline,   ///< the canonical key with "source" replaced by "baseline"
  kStreamId,   ///< the "stream" id alone: one owner backend per stream
};

struct OpSpec {
  std::string_view name;
  RequestLane lane = RequestLane::kInteractive;
  bool cacheable = false;
  Routing routing = Routing::kCanonical;
  bool stream_write = false;
};

/// Every row, in table order.
std::span<const OpSpec> op_table();

/// The row named `name`, or nullptr.
const OpSpec* find_op(std::string_view name);
/// The row named by the request's string "op" field, or nullptr (also for
/// a non-object request or a missing or non-string "op").
const OpSpec* find_op(const Json& request);

/// The request's op is cacheable and the request carries no "no_cache".
bool cacheable_request(const Json& request);

/// The op row's lane. Unknown ops and non-objects are interactive.
RequestLane classify_lane(const Json& request);

/// Cluster routing key: the canonical request key, unless the op row
/// routes on another field. A kBaseline op ("annotate") carrying a string
/// "baseline" — the pre-edit source of the document being re-annotated —
/// routes as if its source were the baseline, so edits of one document
/// keep landing on the backend whose annotation engine is warm for it. A
/// kStreamId op carrying a string "stream" routes by that id alone, so
/// every op on one stream reaches the backend owning its session. Caches
/// always key on the canonical key: routing shapes placement, never
/// results.
void routing_key(const Json& request, std::string& out);

}  // namespace decompeval::service
