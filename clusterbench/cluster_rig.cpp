#include "cluster_rig.h"

#include <filesystem>
#include <stdexcept>

#include "core/replication.h"

namespace clusterbench {

namespace cluster = decompeval::cluster;
namespace service = decompeval::service;

namespace {

using Handler =
    std::function<Json(const Json&, const std::atomic<bool>*)>;
using FastPath = std::function<bool(const Json&, std::string&)>;

Handler traced_handler(Handler inner, Tracer* tracer, const char* name,
                       int where) {
  return [inner = std::move(inner), tracer, name, where](
             const Json& request, const std::atomic<bool>* cancel) {
    Span span;
    span.name = name;
    span.where = where;
    span.start_ns = now_ns();
    Json response = inner(request, cancel);
    span.end_ns = now_ns();
    span.op = intern_op(request.get_string("op", ""));
    span.key = span_key(request);
    tracer->record(span);
    return response;
  };
}

FastPath traced_fast_path(FastPath inner, Tracer* tracer, const char* name,
                          int where) {
  return [inner = std::move(inner), tracer, name, where](const Json& request,
                                                         std::string& out) {
    Span span;
    span.name = name;
    span.where = where;
    span.start_ns = now_ns();
    span.hit = inner(request, out);
    span.end_ns = now_ns();
    span.op = intern_op(request.get_string("op", ""));
    span.key = span_key(request);
    tracer->record(span);
    return span.hit;
  };
}

Json op_request(const char* op) {
  Json r = Json::object();
  r.set("op", Json::string(op));
  return r;
}

// Copies every numeric field of `response` into `out` as "<prefix>.<key>".
void collect(const Json& response, const std::string& prefix,
             std::map<std::string, double>& out) {
  for (const auto& [key, value] : response.members())
    if (value.type() == Json::Type::kNumber)
      out[prefix + "." + std::string(key)] = value.as_number();
}

}  // namespace

Rig::Rig(const std::string& dir, Tracer* tracer) : dir_(dir), tracer_(tracer) {
  std::filesystem::create_directories(dir_);
  cluster::DispatcherOptions dispatch;
  dispatch.replication_factor = 2;
  for (int i = 0; i < kBackends; ++i) {
    const std::string base = dir_ + "/b" + std::to_string(i);
    cluster::ClusterBackendOptions options;
    options.cache.directory = base + ".cache";
    options.cache.version = decompeval::core::version();
    options.journal.path = base + ".journal";
    backends_.push_back(std::make_unique<cluster::ClusterBackend>(options));

    service::ServerOptions server;
    server.socket_path = backend_socket(i);
    server.handler = backends_.back()->handler();
    server.fast_path = backends_.back()->fast_path();
    if (tracer_ != nullptr) {
      server.handler = traced_handler(std::move(server.handler), tracer_,
                                      "backend.handle", i);
      server.fast_path = traced_fast_path(std::move(server.fast_path),
                                          tracer_, "backend.fast_path", i);
    }
    servers_.push_back(std::make_unique<service::ReplicationServer>(server));
    servers_.back()->start();

    cluster::BackendEndpoint endpoint;
    endpoint.id = "backend-" + std::to_string(i);
    endpoint.socket_path = server.socket_path;
    dispatch.backends.push_back(endpoint);
  }
  dispatcher_ = std::make_unique<cluster::Dispatcher>(dispatch);
  dispatcher_->start();

  service::ServerOptions front;
  front.socket_path = front_socket();
  front.handler = dispatcher_->handler();
  front.fast_path = dispatcher_->fast_path();
  if (tracer_ != nullptr) {
    front.handler = traced_handler(std::move(front.handler), tracer_,
                                   "front.handle", -1);
    front.fast_path = traced_fast_path(std::move(front.fast_path), tracer_,
                                       "front.fast_path", -1);
  }
  front_ = std::make_unique<service::ReplicationServer>(front);
  front_->start();
}

Rig::~Rig() {
  // Outside in: no server may call into a dispatcher or backend that is
  // already gone.
  if (front_) front_->stop();
  if (dispatcher_) dispatcher_->stop();
  for (auto& server : servers_) server->stop();
}

std::string Rig::backend_socket(int i) const {
  return dir_ + "/b" + std::to_string(i) + ".sock";
}

std::map<std::string, double> Rig::read_counters(PhaseCount& phase) const {
  std::map<std::string, double> out;
  const auto ask = [&phase](service::ServiceClient& client, const char* op) {
    try {
      const Json response = client.call(op_request(op));
      phase.note(response);
      return response;
    } catch (const std::exception&) {
      phase.note_transport_failure();
      return Json::object();
    }
  };
  service::ServiceClient front;
  front.connect(front_socket());
  collect(ask(front, "cluster_stats"), "front", out);
  collect(ask(front, "server_stats"), "front", out);
  for (int i = 0; i < kBackends; ++i) {
    service::ServiceClient backend;
    backend.connect(backend_socket(i));
    const std::string prefix = "b" + std::to_string(i);
    for (const char* op : {"server_stats", "cache_stats", "journal_stats"})
      collect(ask(backend, op), prefix + "." + op, out);
  }
  return out;
}

double backend_sum(const std::map<std::string, double>& counters,
                   const std::string& field) {
  double sum = 0.0;
  for (int i = 0; i < Rig::kBackends; ++i) {
    const auto it = counters.find("b" + std::to_string(i) + "." + field);
    if (it != counters.end()) sum += it->second;
  }
  return sum;
}

}  // namespace clusterbench
