// Minimal JSON value type for the replication service's line-delimited
// wire protocol. Deliberately small: null/bool/number/string/array/object,
// insertion-ordered objects, and a deterministic dump() (every double is
// printed with %.17g, so the same value always serializes to the same
// bytes — the chaos suite compares service output digests bit-for-bit).
// Not a general-purpose JSON library: no comments, no \uXXXX surrogate
// pairs beyond the BMP, numbers parse via strtod.
//
// Allocation model: every node and string is an ordinary heap value, so a
// copy is a deep copy and a move steals storage. Rendering appends into a
// caller-owned buffer via dump_to(), so a connection reuses one output
// string for its whole lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace decompeval::service {

/// Thrown by Json::parse on malformed input. The server maps it to a
/// structured "bad_request" response, never a dropped connection.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Json>;

  Json() = default;  ///< null
  static Json boolean(bool v);
  static Json number(double v);
  static Json string(std::string_view v);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements

  // -- object interface (insertion-ordered) ------------------------------
  /// Sets `key` (replacing in place if present, appending otherwise).
  void set(std::string_view key, Json value);
  /// Pointer to the value at `key`, or nullptr. Object-typed values only.
  const Json* get(std::string_view key) const;
  const std::vector<Member>& members() const;

  // -- object lookup helpers with defaults (missing key => fallback) -----
  double get_number(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;
  std::string get_string(std::string_view key, std::string fallback) const;
  /// A count field: a finite, integral number in [0, max], or `fallback`
  /// when the field is missing. Throws JsonError (a "bad_request" answer
  /// at every layer) for anything else — a non-number, a negative,
  /// fractional or non-finite value, or one above `max` — so no caller
  /// ever casts such a double to an integer.
  std::uint64_t get_count(std::string_view key, std::uint64_t fallback,
                          std::uint64_t max = UINT64_MAX) const;
  /// get_count for a field that must also be at least 1 (a size).
  std::uint64_t get_positive_count(std::string_view key,
                                   std::uint64_t fallback,
                                   std::uint64_t max = UINT64_MAX) const;

  // -- array interface ---------------------------------------------------
  void push_back(Json value);

  /// Serializes to a single line (no embedded newlines; strings escape
  /// control characters). Deterministic for a given value.
  std::string dump() const;
  /// Appends the serialization to `out` — the hot path's form: one
  /// reusable buffer per server loop instead of a string per node.
  void dump_to(std::string& out) const;

  /// Parses one JSON document; trailing whitespace allowed, trailing
  /// garbage is an error.
  static Json parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<Member> object_;
};

/// {"status": "ok"}, then {"op": op} when `op` is non-empty: the head of
/// every success answer a layer builds itself (callers append fields).
Json ok_response(std::string_view op = {});

/// {"status": status, "error": error}: the head every structured failure
/// answer starts from (callers append their own fields after it).
Json failure_response(std::string_view status, std::string_view error);

/// Sets `key` on `object` to the counter `value` (stats and payload
/// counts).
void set_count(Json& object, std::string_view key, std::uint64_t value);

/// A JSON array of `items` as strings (notes, warnings).
Json string_array(const std::vector<std::string>& items);

/// Copies the request's string "op" into `response`: every answer names
/// the op it answers.
void echo_op(Json& response, const Json& request);

/// Canonical request key: the request's non-volatile fields ("threads",
/// "no_cache", "deadline_ms" and "baseline" are excluded — they shape how
/// a request is served, never what it computes), sorted by key, rendered
/// as `key=value;...`. Routing, the disk cache, and the in-memory result
/// tier all key on this, so a logical request always lands on the same
/// backend and the same cache slots. The append form reuses the
/// caller's buffer; the hot path calls it with a reused scratch string.
void canonical_request_key(const Json& request, std::string& out);
std::string canonical_request_key(const Json& request);

/// Copy of `request` with the volatile fields removed (same exclusion
/// set as canonical_request_key) — the *durable command form* the
/// cluster layer journals and replicates. Re-issuing it on any backend,
/// at any thread count, recomputes the same canonical key and a
/// bit-identical result, which is what makes journal replay and a
/// replica's copy of a stream write equivalent to the original request.
/// Non-objects copy as-is.
Json strip_volatile_fields(const Json& request);

}  // namespace decompeval::service
