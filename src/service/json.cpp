#include "service/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace decompeval::service {

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string_view v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = v;
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw JsonError("not a number");
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw JsonError("not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw JsonError("not an array");
  return array_;
}

void Json::set(std::string_view key, Json value) {
  if (type_ != Type::kObject) throw JsonError("not an object");
  for (auto& [k, v] : object_)
    if (k == key) {
      v = std::move(value);
      return;
    }
  object_.emplace_back(key, std::move(value));
}

const Json* Json::get(std::string_view key) const {
  if (type_ != Type::kObject) throw JsonError("not an object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<Json::Member>& Json::members() const {
  if (type_ != Type::kObject) throw JsonError("not an object");
  return object_;
}

double Json::get_number(std::string_view key, double fallback) const {
  const Json* v = get(key);
  return v && v->type_ == Type::kNumber ? v->number_ : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json* v = get(key);
  return v && v->type_ == Type::kBool ? v->bool_ : fallback;
}

std::string Json::get_string(std::string_view key, std::string fallback) const {
  const Json* v = get(key);
  if (v && v->type_ == Type::kString) return v->string_;
  return fallback;
}

std::uint64_t Json::get_count(std::string_view key, std::uint64_t fallback,
                              std::uint64_t max) const {
  const Json* v = get(key);
  if (v == nullptr) return fallback;
  const double x = v->type_ == Type::kNumber ? v->number_ : -1.0;
  // 2^64 is the first double past UINT64_MAX; every double below it
  // converts exactly once it is integral.
  if (!(x >= 0.0 && x < 18446744073709551616.0) || x != std::floor(x) ||
      static_cast<std::uint64_t>(x) > max)
    throw JsonError("field '" + std::string(key) + "' must be " +
                    (max == UINT64_MAX
                         ? std::string("a non-negative integer")
                         : "an integer in [0, " + std::to_string(max) + "]"));
  return static_cast<std::uint64_t>(x);
}

std::uint64_t Json::get_positive_count(std::string_view key,
                                       std::uint64_t fallback,
                                       std::uint64_t max) const {
  const std::uint64_t value = get_count(key, fallback, max);
  if (value == 0)
    throw JsonError("field '" + std::string(key) + "' must be at least 1");
  return value;
}

void Json::push_back(Json value) {
  if (type_ != Type::kArray) throw JsonError("not an array");
  array_.push_back(std::move(value));
}

namespace {

void dump_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";  // JSON has no Inf/NaN; null is the least-wrong spelling
        break;
      }
      char buf[40];
      // %.17g round-trips every double and is deterministic, which keeps
      // service responses byte-identical across runs.
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      out += buf;
      break;
    }
    case Type::kString:
      dump_string(string_, out);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out.push_back(',');
        array_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // Parses a string body into a view. Escape-free strings — the entire
  // wire protocol in practice — are returned as a slice of the input with
  // no copy; strings with escapes decode into `scratch_`, which is reused
  // for the whole document. The view is only valid until the next call.
  std::string_view parse_string_body() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        std::string_view body = text_.substr(start, pos_ - start);
        ++pos_;
        return body;
      }
      if (c == '\\') break;
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    scratch_.assign(text_.data() + start, pos_ - start);
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return scratch_;
      if (c != '\\') {
        scratch_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': scratch_.push_back('"'); break;
        case '\\': scratch_.push_back('\\'); break;
        case '/': scratch_.push_back('/'); break;
        case 'b': scratch_.push_back('\b'); break;
        case 'f': scratch_.push_back('\f'); break;
        case 'n': scratch_.push_back('\n'); break;
        case 'r': scratch_.push_back('\r'); break;
        case 't': scratch_.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // UTF-8 encode (BMP only; the wire protocol is ASCII in practice).
          if (code < 0x80) {
            scratch_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            scratch_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            scratch_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            scratch_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  // Recursion guard: parse_value() recurses once per container level, so
  // a hostile "[[[[..." line would otherwise overflow the stack instead of
  // surfacing as bad_request.
  static constexpr std::size_t kMaxDepth = 128;

  Json parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    Json v = parse_value_impl();
    --depth_;
    return v;
  }

  Json parse_value_impl() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return obj;
      }
      while (true) {
        skip_ws();
        // The key view may point into scratch_, which the nested
        // parse_value() overwrites — copy it out first. Key strings are
        // short, so this almost always stays in the SSO buffer.
        key_stack_.emplace_back(parse_string_body());
        skip_ws();
        expect(':');
        obj.set(key_stack_.back(), parse_value());
        key_stack_.pop_back();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos_;
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return arr;
      }
      while (true) {
        arr.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return Json::string(parse_string_body());
    if (consume_literal("true")) return Json::boolean(true);
    if (consume_literal("false")) return Json::boolean(false);
    if (consume_literal("null")) return Json();
    // Number. Copy the token out first: the view need not be
    // null-terminated, so strtod cannot run on it directly. Tokens longer
    // than the stack buffer are malformed by construction (no valid double
    // needs 63 characters) but still diagnosed through strtod.
    char token[64];
    std::size_t len = 0;
    while (pos_ < text_.size() && len + 1 < sizeof token) {
      const char n = text_[pos_];
      if ((n >= '0' && n <= '9') || n == '+' || n == '-' || n == '.' ||
          n == 'e' || n == 'E') {
        token[len++] = n;
        ++pos_;
      } else {
        break;
      }
    }
    if (len == 0) fail("expected a JSON value");
    if (len + 1 >= sizeof token) fail("numeric token too long");
    token[len] = '\0';
    char* end = nullptr;
    const double v = std::strtod(token, &end);
    if (end != token + len) fail("malformed number");
    return Json::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string scratch_;  ///< escape-decoding buffer, reused per document
  /// Object keys in flight, one slot per open object level.
  std::vector<std::string> key_stack_;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

Json ok_response(std::string_view op) {
  Json r = Json::object();
  r.set("status", Json::string("ok"));
  if (!op.empty()) r.set("op", Json::string(op));
  return r;
}

Json failure_response(std::string_view status, std::string_view error) {
  Json r = Json::object();
  r.set("status", Json::string(status));
  r.set("error", Json::string(error));
  return r;
}

void set_count(Json& object, std::string_view key, std::uint64_t value) {
  object.set(key, Json::number(static_cast<double>(value)));
}

Json string_array(const std::vector<std::string>& items) {
  Json out = Json::array();
  for (const std::string& item : items) out.push_back(Json::string(item));
  return out;
}

void echo_op(Json& response, const Json& request) {
  if (!request.is_object()) return;
  const Json* op = request.get("op");
  if (op != nullptr && op->type() == Json::Type::kString)
    response.set("op", Json::string(op->as_string()));
}

// Request fields that never change the result bytes. "threads" because
// every pipeline stage is bit-identical across thread counts (the
// property the chaos suite proves); "no_cache" and "deadline_ms" because
// they shape how the request is served, not what it computes; "baseline"
// because an annotate edit baseline only steers cluster routing — the
// annotation payload is a pure function of "source".
static bool volatile_field(std::string_view key) {
  return key == "threads" || key == "no_cache" || key == "deadline_ms" ||
         key == "baseline";
}

void canonical_request_key(const Json& request, std::string& out) {
  if (!request.is_object()) {
    request.dump_to(out);
    return;
  }
  // Json objects cannot hold duplicate keys (set() replaces), so sorting
  // the member pointers by key reproduces the historical sort of
  // (key, dump) pairs byte for byte — without a dump per field up front.
  const auto& members = request.members();
  std::size_t order[32];
  std::vector<std::size_t> order_overflow;
  std::size_t* idx = order;
  std::size_t n = 0;
  if (members.size() > 32) {
    order_overflow.resize(members.size());
    idx = order_overflow.data();
  }
  for (std::size_t i = 0; i < members.size(); ++i)
    if (!volatile_field(members[i].first)) idx[n++] = i;
  std::sort(idx, idx + n, [&](std::size_t a, std::size_t b) {
    return members[a].first < members[b].first;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [key, value] = members[idx[i]];
    out += key;
    out.push_back('=');
    value.dump_to(out);
    out.push_back(';');
  }
}

std::string canonical_request_key(const Json& request) {
  std::string out;
  canonical_request_key(request, out);
  return out;
}

Json strip_volatile_fields(const Json& request) {
  if (!request.is_object()) return request;
  Json out = Json::object();
  for (const auto& [key, value] : request.members())
    if (!volatile_field(key)) out.set(key, value);
  return out;
}

}  // namespace decompeval::service
