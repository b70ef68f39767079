// Recursive-descent parser for the C subset produced by decompilers.
//
// Handles declarations, the full statement set in ast.h, and a complete
// expression precedence ladder including casts, which Hex-Rays output uses
// heavily (e.g. `*(_QWORD *)(8LL * index + *(_QWORD *)(a1 + 8))`).
//
// Cast-vs-parenthesized-expression ambiguity is resolved with the usual
// pragmatic heuristic: a parenthesized token run is a type if it starts
// with a known type name (builtins, registered typedefs, `*_t`-suffixed or
// `_`-prefixed Hex-Rays names) and consists only of type-ish tokens.
#pragma once

#include <set>
#include <string>
#include <string_view>

#include "lang/ast.h"

namespace decompeval::lang {

/// Thrown on malformed input. The message names the offending line and
/// column; span() is the offending token or construct.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, const SourceSpan& span)
      : std::runtime_error(message), span_(span) {}
  const SourceSpan& span() const { return span_; }

 private:
  SourceSpan span_;
};

/// Deepest nesting parse_function accepts, counted along any root-to-leaf
/// path of the tree: statements inside statements, expressions inside
/// expressions (parentheses, operands, chained operators) and statements
/// around an expression all count one level each. Deeper input throws
/// ParseError instead of exhausting the stack (see parser.cpp).
inline constexpr std::size_t kMaxNestingDepth = 256;

struct ParseOptions {
  /// Additional names to treat as type names (per-snippet typedefs such as
  /// `array_t_0`, `tree234`, `cmpfn234`, `buffer`, `data_unset`).
  std::set<std::string> typedef_names;
};

/// Parses a single function definition.
Function parse_function(std::string_view source,
                        const ParseOptions& options = {});

/// True if `name` looks like a type name to the heuristic.
bool is_type_like_name(const std::string& name,
                       const std::set<std::string>& typedefs);

}  // namespace decompeval::lang
