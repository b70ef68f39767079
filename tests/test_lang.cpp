// Lexer / parser / printer / analysis tests for the mini-C subset,
// including the requirement that every study-snippet variant parses and
// that hostile nesting is a ParseError, never a stack overflow.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/analysis.h"
#include "lang/cfg.h"
#include "lang/dataflow.h"
#include "lang/interp.h"
#include "lang/lexer.h"
#include "lang/lint.h"
#include "lang/parser.h"
#include "lang/passes.h"
#include "lang/printer.h"
#include "snippets/snippet.h"
#include "util/check.h"

namespace {

using namespace decompeval::lang;

TEST(Lexer, TokenKindsAndLines) {
  const auto tokens = lex("int x = 0x1fLL; // comment\n\"str\" '\\n' ->");
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_TRUE(tokens[0].is_identifier("int"));
  EXPECT_TRUE(tokens[1].is_identifier("x"));
  EXPECT_TRUE(tokens[2].is_punct("="));
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "0x1fLL");
  EXPECT_EQ(tokens[5].kind, TokenKind::kString);
  EXPECT_EQ(tokens[5].span.line, 2);
  EXPECT_EQ(tokens[5].span.col, 1);
  EXPECT_EQ(tokens[6].kind, TokenKind::kCharLiteral);
  EXPECT_TRUE(tokens[7].is_punct("->"));
  EXPECT_EQ(tokens.back().kind, TokenKind::kEndOfFile);
}

TEST(Lexer, BlockCommentsAndErrors) {
  const auto tokens = lex("a /* multi\nline */ b");
  EXPECT_EQ(tokens.size(), 3u);  // a, b, EOF
  EXPECT_THROW(lex("\"unterminated"), decompeval::PreconditionError);
  EXPECT_THROW(lex("/* unterminated"), decompeval::PreconditionError);
}

TEST(Parser, SimpleFunction) {
  const Function fn = parse_function(
      "int add(int a, int b) { return a + b; }");
  EXPECT_EQ(fn.name, "add");
  EXPECT_EQ(fn.return_type, "int");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "a");
  ASSERT_EQ(fn.body->body.size(), 1u);
  EXPECT_EQ(fn.body->body[0]->kind, StmtKind::kReturn);
}

TEST(Parser, HexRaysCastSoup) {
  const Function fn = parse_function(
      "__int64 f(__int64 a1) {\n"
      "  __int64 v7;\n"
      "  v7 = *(_QWORD *)(8LL * 2 + *(_QWORD *)(a1 + 8));\n"
      "  return v7;\n"
      "}");
  EXPECT_EQ(fn.name, "f");
  const auto features = structural_features(fn);
  EXPECT_GE(features.cast_count, 2);
  EXPECT_GE(features.pointer_deref_count, 2);
}

TEST(Parser, FunctionPointerParameter) {
  const ParseOptions opts{{"node"}};
  const Function fn = parse_function(
      "int walk(node *root, int (*visit)(void *aux, node *n), void *aux) "
      "{ return visit(aux, root); }",
      opts);
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[1].name, "visit");
  EXPECT_NE(fn.params[1].type_text.find("(*)"), std::string::npos);
}

TEST(Parser, ControlFlowStatements) {
  const Function fn = parse_function(
      "void f(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (i == 3) continue;\n"
      "    while (n > 0) { n = n - 1; break; }\n"
      "  }\n"
      "  do { n = n + 1; } while (n < 0);\n"
      "}");
  const auto features = structural_features(fn);
  EXPECT_EQ(features.loop_count, 3);
  EXPECT_EQ(features.branch_count, 1);
  EXPECT_GE(features.max_nesting_depth, 2);
}

TEST(Parser, TernaryAndCompoundAssignment) {
  const Function fn = parse_function(
      "int f(int a, int b) { a += b ? 1 : 2; a <<= 1; return a; }");
  EXPECT_EQ(fn.body->body.size(), 3u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_function("int f(int a) {\n  return a +;\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// -- Nesting budget --------------------------------------------------------

std::string repeat(const std::string& s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

struct NestedShape {
  std::string name;
  std::string source;
};

// Each shape n levels deep. The first three overflowed the stack at
// 100,000 levels before the budget existed; the chains build equally deep
// trees without recursing in the parser.
std::vector<NestedShape> nested_shapes(std::size_t n) {
  const std::string head = "int f(int a1) { ";
  return {
      {"parentheses",
       head + "return " + repeat("(", n) + "a1" + repeat(")", n) + "; }"},
      {"unary minus", head + "return " + repeat("- ", n) + "a1; }"},
      {"blocks", head + repeat("{", n) + repeat("}", n) + " return a1; }"},
      {"nested if", head + repeat("if (a1) ", n) + "a1 = 0; return a1; }"},
      {"operator chain", head + "return a1" + repeat(" + a1", n) + "; }"},
      {"postfix chain", head + "return a1" + repeat("[0]", n) + "; }"},
  };
}

TEST(ParserNesting, HostileDepthIsAParseErrorWithASpan) {
  for (const NestedShape& shape : nested_shapes(100000)) {
    try {
      parse_function(shape.source);
      ADD_FAILURE() << shape.name << " parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << shape.name << ": " << e.what();
      EXPECT_TRUE(e.span().valid()) << shape.name;
      EXPECT_LT(e.span().begin, shape.source.size()) << shape.name;
      EXPECT_LE(e.span().end, shape.source.size()) << shape.name;
    }
  }
}

TEST(ParserNesting, BudgetIsTheDocumentedDepth) {
  const auto parens = [](std::size_t n) {
    return "int f(int a1) { return " + repeat("(", n) + "a1" +
           repeat(")", n) + "; }";
  };
  EXPECT_NO_THROW(parse_function(parens(kMaxNestingDepth - 8)));
  EXPECT_THROW(parse_function(parens(kMaxNestingDepth)), ParseError);
  // A syntax error keeps its span too.
  try {
    parse_function("int f(int a1) {\n  return a1 +;\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.span().line, 2);
  }
}

TEST(ParserNesting, DeepestAcceptedTreesSurviveEveryPass) {
  // Each shape at the deepest level the budget admits goes through every
  // recursive walk the tree gets: lint (with dataflow and the passes),
  // printer, CFG, interpreter, clone and destruction.
  const std::size_t n_shapes = nested_shapes(1).size();
  for (std::size_t k = 0; k < n_shapes; ++k) {
    std::size_t n = kMaxNestingDepth;
    Function fn;
    for (;; --n) {
      ASSERT_GT(n, kMaxNestingDepth / 2) << nested_shapes(1)[k].name;
      try {
        fn = parse_function(nested_shapes(n)[k].source);
        break;
      } catch (const ParseError&) {
      }
    }
    lint_function(fn);
    analyze_dataflow(fn);
    const Cfg cfg = build_cfg(fn);
    summarize_passes(fn, cfg);
    structural_features(fn);
    EXPECT_FALSE(to_source(fn).empty());
    const StmtPtr copy = clone(*fn.body);
    try {
      Machine machine;
      machine.call(fn, {1});
    } catch (const InterpError&) {
      // Indexing a non-pointer is a runtime error; the walk still ran.
    }
  }
}

// Wrapping a function body in k more blocks puts k more levels on every
// path, so the most blocks it still parses inside is the budget's margin
// over the function's own nesting.
std::size_t nesting_margin(const std::string& source,
                           const ParseOptions& options) {
  const auto parses = [&](std::size_t k) {
    const std::size_t open = source.find('{');
    const std::size_t close = source.rfind('}');
    const std::string wrapped =
        source.substr(0, open + 1) + repeat("{", k) +
        source.substr(open + 1, close - open - 1) + repeat("}", k) +
        source.substr(close);
    try {
      parse_function(wrapped, options);
      return true;
    } catch (const ParseError&) {
      return false;
    }
  };
  std::size_t fits = 0, fails = kMaxNestingDepth + 1;
  while (fails - fits > 1) {
    const std::size_t mid = (fits + fails) / 2;
    (parses(mid) ? fits : fails) = mid;
  }
  return fits;
}

TEST(ParserNesting, StudySnippetsNestFarInsideTheBudget) {
  // Every variant of every study snippet peaks at 15 levels or fewer.
  for (const auto& snippet : decompeval::snippets::study_snippets())
    for (const auto variant : {decompeval::snippets::Variant::kOriginal,
                               decompeval::snippets::Variant::kHexRays,
                               decompeval::snippets::Variant::kDirty})
      EXPECT_GE(nesting_margin(snippet.source(variant), snippet.parse_options),
                kMaxNestingDepth - 15)
          << snippet.id << " variant " << static_cast<int>(variant);
}

TEST(ParserNesting, LongestLadderAndChainsThatStillParse) {
  // Each else-if arm nests one statement deeper and each operand of a
  // left-associative chain one expression deeper, so the budget caps them
  // too: 252 else-if arms, 254 terms of && or +.
  const auto ladder = [](std::size_t arms) {
    std::string s = "int f(int a1) { if (a1 == 0) return 0;";
    for (std::size_t i = 1; i <= arms; ++i)
      s += " else if (a1 == " + std::to_string(i) + ") return 1;";
    return s + " return 2; }";
  };
  const auto chain = [](const std::string& op, std::size_t terms) {
    return "int f(int a1) { if (a1" + repeat(" " + op + " a1", terms - 1) +
           ") return 1; return 0; }";
  };
  EXPECT_NO_THROW(parse_function(ladder(kMaxNestingDepth - 4)));
  EXPECT_THROW(parse_function(ladder(kMaxNestingDepth - 3)), ParseError);
  for (const std::string op : {"&&", "+"}) {
    EXPECT_NO_THROW(parse_function(chain(op, kMaxNestingDepth - 2))) << op;
    EXPECT_THROW(parse_function(chain(op, kMaxNestingDepth - 1)), ParseError)
        << op;
  }
}

TEST(Parser, TypeHeuristics) {
  std::set<std::string> typedefs = {"buffer"};
  EXPECT_TRUE(is_type_like_name("size_t", {}));
  EXPECT_TRUE(is_type_like_name("_QWORD", {}));
  EXPECT_TRUE(is_type_like_name("__int64", {}));
  EXPECT_TRUE(is_type_like_name("buffer", typedefs));
  EXPECT_FALSE(is_type_like_name("buffer", {}));
  EXPECT_FALSE(is_type_like_name("index", {}));
}

// Every variant of every study snippet must parse.
class SnippetParsing
    : public ::testing::TestWithParam<
          std::tuple<std::string, decompeval::snippets::Variant>> {};

TEST_P(SnippetParsing, Parses) {
  const auto& [snippet_id, variant] = GetParam();
  const auto& snippet = decompeval::snippets::snippet_by_id(snippet_id);
  const Function fn =
      parse_function(snippet.source(variant), snippet.parse_options);
  EXPECT_EQ(fn.name, snippet.function_name);
  EXPECT_GE(fn.params.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSnippets, SnippetParsing,
    ::testing::Combine(
        ::testing::Values("AEEK", "BAPL", "TC", "POSTORDER"),
        ::testing::Values(decompeval::snippets::Variant::kOriginal,
                          decompeval::snippets::Variant::kHexRays,
                          decompeval::snippets::Variant::kDirty)));

// Printer round-trip: print → reparse → identical normalized structure.
class PrinterRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<std::string, decompeval::snippets::Variant>> {};

TEST_P(PrinterRoundTrip, PreservesStructure) {
  const auto& [snippet_id, variant] = GetParam();
  const auto& snippet = decompeval::snippets::snippet_by_id(snippet_id);
  const Function original =
      parse_function(snippet.source(variant), snippet.parse_options);
  const std::string printed = to_source(original);
  const Function reparsed = parse_function(printed, snippet.parse_options);
  EXPECT_EQ(subtree_signatures(original), subtree_signatures(reparsed))
      << printed;
  EXPECT_EQ(dataflow_edges(original), dataflow_edges(reparsed));
}

INSTANTIATE_TEST_SUITE_P(
    AllSnippets, PrinterRoundTrip,
    ::testing::Combine(
        ::testing::Values("AEEK", "BAPL", "TC", "POSTORDER"),
        ::testing::Values(decompeval::snippets::Variant::kOriginal,
                          decompeval::snippets::Variant::kHexRays,
                          decompeval::snippets::Variant::kDirty)));

TEST(Dataflow, StraightLineDefUse) {
  const Function fn = parse_function(
      "int f(int a) {\n"
      "  int x = a;\n"   // def a@0(param)... use a, def x
      "  int y = x;\n"   // use x → def of x
      "  return y;\n"    // use y → def of y
      "}");
  const auto edges = dataflow_edges(fn);
  EXPECT_EQ(edges.size(), 3u);  // a→use, x→use, y→use
}

TEST(Dataflow, CompoundAssignmentReadsTarget) {
  const Function fn = parse_function(
      "int f(int a) { a += 1; return a; }");
  const auto edges = dataflow_edges(fn);
  // `a += 1` uses the parameter def, then redefines; `return a` uses the
  // new def.
  EXPECT_EQ(edges.size(), 2u);
}

TEST(Dataflow, RenamingIsInvariant) {
  const Function f1 = parse_function("int f(int a) { int b = a; return b; }");
  const Function f2 = parse_function("int f(int x) { int y = x; return y; }");
  EXPECT_EQ(dataflow_edges(f1), dataflow_edges(f2));
}

TEST(Features, CountsCallsAndLiterals) {
  const Function fn = parse_function(
      "int f(int a) {\n"
      "  g(a, 1);\n"
      "  h(\"text\");\n"
      "  return 42;\n"
      "}");
  const auto features = structural_features(fn);
  EXPECT_EQ(features.call_count, 2);
  EXPECT_EQ(features.callee_names,
            (std::vector<std::string>{"g", "h"}));
  EXPECT_EQ(features.string_literal_count, 1);
  EXPECT_EQ(features.numeric_literal_count, 2);
  EXPECT_EQ(features.return_count, 1);
}

TEST(Analysis, IdentifierOccurrencesInOrder) {
  const Function fn = parse_function("int f(int a) { int b = a; return b; }");
  const auto ids = identifier_occurrences(fn);
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Clone, DeepCopiesFunctionBody) {
  const Function fn = parse_function("int f(int a) { return a + 1; }");
  const StmtPtr copy = clone(*fn.body);
  EXPECT_EQ(subtree_signatures(fn),
            subtree_signatures(fn));  // sanity
  // The copy is structurally identical.
  Function shadow;
  shadow.return_type = fn.return_type;
  shadow.name = fn.name;
  shadow.params = fn.params;
  shadow.body = clone(*fn.body);
  EXPECT_EQ(subtree_signatures(fn), subtree_signatures(shadow));
}

}  // namespace
