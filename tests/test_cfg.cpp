// CFG construction and worklist-dataflow diagnostics: block/edge shapes,
// cyclomatic complexity, unreachable code, and the path-sensitivity
// contracts (use-before-init only on genuinely unguarded paths, dead
// stores detected across branches, loop-carried liveness).
#include <gtest/gtest.h>

#include <algorithm>

#include "lang/cfg.h"
#include "lang/dataflow.h"
#include "lang/parser.h"

namespace {

using namespace decompeval::lang;

Cfg cfg_of(const std::string& source) {
  return build_cfg(parse_function(source));
}

DataflowDiagnostics flow_of(const std::string& source) {
  return analyze_dataflow(parse_function(source));
}

bool has_ubi(const DataflowDiagnostics& d, const std::string& name) {
  return std::any_of(d.uses_before_init.begin(), d.uses_before_init.end(),
                     [&](const UseBeforeInit& u) { return u.name == name; });
}

bool has_dead_store(const DataflowDiagnostics& d, const std::string& name) {
  return std::any_of(d.dead_stores.begin(), d.dead_stores.end(),
                     [&](const DeadStore& s) { return s.name == name; });
}

// ---------------------------------------------------------------- shapes

TEST(Cfg, StraightLineIsOneDecisionFree) {
  const Cfg cfg = cfg_of("int f(int a) { int x = a + 1; return x; }");
  EXPECT_EQ(cyclomatic_complexity(cfg), 1u);
  EXPECT_TRUE(unreachable_code_blocks(cfg).empty());
  // Entry block carries the decl and the return; its only successor is exit.
  ASSERT_FALSE(cfg.blocks[cfg.entry].items.empty());
  ASSERT_EQ(cfg.blocks[cfg.entry].succs.size(), 1u);
  EXPECT_EQ(cfg.blocks[cfg.entry].succs[0], cfg.exit);
}

TEST(Cfg, IfAddsOneDecisionWithTrueFalseEdges) {
  const Cfg cfg =
      cfg_of("int f(int a) { if (a) { a = 1; } return a; }");
  EXPECT_EQ(cyclomatic_complexity(cfg), 2u);
  // Exactly one block branches, with two successors (true first).
  std::size_t branching = 0;
  for (const auto& b : cfg.blocks) {
    if (b.condition != nullptr) {
      ++branching;
      EXPECT_EQ(b.succs.size(), 2u);
    }
  }
  EXPECT_EQ(branching, 1u);
}

TEST(Cfg, IfElseAndNestedDecisionsCount) {
  EXPECT_EQ(cyclomatic_complexity(cfg_of(
                "int f(int a) { if (a) { a = 1; } else { a = 2; } return a; }")),
            2u);
  EXPECT_EQ(cyclomatic_complexity(cfg_of("int f(int a, int b) {"
                                         "  if (a) { if (b) { a = 1; } }"
                                         "  return a; }")),
            3u);
}

TEST(Cfg, LoopsContributeBackEdges) {
  EXPECT_EQ(cyclomatic_complexity(cfg_of(
                "int f(int n) { int i = 0; while (i < n) { i = i + 1; }"
                " return i; }")),
            2u);
  EXPECT_EQ(cyclomatic_complexity(cfg_of(
                "int f(int n) { int s = 0;"
                " for (int i = 0; i < n; i = i + 1) { s = s + i; }"
                " return s; }")),
            2u);
  EXPECT_EQ(cyclomatic_complexity(cfg_of(
                "int f(int n) { int i = 0; do { i = i + 1; } while (i < n);"
                " return i; }")),
            2u);
}

TEST(Cfg, BreakAndContinueKeepTheGraphConsistent) {
  const Cfg cfg = cfg_of(
      "int f(int n) {"
      "  int s = 0;"
      "  for (int i = 0; i < n; i = i + 1) {"
      "    if (i == 3) { continue; }"
      "    if (s > 10) { break; }"
      "    s = s + i;"
      "  }"
      "  return s; }");
  EXPECT_EQ(cyclomatic_complexity(cfg), 4u);  // loop + two ifs
  EXPECT_TRUE(unreachable_code_blocks(cfg).empty());
  // Every reachable non-exit block has a successor (no dangling blocks).
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (cfg.reachable[b] && b != cfg.exit) {
      EXPECT_FALSE(cfg.blocks[b].succs.empty()) << "block " << b;
    }
  }
}

TEST(Cfg, CodeAfterReturnIsUnreachable) {
  const Cfg cfg =
      cfg_of("int f(int a) { return a; a = 2; return a; }");
  EXPECT_FALSE(unreachable_code_blocks(cfg).empty());
  // The unreachable tail does not inflate complexity of reachable code.
  EXPECT_EQ(cyclomatic_complexity(cfg), 1u);
}

TEST(Cfg, ToStringIsStable) {
  const std::string source =
      "int f(int a) { if (a) { a = 1; } return a; }";
  EXPECT_EQ(to_string(cfg_of(source)), to_string(cfg_of(source)));
  EXPECT_FALSE(to_string(cfg_of(source)).empty());
}

// ------------------------------------------------------ use-before-init

TEST(Dataflow, UseBeforeInitOnTheUnguardedPath) {
  // x is only assigned on the true branch; the false path reaches the
  // return with the uninit marker live.
  const auto d = flow_of(
      "int f(int a) { int x; if (a) { x = 1; } return x; }");
  EXPECT_TRUE(has_ubi(d, "x"));
}

TEST(Dataflow, NoUseBeforeInitWhenEveryPathAssigns) {
  const auto d = flow_of(
      "int f(int a) { int x; if (a) { x = 1; } else { x = 2; } return x; }");
  EXPECT_FALSE(has_ubi(d, "x"));
  EXPECT_TRUE(flow_of("int f(int a) { int x; x = a; return x; }")
                  .uses_before_init.empty());
}

TEST(Dataflow, LoopBodyAssignmentDoesNotGuardFirstIteration) {
  // The while body assigns x, but the use of x inside the condition-free
  // first read happens before any assignment when the loop body is
  // skipped entirely.
  const auto d = flow_of(
      "int f(int n) { int x; int i = 0;"
      " while (i < n) { x = i; i = i + 1; } return x; }");
  EXPECT_TRUE(has_ubi(d, "x"));
}

TEST(Dataflow, ArraysAreStorageNotScalars) {
  // Mirrors POSTORDER's `node *stack[64]`: element stores/loads must not
  // flag the array itself.
  const auto d = flow_of(
      "int f(int n) { int buf[4]; buf[0] = n; return buf[0]; }");
  EXPECT_TRUE(d.uses_before_init.empty());
  EXPECT_TRUE(d.dead_stores.empty());
}

// ------------------------------------------------------------ dead store

TEST(Dataflow, DeadStoreDetectedAcrossBranches) {
  // Both branches overwrite the initial value before any read.
  const auto d = flow_of(
      "int f(int a) { int x = 1; if (a) { x = 2; } else { x = 3; }"
      " return x; }");
  EXPECT_TRUE(has_dead_store(d, "x"));
  EXPECT_EQ(d.dead_stores.size(), 1u);
}

TEST(Dataflow, StoreLiveOnOnePathIsNotDead) {
  const auto d = flow_of(
      "int f(int a) { int x = 1; if (a) { x = 2; } return x; }");
  EXPECT_FALSE(has_dead_store(d, "x"));
}

TEST(Dataflow, LoopCarriedValueIsLive) {
  // s's init feeds the first iteration; i's step feeds the next test.
  const auto d = flow_of(
      "int f(int n) { int s = 0;"
      " for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }");
  EXPECT_TRUE(d.dead_stores.empty());
}

TEST(Dataflow, TrailingStoreBeforeReturnIsDead) {
  const auto d = flow_of(
      "int f(int a) { int x = a; int y = x + 1; x = 0; return y; }");
  EXPECT_TRUE(has_dead_store(d, "x"));
}

// -------------------------------------------------- unused / unreachable

TEST(Dataflow, UnusedParameterAndLocalAreReported) {
  const auto d = flow_of(
      "int f(int a, int b) { int unused_tmp; return a; }");
  ASSERT_EQ(d.unused_params.size(), 1u);
  EXPECT_EQ(d.unused_params[0].name, "b");
  EXPECT_TRUE(d.unused_params[0].span.valid());
  ASSERT_EQ(d.unused_locals.size(), 1u);
  EXPECT_EQ(d.unused_locals[0].name, "unused_tmp");
}

TEST(Dataflow, FullyUnusedLocalIsNotAlsoADeadStore) {
  const auto d = flow_of("int f(int a) { int x = a; return a; }");
  ASSERT_EQ(d.unused_locals.size(), 1u);
  EXPECT_EQ(d.unused_locals[0].name, "x");
  EXPECT_TRUE(d.dead_stores.empty());
}

TEST(Dataflow, UnreachableSpansReported) {
  const auto d = flow_of("int f(int a) {\n  return a;\n  a = 2;\n}");
  ASSERT_EQ(d.unreachable_spans.size(), 1u);
  EXPECT_EQ(d.unreachable_spans[0].line, 3);
}

TEST(Dataflow, CleanFunctionIsClean) {
  const auto d = flow_of(
      "int f(int n) { int s = 0;"
      " for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }");
  EXPECT_TRUE(d.clean());
  EXPECT_GT(d.n_defs, 0u);
  EXPECT_GT(d.n_uses, 0u);
  EXPECT_GT(d.worklist_iterations, 0u);
}

TEST(Dataflow, DiagnosticsAreDeterministic) {
  const std::string source =
      "int f(int a, int b) { int x; int y = 1; if (a) { x = 1; y = 2; }"
      " else { y = 3; } return x + y; }";
  const auto d1 = flow_of(source);
  const auto d2 = flow_of(source);
  EXPECT_EQ(d1.uses_before_init.size(), d2.uses_before_init.size());
  EXPECT_EQ(d1.dead_stores.size(), d2.dead_stores.size());
  EXPECT_EQ(d1.n_defs, d2.n_defs);
  EXPECT_EQ(d1.n_uses, d2.n_uses);
}

}  // namespace
