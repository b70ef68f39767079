// Served "annotate" op tests: the ServiceCore payload is bit-identical to
// offline lint at every thread count, incremental (warm, baseline-routed)
// annotation equals from-scratch annotation, annotate.* faults degrade a
// single function rather than the response wholesale, and the edit
// baseline steers routing without ever entering cache keys.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis_service/annotation_engine.h"
#include "lang/lint.h"
#include "lang/parser.h"
#include "service/json.h"
#include "service/service.h"
#include "snippets/snippet.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using service::Json;
using service::ServiceCore;
using service::ServiceOptions;

const char* kTwoFunctions =
    "int first(int a1) { int v5; v5 = a1; return v5 + v5; }\n"
    "\n"
    "int second(int a2) {\n  int dead = a2;\n  return a2;\n}\n";

Json annotate_request(const std::string& source, std::size_t threads = 1) {
  Json r = Json::object();
  r.set("op", Json::string("annotate"));
  r.set("source", Json::string(source));
  r.set("threads", Json::number(static_cast<double>(threads)));
  return r;
}

// ------------------------------------------------------------ basic shape

TEST(AnnotateOp, ReturnsOffsetMappedFunctions) {
  ServiceCore core;
  const Json r = core.handle(annotate_request(kTwoFunctions));
  ASSERT_EQ(r.get_string("status", ""), "ok");
  EXPECT_EQ(r.get_string("op", ""), "annotate");
  EXPECT_EQ(r.get_number("n_functions", 0), 2);
  const Json* functions = r.get("functions");
  ASSERT_NE(functions, nullptr);
  const std::string source = kTwoFunctions;
  ASSERT_EQ(functions->items().size(), 2u);
  EXPECT_EQ(functions->items()[0].get_string("name", ""), "first");
  EXPECT_EQ(functions->items()[1].get_string("name", ""), "second");
  for (const Json& f : functions->items()) {
    EXPECT_TRUE(f.get_bool("parsed", false));
    const Json* span = f.get("span");
    ASSERT_NE(span, nullptr);
    const auto begin = static_cast<std::size_t>(span->get_number("begin", -1));
    const auto end = static_cast<std::size_t>(span->get_number("end", 0));
    ASSERT_LE(end, source.size());
    // The function's span reproduces its slice of the submitted source.
    EXPECT_EQ(source.substr(begin, end - begin).find("int "), 0u);
    const Json* annotations = f.get("annotations");
    ASSERT_NE(annotations, nullptr);
    EXPECT_FALSE(annotations->items().empty());
    for (const Json& a : annotations->items()) {
      const Json* aspan = a.get("span");
      ASSERT_NE(aspan, nullptr);
      EXPECT_LE(static_cast<std::size_t>(aspan->get_number("end", 0)),
                source.size());
    }
  }
}

TEST(AnnotateOp, MissingSourceIsBadRequest) {
  ServiceCore core;
  Json r = Json::object();
  r.set("op", Json::string("annotate"));
  EXPECT_EQ(core.handle(r).get_string("status", ""), "bad_request");
}

TEST(AnnotateOp, UnparsableSourceIsStillOkAndDeterministic) {
  ServiceCore core;
  const Json r1 = core.handle(annotate_request("int broken(int a { return"));
  ASSERT_EQ(r1.get_string("status", ""), "ok");
  const Json* functions = r1.get("functions");
  ASSERT_NE(functions, nullptr);
  ASSERT_GE(functions->items().size(), 1u);
  EXPECT_FALSE(functions->items()[0].get_bool("parsed", true));
  EXPECT_NE(functions->items()[0].get_string("note", ""), "");
  const Json r2 = core.handle(annotate_request("int broken(int a { return"));
  EXPECT_EQ(r1.dump(), r2.dump());
}

TEST(AnnotateOp, HostileNestingAnswersOkWithTheFunctionUnparsed) {
  // 100,000 levels of each shape overflowed the backend's stack before
  // the parser had a nesting budget; now each is an ordinary parse error.
  const auto repeat = [](const std::string& s, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += s;
    return out;
  };
  const std::size_t n = 100000;
  const std::string head = "int f(int a1) { ";
  ServiceCore core;
  for (const std::string& source :
       {head + "return " + repeat("(", n) + "a1" + repeat(")", n) + "; }",
        head + "return " + repeat("- ", n) + "a1; }",
        head + repeat("{", n) + repeat("}", n) + " return a1; }"}) {
    const Json r = core.handle(annotate_request(source));
    ASSERT_EQ(r.get_string("status", ""), "ok");
    const Json* functions = r.get("functions");
    ASSERT_NE(functions, nullptr);
    ASSERT_EQ(functions->items().size(), 1u);
    EXPECT_FALSE(functions->items()[0].get_bool("parsed", true));
    EXPECT_NE(functions->items()[0].get_string("note", "").find(
                  "nesting deeper than"),
              std::string::npos);
  }
}

// ------------------------------------------- served == offline lint

TEST(AnnotateOp, ServedDiagnosticsMatchOfflineLintAtEveryThreadCount) {
  // Single-function sources: slice-relative == absolute, so the served
  // spans must equal lang::lint_function verbatim. Paper snippets cover
  // the real artifact mix (typedefs included via the request).
  for (const auto& s : snippets::study_snippets()) {
    for (const std::string* source : {&s.hexrays_source, &s.dirty_source}) {
      const auto fn = lang::parse_function(*source, s.parse_options);
      const auto offline = lang::lint_function(fn);

      std::string dump1;
      for (const std::size_t threads : {1u, 2u, 4u}) {
        ServiceCore core;  // fresh core: no cross-thread-count caching
        Json request = annotate_request(*source, threads);
        Json typedefs = Json::array();
        for (const auto& name : s.parse_options.typedef_names)
          typedefs.push_back(Json::string(name));
        request.set("typedefs", typedefs);
        const Json r = core.handle(request);
        ASSERT_EQ(r.get_string("status", ""), "ok") << s.id;
        if (threads == 1)
          dump1 = r.dump();
        else
          EXPECT_EQ(r.dump(), dump1) << s.id << " threads " << threads;

        const Json* functions = r.get("functions");
        ASSERT_NE(functions, nullptr);
        ASSERT_EQ(functions->items().size(), 1u) << s.id;
        std::vector<Json> served;
        for (const Json& a : functions->items()[0].get("annotations")->items())
          if (a.get_string("kind", "") != "name-suggestion")
            served.push_back(a);
        ASSERT_EQ(served.size(), offline.size()) << s.id;
        for (std::size_t i = 0; i < offline.size(); ++i) {
          EXPECT_EQ(served[i].get_string("code", ""), offline[i].code);
          EXPECT_EQ(served[i].get_string("symbol", ""), offline[i].symbol);
          EXPECT_EQ(served[i].get_string("message", ""), offline[i].message);
          const Json* span = served[i].get("span");
          ASSERT_NE(span, nullptr);
          EXPECT_EQ(static_cast<std::size_t>(span->get_number("begin", -1)),
                    offline[i].span.begin);
          EXPECT_EQ(static_cast<std::size_t>(span->get_number("end", -1)),
                    offline[i].span.end);
          EXPECT_EQ(static_cast<int>(span->get_number("line", -1)),
                    offline[i].span.line);
          EXPECT_EQ(static_cast<int>(span->get_number("col", -1)),
                    offline[i].span.col);
        }
      }
    }
  }
}

// --------------------------------------------------- incremental serving

TEST(AnnotateOp, IncrementalWithBaselineEqualsFromScratch) {
  const std::string baseline = kTwoFunctions;
  std::string edited = baseline;
  const std::size_t at = edited.find("return v5 + v5");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 14, "return v5 * v5");

  ServiceCore warm;  // annotated the baseline already
  ASSERT_EQ(warm.handle(annotate_request(baseline)).get_string("status", ""),
            "ok");
  Json incremental_request = annotate_request(edited);
  incremental_request.set("baseline", Json::string(baseline));
  const Json incremental = warm.handle(incremental_request);

  ServiceCore cold;
  const Json scratch = cold.handle(annotate_request(edited));
  EXPECT_EQ(incremental.dump(), scratch.dump());
}

TEST(AnnotateOp, RepeatRequestIsServedFromResultCache) {
  ServiceCore core;
  const Json r1 = core.handle(annotate_request(kTwoFunctions));
  const Json r2 = core.handle(annotate_request(kTwoFunctions));
  EXPECT_EQ(r1.dump(), r2.dump());
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("stats"));
  const Json stats = core.handle(stats_request);
  EXPECT_GE(stats.get_number("cache_hits", 0), 1);
}

TEST(AnnotateOp, CacheStatsExposeEngineCounters) {
  ServiceCore core;
  Json request = annotate_request(kTwoFunctions);
  request.set("no_cache", Json::boolean(true));  // bypass the result cache
  core.handle(request);
  core.handle(request);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("cache_stats"));
  const Json stats = core.handle(stats_request);
  ASSERT_EQ(stats.get_string("status", ""), "ok");
  EXPECT_EQ(stats.get_number("annotate_cache_misses", -1), 2);
  EXPECT_EQ(stats.get_number("annotate_cache_hits", -1), 2);
  EXPECT_EQ(stats.get_number("annotate_cache_size", -1), 2);
}

// --------------------------------------------------------- fault handling

TEST(AnnotateOp, ParseFaultDegradesOneFunctionNotTheResponse) {
  ServiceOptions options;
  options.fault_plan.set("annotate.parse", util::FaultSpec::once(1));
  options.backoff_initial_ms = 0.0;
  ServiceCore core(options);
  const Json r = core.handle(annotate_request(kTwoFunctions));
  ASSERT_EQ(r.get_string("status", ""), "degraded");
  const Json* functions = r.get("functions");
  ASSERT_NE(functions, nullptr);
  ASSERT_EQ(functions->items().size(), 2u);
  // Function 0 annotates normally; function 1 degrades with a note.
  const Json& healthy = functions->items()[0];
  const Json& hurt = functions->items()[1];
  EXPECT_TRUE(healthy.get_bool("parsed", false));
  EXPECT_FALSE(healthy.get("annotations")->items().empty());
  EXPECT_TRUE(hurt.get_bool("degraded", false));
  EXPECT_NE(hurt.get_string("note", ""), "");
  EXPECT_TRUE(hurt.get("annotations")->items().empty());
  const Json* notes = r.get("notes");
  ASSERT_NE(notes, nullptr);
  EXPECT_EQ(notes->items().size(), 1u);
}

TEST(AnnotateOp, DegradedResponsesAreNeverCached) {
  ServiceOptions options;
  options.fault_plan.set("annotate.pass", util::FaultSpec::once(0));
  options.backoff_initial_ms = 0.0;
  ServiceCore core(options);
  const Json r1 = core.handle(annotate_request(kTwoFunctions));
  EXPECT_EQ(r1.get_string("status", ""), "degraded");
  // The once() schedule has fired; the repeat computes clean — a cached
  // degraded response would wrongly resurface here.
  const Json r2 = core.handle(annotate_request(kTwoFunctions));
  EXPECT_EQ(r2.get_string("status", ""), "ok");
}

// ------------------------------------------------------- baseline routing

TEST(AnnotateRouting, BaselineIsVolatileForCachesButRoutesLikeItsSource) {
  Json plain = annotate_request(kTwoFunctions);
  Json with_baseline = annotate_request(kTwoFunctions);
  with_baseline.set("baseline", Json::string("int old(int a) { return a; }"));
  // Caches must not fragment on the baseline...
  EXPECT_EQ(service::canonical_request_key(plain),
            service::canonical_request_key(with_baseline));
  // ...but routing follows it: the baseline-carrying request routes
  // exactly like a request whose source IS the baseline.
  Json of_baseline =
      annotate_request("int old(int a) { return a; }", /*threads=*/4);
  std::string routed_with, routed_of;
  service::routing_key(with_baseline, routed_with);
  service::routing_key(of_baseline, routed_of);
  EXPECT_EQ(routed_with, routed_of);
  std::string routed_plain;
  service::routing_key(plain, routed_plain);
  EXPECT_EQ(routed_plain, service::canonical_request_key(plain));
  EXPECT_NE(routed_with, routed_plain);
}

}  // namespace
