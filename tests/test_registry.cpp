// Experiment-registry tests: the paper-vs-measured record must be complete
// and, at the default seed, every shape criterion must hold.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/experiment_registry.h"

namespace {

using namespace decompeval;

class RegistryFixture : public ::testing::Test {
 protected:
  static const core::ReplicationReport& report() {
    static const core::ReplicationReport kReport = [] {
      core::ReplicationConfig config;  // default seed
      config.embedding_corpus_sentences = 8000;
      return core::run_replication(config);
    }();
    return kReport;
  }
};

TEST_F(RegistryFixture, CoversEveryTableAndFigure) {
  const auto records = core::build_experiment_records(report());
  std::set<std::string> ids;
  for (const auto& r : records) ids.insert(r.id);
  for (const char* required :
       {"Table I", "Table II", "Table III", "Table IV", "Figure 3",
        "Figure 5", "Figure 6", "Figure 7", "Figure 8", "RQ4 (in-text)"}) {
    EXPECT_TRUE(ids.count(required) > 0) << required;
  }
  for (const auto& r : records) {
    EXPECT_FALSE(r.bench_target.empty()) << r.id;
    EXPECT_FALSE(r.values.empty()) << r.id;
  }
}

TEST_F(RegistryFixture, AllShapeCriteriaHoldAtDefaultSeed) {
  const auto records = core::build_experiment_records(report());
  for (const auto& record : records)
    for (const auto& value : record.values)
      EXPECT_TRUE(value.shape_match)
          << record.id << " / " << value.name << ": measured "
          << value.measured << " vs paper " << value.paper;
}

TEST_F(RegistryFixture, MarkdownRendersAllRecords) {
  const auto records = core::build_experiment_records(report());
  const std::string md = core::render_experiments_markdown(records, 68);
  EXPECT_NE(md.find("# EXPERIMENTS"), std::string::npos);
  for (const auto& record : records)
    EXPECT_NE(md.find("## " + record.id), std::string::npos);
  EXPECT_NE(md.find("| quantity | paper | measured | shape |"),
            std::string::npos);
}

TEST(ExperimentsReport, RegeneratesTheCommittedFileByteForByte) {
  // Exactly what examples/make_experiments_report writes at seed 68.
  core::ReplicationConfig config;
  config.seed = 68;
  const auto records =
      core::build_experiment_records(core::run_replication(config));
  std::ifstream committed(DECOMPEVAL_EXPERIMENTS_MD);
  ASSERT_TRUE(committed.is_open()) << DECOMPEVAL_EXPERIMENTS_MD;
  std::ostringstream text;
  text << committed.rdbuf();
  EXPECT_EQ(core::render_experiments_markdown(records, config.seed),
            text.str());
}

}  // namespace
