// Embedding corpus and model tests: the crucial property is that the
// synthetic corpus induces the semantic neighborhoods the paper's argument
// depends on (size ≈ length even though surface metrics call them
// maximally distant).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "embed/corpus.h"
#include "embed/embedding.h"
#include "util/check.h"

namespace {

using namespace decompeval::embed;

TEST(Corpus, DeterministicForSeed) {
  const auto a = generate_corpus(100, 5);
  const auto b = generate_corpus(100, 5);
  EXPECT_EQ(a, b);
  const auto c = generate_corpus(100, 6);
  EXPECT_NE(a, c);
}

TEST(Corpus, ClustersAreWellFormed) {
  for (const auto& cluster : concept_clusters()) {
    EXPECT_FALSE(cluster.concept_id.empty());
    EXPECT_GE(cluster.members.size(), 2u) << cluster.concept_id;
    EXPECT_GE(cluster.contexts.size(), 3u) << cluster.concept_id;
  }
  EXPECT_GE(concept_clusters().size(), 30u);
}

class EmbeddingTest : public ::testing::Test {
 protected:
  static const EmbeddingModel& model() {
    static const EmbeddingModel kModel = EmbeddingModel::train_default(8000, 42);
    return kModel;
  }
};

TEST_F(EmbeddingTest, VocabularyCoversClusterMembers) {
  for (const auto& cluster : concept_clusters())
    for (const auto& member : cluster.members)
      EXPECT_TRUE(model().in_vocabulary(member)) << member;
}

TEST_F(EmbeddingTest, VectorsAreUnitNorm) {
  const auto v = model().embed_token("size");
  double norm = 0.0;
  for (const double x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST_F(EmbeddingTest, SynonymsAreCloserThanCrossCluster) {
  // The paper's flagship pair: size vs length.
  const double size_length = model().name_similarity("size", "length");
  const double size_tree = model().name_similarity("size", "tree");
  EXPECT_GT(size_length, size_tree);
  EXPECT_GT(size_length, 0.3);
}

// std::string, not const char*: the parameter's printed value becomes the
// discovered CTest name, and a pointer prints as its (ASLR-randomized)
// address, which would give the case a different name on every build.
using NamePair = std::pair<std::string, std::string>;

class SynonymSweep : public ::testing::TestWithParam<NamePair> {};

TEST_P(SynonymSweep, IntraClusterSimilarityIsHigh) {
  static const EmbeddingModel model = EmbeddingModel::train_default(8000, 42);
  const auto& [a, b] = GetParam();
  EXPECT_GT(model.name_similarity(a, b), 0.25) << a << " vs " << b;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SynonymSweep,
    ::testing::Values(NamePair("size", "len"), NamePair("buffer", "buf"),
                      NamePair("index", "idx"), NamePair("dest", "dst"),
                      NamePair("source", "src"), NamePair("result", "ret"),
                      NamePair("callback", "cmp"), NamePair("tree", "node")));

TEST_F(EmbeddingTest, MultiwordNamesCompose) {
  const double sim =
      model().name_similarity("buffer_append_path_len", "buf_append_path_size");
  EXPECT_GT(sim, 0.5);
}

TEST_F(EmbeddingTest, OovFallbackIsDeterministic) {
  const auto v1 = model().embed_token("zzqx_unknown");
  const auto v2 = model().embed_token("zzqx_unknown");
  EXPECT_EQ(v1, v2);
  EXPECT_FALSE(model().in_vocabulary("zzqx_unknown"));
}

TEST_F(EmbeddingTest, IdenticalOovTokensMatchPerfectly) {
  EXPECT_NEAR(model().name_similarity("zzqx9", "zzqx9"), 1.0, 1e-9);
}

TEST_F(EmbeddingTest, CosineBoundsAndDegenerate) {
  const std::vector<double> zero(model().dimension(), 0.0);
  const auto v = model().embed_token("size");
  EXPECT_DOUBLE_EQ(EmbeddingModel::cosine(zero, v), 0.0);
  EXPECT_NEAR(EmbeddingModel::cosine(v, v), 1.0, 1e-12);
}

TEST(Embedding, TrainRejectsDegenerateCorpus) {
  const std::vector<std::vector<std::string>> one_token = {{"only"}};
  EXPECT_THROW(EmbeddingModel::train(one_token), decompeval::PreconditionError);
}

}  // namespace
