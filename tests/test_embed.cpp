// Embedding corpus and model tests: the crucial property is that the
// synthetic corpus induces the semantic neighborhoods the paper's argument
// depends on (size ≈ length even though surface metrics call them
// maximally distant).
#include <gtest/gtest.h>

#include <cstdint>
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

// 64-bit FNV-1a over raw bytes, for the golden digests below.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    add(s.data(), s.size());
    add("\x1f", 1);
  }
};

// Golden values recorded before the interned-corpus trainer existed: the
// id-level generator must draw the same sentences, and the default model
// must come out bit for bit the same.
constexpr std::uint64_t kCorpus20000Seed42Digest = 0x283fae841818a6aeULL;
constexpr std::uint64_t kDefaultModelDigest = 0x92d91723910ce042ULL;

TEST(Corpus, GoldenTokenStreamDigest) {
  Fnv1a digest;
  std::size_t tokens = 0;
  for (const auto& sentence : generate_corpus(20000, 42)) {
    for (const auto& token : sentence) digest.add(token);
    digest.add("\x1e", 1);
    tokens += sentence.size();
  }
  EXPECT_EQ(tokens, 155690u);
  EXPECT_EQ(digest.h, kCorpus20000Seed42Digest);
}

TEST(Corpus, InternedGeneratorMatchesStringCorpus) {
  for (const std::uint64_t seed : {1u, 42u}) {
    const auto sentences = generate_corpus(500, seed);
    const InternedCorpus ids = generate_interned_corpus(500, seed);
    const InternedCorpus interned = intern_corpus(sentences);
    EXPECT_EQ(ids.vocabulary, interned.vocabulary);
    EXPECT_EQ(ids.tokens, interned.tokens);
    EXPECT_EQ(ids.sentence_begin, interned.sentence_begin);
    ASSERT_EQ(ids.sentences(), sentences.size());
  }
}

TEST(Embedding, GoldenDefaultModelDigest) {
  // Vectors hashed in vocabulary (first-appearance) order.
  const EmbeddingModel model = EmbeddingModel::train_default(20000, 42);
  const InternedCorpus corpus = generate_interned_corpus(20000, 42);
  ASSERT_EQ(model.vocabulary_size(), 388u);
  ASSERT_EQ(corpus.vocabulary.size(), 388u);
  Fnv1a digest;
  for (const std::string& token : corpus.vocabulary) {
    digest.add(token);
    const auto v = model.embed_token(token);
    digest.add(v.data(), v.size() * sizeof(double));
  }
  EXPECT_EQ(digest.h, kDefaultModelDigest);
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
