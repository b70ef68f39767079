// Differential tests for the hot-path kernels: every rewritten kernel
// (bit-parallel Levenshtein, hashed n-gram BLEU, sorted-range weighted
// unigram match, matrix BERTScore, grouped co-occurrence counting, blocked
// PPMI projection, block-arrow Cholesky and the mixed-model evaluators
// built on it) is pitted against
// its retained reference implementation on randomized inputs and the
// documented edge cases, demanding *bitwise* equality — the service-layer
// caches and the disk cache both depend on responses being byte-identical
// across kernel generations. Also covers the canonical request key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rq1_correctness.h"
#include "embed/cooccurrence.h"
#include "embed/corpus.h"
#include "embed/embedding.h"
#include "linalg/arrow_cholesky.h"
#include "linalg/matrix.h"
#include "metrics/bertscore.h"
#include "metrics/codebleu.h"
#include "mixed/glmm.h"
#include "mixed/lmm.h"
#include "oracle_mixed_data.h"
#include "service/json.h"
#include "study/engine.h"
#include "text/bleu.h"
#include "text/similarity.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace decompeval;

std::string random_string(util::Rng& rng, std::size_t length,
                          std::string_view alphabet) {
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    s.push_back(alphabet[rng.uniform_index(alphabet.size())]);
  return s;
}

std::vector<std::string> random_tokens(util::Rng& rng, std::size_t length,
                                       const std::vector<std::string>& vocab) {
  std::vector<std::string> tokens;
  tokens.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    tokens.push_back(vocab[rng.uniform_index(vocab.size())]);
  return tokens;
}

// -- Levenshtein -----------------------------------------------------------

TEST(LevenshteinKernel, EdgeCases) {
  EXPECT_EQ(text::levenshtein("", ""), 0u);
  EXPECT_EQ(text::levenshtein("", "abc"), 3u);
  EXPECT_EQ(text::levenshtein("abc", ""), 3u);
  EXPECT_EQ(text::levenshtein("a", "a"), 0u);
  EXPECT_EQ(text::levenshtein("kitten", "sitting"), 3u);
  const std::string long_equal(700, 'x');
  EXPECT_EQ(text::levenshtein(long_equal, long_equal), 0u);
  // One substitution at the front, middle, and back of a >64-char string
  // (exercises the trimming paths around the bit-parallel kernel).
  std::string base(130, 'a');
  for (const std::size_t pos : {std::size_t{0}, base.size() / 2,
                                base.size() - 1}) {
    std::string mutated = base;
    mutated[pos] = 'b';
    EXPECT_EQ(text::levenshtein(base, mutated), 1u);
  }
}

TEST(LevenshteinKernel, MatchesReferenceOnRandomInputs) {
  const util::Rng root(20260808);
  const std::size_t lengths[] = {0, 1, 2, 3, 7, 15, 31, 63, 64,
                                 65, 100, 127, 128, 129, 200, 321};
  std::uint64_t stream = 0;
  for (const std::string_view alphabet :
       {std::string_view("ab"), std::string_view("abcdefgh"),
        std::string_view(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            "_*+-/(){}[]<>.,;: \t\x01\x7f")}) {
    for (const std::size_t la : lengths) {
      for (const std::size_t lb : lengths) {
        util::Rng rng = root.split(stream++);
        const std::string a = random_string(rng, la, alphabet);
        const std::string b = random_string(rng, lb, alphabet);
        ASSERT_EQ(text::levenshtein(a, b), text::levenshtein_reference(a, b))
            << "alphabet size " << alphabet.size() << " lengths " << la
            << "/" << lb;
      }
    }
  }
}

TEST(LevenshteinKernel, LongStringsCrossManyWordBoundaries) {
  const util::Rng root(77);
  for (std::uint64_t i = 0; i < 8; ++i) {
    util::Rng rng = root.split(i);
    const std::string a = random_string(rng, 512 + i * 97, "abcd");
    const std::string b = random_string(rng, 700 - i * 41, "abcd");
    ASSERT_EQ(text::levenshtein(a, b), text::levenshtein_reference(a, b));
  }
}

// -- BLEU ------------------------------------------------------------------

void expect_same_bleu(const text::BleuScore& fast,
                      const text::BleuScore& ref) {
  EXPECT_EQ(fast.bleu, ref.bleu);
  EXPECT_EQ(fast.brevity_penalty, ref.brevity_penalty);
  ASSERT_EQ(fast.precisions.size(), ref.precisions.size());
  for (std::size_t k = 0; k < fast.precisions.size(); ++k)
    EXPECT_EQ(fast.precisions[k], ref.precisions[k]) << "order " << k + 1;
}

TEST(BleuKernel, MatchesReferenceBitwise) {
  const std::vector<std::string> vocab = {"int",  "x",   "=",  "0",  ";",
                                          "if",   "(",   ")",  "{",  "}",
                                          "loop", "ptr"};
  const util::Rng root(4242);
  std::uint64_t stream = 0;
  for (const std::size_t lc : {0u, 1u, 2u, 3u, 4u, 9u, 17u, 40u}) {
    for (const std::size_t lr : {0u, 1u, 3u, 5u, 12u, 33u}) {
      util::Rng rng = root.split(stream++);
      const auto cand = random_tokens(rng, lc, vocab);
      const auto ref = random_tokens(rng, lr, vocab);
      expect_same_bleu(text::bleu(cand, ref), text::bleu_reference(cand, ref));
      // Unsmoothed and short-order variants hit different finish paths.
      const text::BleuOptions unsmoothed{.max_order = 4, .smooth = false};
      expect_same_bleu(text::bleu(cand, ref, unsmoothed),
                       text::bleu_reference(cand, ref, unsmoothed));
      const text::BleuOptions unigram{.max_order = 1, .smooth = true};
      expect_same_bleu(text::bleu(cand, ref, unigram),
                       text::bleu_reference(cand, ref, unigram));
    }
  }
  // All-equal and single-token edges.
  const std::vector<std::string> one = {"x"};
  expect_same_bleu(text::bleu(one, one), text::bleu_reference(one, one));
  const std::vector<std::string> rep(20, "x");
  expect_same_bleu(text::bleu(rep, rep), text::bleu_reference(rep, rep));
  expect_same_bleu(text::bleu(rep, one), text::bleu_reference(rep, one));
}

TEST(BleuKernel, CorpusMatchesReferenceBitwise) {
  const std::vector<std::string> vocab = {"a", "b", "c", "d", "e"};
  const util::Rng root(99);
  std::vector<std::vector<std::string>> cands, refs;
  for (std::uint64_t i = 0; i < 24; ++i) {
    util::Rng rng = root.split(i);
    cands.push_back(random_tokens(rng, rng.uniform_index(20), vocab));
    refs.push_back(random_tokens(rng, rng.uniform_index(20), vocab));
  }
  expect_same_bleu(text::corpus_bleu(cands, refs),
                   text::corpus_bleu_reference(cands, refs));
}

// -- codeBLEU weighted unigram match ---------------------------------------

TEST(WeightedUnigramKernel, MatchesReferenceBitwise) {
  const std::vector<std::string> vocab = {
      "if",  "else", "return", "int",  "unsigned", "while", "x",
      "buf", "i",    "n",      "tmp",  "(",        ")",     ";"};
  const util::Rng root(31337);
  for (std::uint64_t i = 0; i < 64; ++i) {
    util::Rng rng = root.split(i);
    const auto cand = random_tokens(rng, rng.uniform_index(30), vocab);
    const auto ref = random_tokens(rng, rng.uniform_index(30), vocab);
    ASSERT_EQ(metrics::weighted_unigram_match(cand, ref),
              metrics::weighted_unigram_match_reference(cand, ref));
  }
  const std::vector<std::string> empty;
  EXPECT_EQ(metrics::weighted_unigram_match(empty, empty),
            metrics::weighted_unigram_match_reference(empty, empty));
  EXPECT_EQ(metrics::weighted_unigram_match({"if"}, empty),
            metrics::weighted_unigram_match_reference({"if"}, empty));
}

// -- BERTScore -------------------------------------------------------------

TEST(BertScoreKernel, MatchesReferenceBitwise) {
  std::vector<std::vector<std::string>> sentences;
  const std::vector<std::string> vocab = {"alpha", "beta",  "gamma", "delta",
                                          "count", "index", "value", "node"};
  const util::Rng corpus_rng(7);
  for (std::uint64_t i = 0; i < 60; ++i) {
    util::Rng rng = corpus_rng.split(i);
    sentences.push_back(random_tokens(rng, 3 + rng.uniform_index(6), vocab));
  }
  embed::EmbeddingOptions opts;
  opts.dimension = 16;
  opts.window = 2;
  opts.threads = 1;
  const auto model = embed::EmbeddingModel::train(sentences, opts);

  const std::vector<std::string> oov = {"zzz_unseen", "qq"};
  const util::Rng root(555);
  for (std::uint64_t i = 0; i < 24; ++i) {
    util::Rng rng = root.split(i);
    auto cand = random_tokens(rng, rng.uniform_index(8), vocab);
    auto ref = random_tokens(rng, rng.uniform_index(8), vocab);
    if (i % 3 == 0) cand.push_back(oov[i % 2]);  // OOV hash-fallback path
    if (i % 4 == 0) ref.push_back(oov[(i + 1) % 2]);
    const auto fast = metrics::bert_score(cand, ref, model);
    const auto slow = metrics::bert_score_reference(cand, ref, model);
    ASSERT_EQ(fast.precision, slow.precision);
    ASSERT_EQ(fast.recall, slow.recall);
    ASSERT_EQ(fast.f1, slow.f1);
  }
  // Empty edges.
  const std::vector<std::string> none;
  const auto both = metrics::bert_score(none, none, model);
  EXPECT_EQ(both.f1, 1.0);
  const auto half = metrics::bert_score(none, {"alpha"}, model);
  EXPECT_EQ(half.f1, 0.0);
}

// -- Embedding PPMI projection ---------------------------------------------

// Every vocabulary vector of `a` and `b`, compared bitwise.
void expect_same_vectors(const embed::EmbeddingModel& a,
                         const embed::EmbeddingModel& b,
                         const std::vector<std::string>& vocabulary) {
  ASSERT_EQ(a.vocabulary_size(), vocabulary.size());
  ASSERT_EQ(b.vocabulary_size(), vocabulary.size());
  for (const auto& token : vocabulary) {
    ASSERT_TRUE(a.in_vocabulary(token) && b.in_vocabulary(token)) << token;
    const auto va = a.embed_token(token);
    const auto vb = b.embed_token(token);
    ASSERT_EQ(va.size(), vb.size()) << token;
    ASSERT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)),
              0)
        << "token " << token;
  }
}

TEST(EmbeddingKernel, BlockedMatchesReferenceBitwise) {
  // Grouped counting + blocked projection against map-based counting +
  // scalar projection: the same counts and the same vectors, bit for bit,
  // at every thread count.
  std::vector<std::vector<std::string>> sentences;
  std::vector<std::string> vocab;
  for (int i = 0; i < 40; ++i) vocab.push_back("tok" + std::to_string(i));
  const util::Rng corpus_rng(1234);
  for (std::uint64_t i = 0; i < 120; ++i) {
    util::Rng rng = corpus_rng.split(i);
    sentences.push_back(random_tokens(rng, 4 + rng.uniform_index(10), vocab));
  }
  const auto corpus = embed::intern_corpus(sentences);
  embed::EmbeddingOptions blocked;
  blocked.dimension = 24;
  blocked.window = 3;
  blocked.block_sentences = 32;
  embed::EmbeddingOptions reference = blocked;
  reference.reference_kernel = true;
  reference.threads = 1;

  util::ThreadPool serial(1);
  const auto ref_counts =
      embed::count_cooccurrences(corpus, reference, serial);
  const auto ref_model = embed::EmbeddingModel::train(sentences, reference);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    blocked.threads = threads;
    util::ThreadPool pool(threads);
    EXPECT_TRUE(embed::count_cooccurrences(corpus, blocked, pool) ==
                ref_counts)
        << "threads " << threads;
    expect_same_vectors(embed::EmbeddingModel::train(sentences, blocked),
                        ref_model, corpus.vocabulary);
  }
}

TEST(EmbeddingKernel, BlockedKernelThreadCountInvariant) {
  std::vector<std::vector<std::string>> sentences;
  std::vector<std::string> vocab;
  for (int i = 0; i < 25; ++i) vocab.push_back("w" + std::to_string(i));
  const util::Rng corpus_rng(88);
  for (std::uint64_t i = 0; i < 80; ++i) {
    util::Rng rng = corpus_rng.split(i);
    sentences.push_back(random_tokens(rng, 5 + rng.uniform_index(8), vocab));
  }
  embed::EmbeddingOptions opts;
  opts.dimension = 16;
  opts.block_sentences = 16;
  std::vector<embed::EmbeddingModel> models;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    opts.threads = threads;
    models.push_back(embed::EmbeddingModel::train(sentences, opts));
  }
  for (const auto& token : vocab) {
    const auto base = models[0].embed_token(token);
    for (std::size_t m = 1; m < models.size(); ++m) {
      const auto other = models[m].embed_token(token);
      ASSERT_EQ(std::memcmp(base.data(), other.data(),
                            base.size() * sizeof(double)),
                0)
          << "token " << token << " threads index " << m;
    }
  }
}

// -- Embedding co-occurrence counting ---------------------------------------

// A random corpus over `vocab_size` words with sentences of 0–12 tokens:
// empty and one-token sentences included.
std::vector<std::vector<std::string>> ragged_corpus(std::uint64_t seed,
                                                    std::size_t sentences,
                                                    std::size_t vocab_size) {
  std::vector<std::string> vocab;
  for (std::size_t i = 0; i < vocab_size; ++i)
    vocab.push_back("w" + std::to_string(i));
  const util::Rng root(seed);
  std::vector<std::vector<std::string>> corpus;
  for (std::uint64_t i = 0; i < sentences; ++i) {
    util::Rng rng = root.split(i);
    corpus.push_back(random_tokens(rng, rng.uniform_index(13), vocab));
  }
  return corpus;
}

TEST(CooccurrenceKernel, WindowAndBlockEdgeCases) {
  // Windows of 1, the default 4 and one longer than any sentence; blocks
  // of one sentence, of a size that leaves a short last block, and one
  // block holding the whole corpus.
  auto sentences = ragged_corpus(97, 90, 25);
  sentences.insert(sentences.begin(), std::vector<std::string>{});
  sentences.push_back({"w3"});
  const auto corpus = embed::intern_corpus(sentences);
  util::ThreadPool pool(2);
  for (const std::size_t window : {1u, 4u, 50u}) {
    for (const std::size_t block : {1u, 7u, 1000u}) {
      embed::EmbeddingOptions options;
      options.dimension = 8;
      options.window = window;
      options.block_sentences = block;
      options.threads = 2;
      embed::EmbeddingOptions reference = options;
      reference.reference_kernel = true;
      const auto counts = embed::count_cooccurrences(corpus, options, pool);
      ASSERT_TRUE(counts ==
                  embed::count_cooccurrences(corpus, reference, pool))
          << "window " << window << " block " << block;
      std::uint64_t total = 0;
      for (std::size_t w = 0; w < counts.rows.size(); ++w) {
        std::uint64_t row_total = 0;
        for (const auto& [context, count] : counts.rows[w]) row_total += count;
        EXPECT_EQ(row_total, counts.token_count[w]);
        total += row_total;
      }
      EXPECT_EQ(total, counts.total_pairs);
      expect_same_vectors(embed::EmbeddingModel::train(sentences, options),
                          embed::EmbeddingModel::train(sentences, reference),
                          corpus.vocabulary);
    }
  }
}

TEST(CooccurrenceKernel, QuarantinedBlocksMatchReference) {
  // Sentence 0 holds the only "stray" token, so quarantining block 0
  // leaves it in the vocabulary with no counts.
  auto sentences = ragged_corpus(5, 200, 30);
  sentences[0] = {"stray", "w1", "w2"};
  for (const util::FaultSpec spec :
       {util::FaultSpec::every_nth(3), util::FaultSpec::probability(0.4),
        util::FaultSpec::once(0)}) {
    util::FaultPlan one;
    one.set("embed.train", spec);
    const util::FaultInjector faults(one);
    embed::EmbeddingOptions options;
    options.dimension = 16;
    options.block_sentences = 16;
    options.faults = &faults;
    embed::EmbeddingOptions reference = options;
    reference.reference_kernel = true;
    const auto ref_model = embed::EmbeddingModel::train(sentences, reference);
    ASSERT_TRUE(ref_model.degraded());
    for (const std::size_t threads : {1u, 4u}) {
      options.threads = threads;
      const auto model = embed::EmbeddingModel::train(sentences, options);
      EXPECT_EQ(model.degradation_notes(), ref_model.degradation_notes());
      expect_same_vectors(model, ref_model,
                          embed::intern_corpus(sentences).vocabulary);
    }
  }
  util::FaultPlan first_block;
  first_block.set("embed.train", util::FaultSpec::once(0));
  const util::FaultInjector faults(first_block);
  embed::EmbeddingOptions options;
  options.block_sentences = 16;
  options.faults = &faults;
  const auto model = embed::EmbeddingModel::train(sentences, options);
  EXPECT_EQ(model.degradation_notes(),
            std::vector<std::string>{"embedding trainer block 0/13 quarantined "
                                     "(sentences 0..16 dropped)"});
  ASSERT_TRUE(model.in_vocabulary("stray"));
  for (const double x : model.embed_token("stray")) EXPECT_EQ(x, 0.0);
}

TEST(CooccurrenceKernel, TrainDefaultMatchesReferenceTrain) {
  embed::EmbeddingOptions reference;
  reference.reference_kernel = true;
  const auto sentences = embed::generate_corpus(3000, 7);
  const auto expected = embed::EmbeddingModel::train(sentences, reference);
  for (const std::size_t threads : {1u, 4u}) {
    embed::EmbeddingOptions options;
    options.threads = threads;
    expect_same_vectors(embed::EmbeddingModel::train_default(3000, 7, options),
                        expected, embed::intern_corpus(sentences).vocabulary);
  }
}

// -- embed_token_into ------------------------------------------------------

TEST(EmbeddingKernel, EmbedTokenIntoMatchesEmbedToken) {
  std::vector<std::vector<std::string>> sentences = {
      {"aa", "bb", "cc", "dd"}, {"bb", "cc", "dd", "ee"},
      {"cc", "dd", "ee", "aa"}};
  embed::EmbeddingOptions opts;
  opts.dimension = 8;
  opts.threads = 1;
  const auto model = embed::EmbeddingModel::train(sentences, opts);
  for (const std::string token : {"aa", "bb", "zz_not_in_vocab", "q"}) {
    const auto via_copy = model.embed_token(token);
    std::vector<double> via_into(model.dimension(), -1.0);
    model.embed_token_into(token, via_into.data());
    ASSERT_EQ(std::memcmp(via_copy.data(), via_into.data(),
                          via_copy.size() * sizeof(double)),
              0)
        << token;
  }
}

// -- Block-arrow Cholesky --------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_bits(a[i], b[i])) << "index " << i << ": " << a[i]
                                       << " vs " << b[i];
}

// A random symmetric, strictly diagonally dominant (hence SPD) m×m matrix
// whose leading k×k block is diagonal, filled into both layouts. Half the
// coupling entries are zero, as for user-question pairs nobody answered.
void random_arrow_spd(util::Rng& rng, std::size_t k, std::size_t m,
                      linalg::Matrix& dense, linalg::ArrowCholesky& arrow) {
  dense = linalg::Matrix(m, m);
  arrow.reset(k, m);
  for (std::size_t i = k; i < m; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      if (j < k && rng.bernoulli(0.5)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      dense(i, j) = v;
      dense(j, i) = v;
    }
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j)
      if (j != i) row += std::abs(dense(i, j));
    dense(i, i) = (1.0 + row) * rng.uniform(1.0, 2.0);
  }
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      if (i >= k || i == j) arrow.at(i, j) = dense(i, j);
}

void expect_arrow_matches_dense(util::Rng& rng, std::size_t k,
                                std::size_t m) {
  SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
  linalg::Matrix dense;
  linalg::ArrowCholesky arrow;
  random_arrow_spd(rng, k, m, dense, arrow);
  const linalg::Cholesky chol(dense);
  arrow.factorize();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      ASSERT_TRUE(same_bits(chol.lower()(i, j), arrow.lower(i, j)))
          << "L(" << i << ", " << j << ")";
  linalg::Vector b(m);
  for (double& v : b) v = rng.normal();
  linalg::Vector x = b;
  arrow.solve_in_place(x);
  expect_same_bits(chol.solve(b), x);
  EXPECT_TRUE(same_bits(chol.log_det(), arrow.log_det()));
}

TEST(ArrowCholeskyKernel, MatchesDenseCholeskyBitwise) {
  const util::Rng root(20261017);
  std::uint64_t stream = 0;
  // Diagonal prefixes k = 0 (fully dense), 1 and m (fully diagonal).
  for (const std::size_t m : {1u, 2u, 5u, 13u, 30u}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, m}) {
      util::Rng rng = root.split(stream++);
      expect_arrow_matches_dense(rng, k, m);
    }
  }
  // The fitters' shapes: users + questions for the GLMM's H, plus the
  // LMM's 4-column fixed-effect border, at the study's 40 users and the
  // stream's 64-participant population.
  for (const std::size_t users : {40u, 64u}) {
    for (const std::size_t border : {0u, 4u}) {
      util::Rng rng = root.split(stream++);
      expect_arrow_matches_dense(rng, users, users + 8 + border);
    }
  }
}

TEST(ArrowCholeskyKernel, NonPositiveDefiniteThrows) {
  // A non-positive pivot in the diagonal block.
  linalg::ArrowCholesky arrow(2, 3);
  arrow.at(0, 0) = 1.0;
  arrow.at(1, 1) = -1.0;
  arrow.at(2, 2) = 1.0;
  EXPECT_THROW(arrow.factorize(), NumericalError);
  EXPECT_THROW(linalg::Cholesky(linalg::Matrix{{1.0, 0.0, 0.0},
                                               {0.0, -1.0, 0.0},
                                               {0.0, 0.0, 1.0}}),
               NumericalError);
  // An indefinite trailing block, reached only through the coupling row.
  arrow.reset(1, 3);
  arrow.at(0, 0) = 1.0;
  arrow.at(1, 0) = 2.0;
  arrow.at(1, 1) = 1.0;
  arrow.at(2, 2) = 1.0;
  EXPECT_THROW(arrow.factorize(), NumericalError);
  EXPECT_THROW(linalg::Cholesky(linalg::Matrix{{1.0, 2.0, 0.0},
                                               {2.0, 1.0, 0.0},
                                               {0.0, 0.0, 1.0}}),
               NumericalError);
  // reset() makes the object usable again after a failed factorization.
  arrow.reset(1, 2);
  arrow.at(0, 0) = 4.0;
  arrow.at(1, 1) = 9.0;
  arrow.factorize();
  EXPECT_DOUBLE_EQ(arrow.log_det(), std::log(36.0));
  // Structural zeros of the leading block are not addressable.
  EXPECT_THROW(linalg::ArrowCholesky(2, 3).at(1, 0), PreconditionError);
}

// The fitters assemble through the unchecked view. It reaches the same
// storage as at(), so the same additions in the same order give the same
// factor, solve and log-determinant bits. The additions are the GLMM's
// per-observation 2×2 blocks (user × question) and trailing-only pairs,
// each positive semidefinite, on top of a random SPD start.
TEST(ArrowCholeskyKernel, AssemblyViewMatchesCheckedAccessBitwise) {
  const util::Rng root(20261019);
  std::uint64_t stream = 0;
  for (const auto& [k, m] : {std::pair<std::size_t, std::size_t>{1, 5},
                             {40, 48},
                             {40, 52},
                             {64, 76}}) {
    SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
    util::Rng rng = root.split(stream++);
    linalg::Matrix dense;
    linalg::ArrowCholesky checked;
    random_arrow_spd(rng, k, m, dense, checked);
    linalg::ArrowCholesky viewed(k, m);
    for (std::size_t i = 0; i < k; ++i) viewed.diagonal()[i] = dense(i, i);
    for (std::size_t i = k; i < m; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        viewed.trailing_row(i)[j] = dense(i, j);
    for (std::size_t t = 0; t < 8 * m; ++t) {
      const std::size_t cu = rng.uniform_index(k);
      const std::size_t cq = k + rng.uniform_index(m - k);
      const std::size_t c2 = k + rng.uniform_index(cq - k + 1);
      const double a = rng.uniform(-1.0, 1.0);
      const double b = rng.uniform(-1.0, 1.0);
      checked.at(cu, cu) += a * a;
      checked.at(cq, cq) += b * b;
      checked.at(cq, cu) += a * b;
      viewed.diagonal()[cu] += a * a;
      viewed.trailing_row(cq)[cq] += b * b;
      viewed.trailing_row(cq)[cu] += a * b;
      if (c2 == cq) continue;
      checked.at(c2, c2) += a * a;
      checked.at(cq, c2) += a * b;
      viewed.trailing_row(c2)[c2] += a * a;
      viewed.trailing_row(cq)[c2] += a * b;
    }
    checked.factorize();
    viewed.factorize();
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        ASSERT_TRUE(same_bits(checked.lower(i, j), viewed.lower(i, j)))
            << "L(" << i << ", " << j << ")";
    linalg::Vector b(m);
    for (double& v : b) v = rng.normal();
    linalg::Vector x_checked = b;
    linalg::Vector x_viewed = b;
    checked.solve_in_place(x_checked);
    viewed.solve_in_place(x_viewed);
    expect_same_bits(x_checked, x_viewed);
    EXPECT_TRUE(same_bits(checked.log_det(), viewed.log_det()));
  }
}

// -- Mixed-model evaluators and fits ---------------------------------------

// The paper's default study, as the Table I (GLMM) and Table II (LMM)
// model data.
const study::StudyData& simulated_study() {
  static const study::StudyData kStudy = study::run_study(study::StudyConfig{});
  return kStudy;
}

TEST(MixedEvaluatorKernel, LaplaceDevianceMatchesReferenceBitwise) {
  const mixed::MixedModelData datasets[] = {
      oracle_data::glmm_data(),
      analysis::build_model_data(simulated_study(), /*timing_model=*/false)};
  const util::Rng root(71);
  std::uint64_t stream = 0;
  for (const auto& data : datasets) {
    util::Rng rng = root.split(stream++);
    // Carry the modes across evaluations, as the Nelder–Mead objective
    // does, so warm-started PIRLS is compared too.
    std::vector<double> fast_modes;
    std::vector<double> ref_modes;
    for (int eval = 0; eval < 24; ++eval) {
      std::vector<double> params = {rng.uniform(-3.0, 3.0),
                                    rng.uniform(-3.0, 3.0)};
      for (std::size_t j = 0; j < data.n_fixed_effects(); ++j)
        params.push_back(rng.normal(0.0, 1.5));
      const double fast = mixed::laplace_deviance(data, params, fast_modes);
      const double ref =
          mixed::laplace_deviance_reference(data, params, ref_modes);
      ASSERT_TRUE(same_bits(fast, ref))
          << "evaluation " << eval << ": " << fast << " vs " << ref;
      expect_same_bits(fast_modes, ref_modes);
    }
  }
}

// Fast vs reference Laplace deviance over `evals` random parameter
// vectors with fixed effects uniform in ±beta_bound, carrying the modes
// across evaluations as the Nelder–Mead objective does. Returns the
// extremes of Xβ it evaluated at.
std::pair<double, double> expect_laplace_matches_reference(
    const mixed::MixedModelData& data, util::Rng& rng, int evals,
    double beta_bound) {
  double lowest = 0.0;
  double highest = 0.0;
  std::vector<double> fast_modes;
  std::vector<double> ref_modes;
  for (int eval = 0; eval < evals; ++eval) {
    std::vector<double> params = {rng.uniform(-3.0, 3.0),
                                  rng.uniform(-3.0, 3.0)};
    for (std::size_t j = 0; j < data.n_fixed_effects(); ++j)
      params.push_back(rng.uniform(-beta_bound, beta_bound));
    for (std::size_t i = 0; i < data.n_observations(); ++i) {
      double xbeta = 0.0;
      for (std::size_t j = 0; j < data.n_fixed_effects(); ++j)
        xbeta += data.x(i, j) * params[2 + j];
      lowest = std::min(lowest, xbeta);
      highest = std::max(highest, xbeta);
    }
    const double fast = mixed::laplace_deviance(data, params, fast_modes);
    const double ref =
        mixed::laplace_deviance_reference(data, params, ref_modes);
    EXPECT_TRUE(same_bits(fast, ref))
        << "evaluation " << eval << ": " << fast << " vs " << ref;
    expect_same_bits(fast_modes, ref_modes);
  }
  return {lowest, highest};
}

// Fixed effects up to ±40 push μ past both sides of the deviance's 1e-12
// clamp: logistic(η) is below 1e-12 for η < −27.7 and rounds above
// 1 − 1e-12 for η > 27.7.
TEST(MixedEvaluatorKernel, LaplaceDevianceMatchesReferenceWhereTheClampBinds) {
  const auto data =
      analysis::build_model_data(simulated_study(), /*timing_model=*/false);
  util::Rng rng = util::Rng(73).split(0);
  const auto [lowest, highest] =
      expect_laplace_matches_reference(data, rng, 16, 40.0);
  EXPECT_LT(lowest, -35.0);
  EXPECT_GT(highest, 35.0);
}

// An all-1 and an all-0 response leave one response class empty.
TEST(MixedEvaluatorKernel, LaplaceDevianceMatchesReferenceWithOneClass) {
  const util::Rng root(74);
  std::uint64_t stream = 0;
  for (const double response : {1.0, 0.0}) {
    SCOPED_TRACE("y = " + std::to_string(response));
    auto data =
        analysis::build_model_data(simulated_study(), /*timing_model=*/false);
    data.y.assign(data.n_observations(), response);
    util::Rng rng = root.split(stream++);
    expect_laplace_matches_reference(data, rng, 24, 4.0);
  }
}

// Two studies shaped as run_replication builds them, at seeds from the
// replication sweep's range.
TEST(MixedEvaluatorKernel, LaplaceDevianceMatchesReferenceOnSweepStudies) {
  const util::Rng root(75);
  for (const std::uint64_t seed : {1000000u, 1000001u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    study::StudyConfig config;
    config.seed = seed;
    config.threads = 1;
    const auto data = analysis::build_model_data(study::run_study(config),
                                                 /*timing_model=*/false);
    util::Rng rng = root.split(seed);
    expect_laplace_matches_reference(data, rng, 24, 4.0);
  }
}

TEST(MixedEvaluatorKernel, RemlCriterionMatchesReferenceBitwise) {
  const mixed::MixedModelData datasets[] = {
      oracle_data::balanced_lmm_data(), oracle_data::glmm_data(),
      analysis::build_model_data(simulated_study(), /*timing_model=*/true)};
  const util::Rng root(72);
  std::uint64_t stream = 0;
  for (const auto& data : datasets) {
    util::Rng rng = root.split(stream++);
    for (int eval = 0; eval < 24; ++eval) {
      const double theta_u = rng.uniform(0.0, 4.0);
      const double theta_q = rng.uniform(0.0, 4.0);
      const double fast = mixed::reml_criterion(data, theta_u, theta_q);
      const double ref =
          mixed::reml_criterion_reference(data, theta_u, theta_q);
      ASSERT_TRUE(same_bits(fast, ref))
          << "evaluation " << eval << ": " << fast << " vs " << ref;
    }
  }
}

void expect_same_coefficients(const std::vector<mixed::Coefficient>& a,
                              const std::vector<mixed::Coefficient>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].name, b[j].name);
    EXPECT_TRUE(same_bits(a[j].estimate, b[j].estimate)) << a[j].name;
    EXPECT_TRUE(same_bits(a[j].std_error, b[j].std_error)) << a[j].name;
    EXPECT_TRUE(same_bits(a[j].z_value, b[j].z_value)) << a[j].name;
    EXPECT_TRUE(same_bits(a[j].p_value, b[j].p_value)) << a[j].name;
  }
}

void expect_same_report(const mixed::MultiStartReport& a,
                        const mixed::MultiStartReport& b) {
  EXPECT_EQ(a.n_starts, b.n_starts);
  EXPECT_EQ(a.best_start, b.best_start);
  expect_same_bits(a.start_values, b.start_values);
  EXPECT_EQ(a.start_evaluations, b.start_evaluations);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.quarantine_notes, b.quarantine_notes);
}

void expect_same_fit(const mixed::GlmmFit& a, const mixed::GlmmFit& b) {
  expect_same_coefficients(a.coefficients, b.coefficients);
  EXPECT_TRUE(same_bits(a.sigma_user, b.sigma_user));
  EXPECT_TRUE(same_bits(a.sigma_question, b.sigma_question));
  EXPECT_TRUE(same_bits(a.deviance, b.deviance));
  EXPECT_TRUE(same_bits(a.aic, b.aic));
  EXPECT_TRUE(same_bits(a.bic, b.bic));
  EXPECT_TRUE(same_bits(a.r2_marginal, b.r2_marginal));
  EXPECT_TRUE(same_bits(a.r2_conditional, b.r2_conditional));
  expect_same_bits(a.random_user, b.random_user);
  expect_same_bits(a.random_question, b.random_question);
  EXPECT_EQ(a.n_observations, b.n_observations);
  EXPECT_EQ(a.converged, b.converged);
  expect_same_report(a.multi_start, b.multi_start);
  EXPECT_EQ(a.pirls_iterations, b.pirls_iterations);
}

void expect_same_fit(const mixed::LmmFit& a, const mixed::LmmFit& b) {
  expect_same_coefficients(a.coefficients, b.coefficients);
  EXPECT_TRUE(same_bits(a.sigma_user, b.sigma_user));
  EXPECT_TRUE(same_bits(a.sigma_question, b.sigma_question));
  EXPECT_TRUE(same_bits(a.sigma_residual, b.sigma_residual));
  EXPECT_TRUE(same_bits(a.reml_criterion, b.reml_criterion));
  EXPECT_TRUE(same_bits(a.aic, b.aic));
  EXPECT_TRUE(same_bits(a.bic, b.bic));
  EXPECT_TRUE(same_bits(a.r2_marginal, b.r2_marginal));
  EXPECT_TRUE(same_bits(a.r2_conditional, b.r2_conditional));
  expect_same_bits(a.random_user, b.random_user);
  expect_same_bits(a.random_question, b.random_question);
  EXPECT_EQ(a.n_observations, b.n_observations);
  EXPECT_EQ(a.converged, b.converged);
  expect_same_report(a.multi_start, b.multi_start);
}

TEST(MixedFitKernel, GlmmMatchesReferenceBitwise) {
  mixed::FitOptions single;
  single.n_starts = 1;
  const mixed::MixedModelData oracle = oracle_data::glmm_data();
  for (const mixed::FitOptions& options : {mixed::FitOptions{}, single}) {
    const mixed::GlmmFit fit = mixed::fit_logistic_glmm(oracle, options);
    EXPECT_GT(fit.pirls_iterations, 0u);
    expect_same_fit(fit, mixed::fit_logistic_glmm_reference(oracle, options));
  }
  const auto study =
      analysis::build_model_data(simulated_study(), /*timing_model=*/false);
  expect_same_fit(mixed::fit_logistic_glmm(study),
                  mixed::fit_logistic_glmm_reference(study));
}

TEST(MixedFitKernel, LmmMatchesReferenceBitwise) {
  mixed::FitOptions single;
  single.n_starts = 1;
  for (const auto& data :
       {oracle_data::balanced_lmm_data(), oracle_data::glmm_data()}) {
    for (const mixed::FitOptions& options : {mixed::FitOptions{}, single})
      expect_same_fit(mixed::fit_lmm(data, options),
                      mixed::fit_lmm_reference(data, options));
  }
  const auto study =
      analysis::build_model_data(simulated_study(), /*timing_model=*/true);
  expect_same_fit(mixed::fit_lmm(study), mixed::fit_lmm_reference(study));
}

// -- Canonical request key -------------------------------------------------

TEST(CanonicalKey, OrderInsensitiveAndVolatileFieldsExcluded) {
  service::Json a = service::Json::object();
  a.set("op", service::Json::string("run_study"));
  a.set("seed", service::Json::number(7));
  a.set("threads", service::Json::number(4));
  a.set("no_cache", service::Json::boolean(false));
  a.set("deadline_ms", service::Json::number(500));

  service::Json b = service::Json::object();
  b.set("seed", service::Json::number(7));
  b.set("op", service::Json::string("run_study"));
  b.set("threads", service::Json::number(1));  // volatile: must not matter

  EXPECT_EQ(service::canonical_request_key(a),
            service::canonical_request_key(b));

  service::Json c = service::Json::object();
  c.set("op", service::Json::string("run_study"));
  c.set("seed", service::Json::number(8));
  EXPECT_NE(service::canonical_request_key(a),
            service::canonical_request_key(c));
}

}  // namespace
