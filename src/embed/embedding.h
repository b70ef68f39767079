// Deterministic word embeddings: PPMI co-occurrence rows compressed by a
// seeded random projection.
//
// This replaces the pretrained BERT / VarCLR encoders the paper's metrics
// load (unavailable offline). The measurement mechanics built on top —
// greedy token matching for BERTScore, name-level cosine for VarCLR — are
// implemented exactly as published; only the vector source differs (see
// DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/corpus.h"
#include "util/fault.h"

namespace decompeval::embed {

struct EmbeddingOptions {
  std::size_t dimension = 64;
  std::size_t window = 4;          ///< symmetric co-occurrence window
  std::uint64_t projection_seed = 17;
  /// Worker threads for co-occurrence counting and the PPMI projection;
  /// 0 = hardware concurrency. The trained model is bit-identical for
  /// every thread count: co-occurrence counts are integers (exact in
  /// doubles), each word's row is counted on its own, and each word's
  /// vector is an independent pure function of the counts.
  std::size_t threads = 0;
  /// Sentences per fault-quarantine block. Blocks — not worker threads —
  /// are the unit of fault quarantine, so any injected "embed.train"
  /// outcome is a pure function of the corpus, never of the thread count.
  std::size_t block_sentences = 2048;
  /// Optional fault injector (site "embed.train", hit = block index). A
  /// block whose counting pass faults is quarantined — its sentences are
  /// dropped from the counts — and the model is flagged degraded with a
  /// note naming the lost block. Every block quarantined → NumericalError.
  const util::FaultInjector* faults = nullptr;
  /// Forces the original map-based co-occurrence counting and the
  /// one-context-at-a-time PPMI accumulation loop instead of the grouped
  /// counting and the blocked kernel. Both pairs are bit-identical (the
  /// counts are the same integers, and the blocked kernel lands the same
  /// += sequence on every vector element); this flag exists so the
  /// differential tests can prove it, and is implied by
  /// -DDECOMPEVAL_NO_SIMD.
  bool reference_kernel = false;
};

class EmbeddingModel {
 public:
  /// Trains on an interned corpus: counts windowed co-occurrences, forms
  /// positive pointwise mutual information rows, and projects them to
  /// `dimension` with a seeded Gaussian random projection. The vocabulary
  /// is the corpus's, in its id order: id i seeds projection row i.
  static EmbeddingModel train(const InternedCorpus& corpus,
                              const EmbeddingOptions& options = {});

  /// Trains on tokenized sentences, interning each token once.
  static EmbeddingModel train(
      const std::vector<std::vector<std::string>>& sentences,
      const EmbeddingOptions& options = {});

  /// Trains on the built-in concept corpus (the standard configuration used
  /// throughout the replication pipeline). Bit-identical to
  /// train(generate_corpus(corpus_sentences, corpus_seed), options), but
  /// the corpus is generated as ids and never spelled out as strings.
  static EmbeddingModel train_default(std::size_t corpus_sentences = 20000,
                                      std::uint64_t corpus_seed = 42,
                                      const EmbeddingOptions& options = {});

  /// Unit-norm vector for a subtoken. Out-of-vocabulary subtokens fall back
  /// to a deterministic char-trigram hash embedding, so every token
  /// compares consistently across calls.
  std::vector<double> embed_token(const std::string& token) const;

  /// Same vector written into out[0, dimension()) — the allocation-free
  /// form BERTScore uses to fill its contiguous token matrices.
  void embed_token_into(const std::string& token, double* out) const;

  /// Mean of subtoken vectors of an identifier (split on case/underscores),
  /// re-normalized — the composition VarCLR uses for multiword names.
  std::vector<double> embed_name(const std::string& identifier) const;

  /// Cosine similarity of two identifiers' name vectors.
  double name_similarity(const std::string& a, const std::string& b) const;

  static double cosine(const std::vector<double>& a,
                       const std::vector<double>& b);

  std::size_t vocabulary_size() const { return vectors_.size(); }
  std::size_t dimension() const { return options_.dimension; }
  bool in_vocabulary(const std::string& token) const {
    return vectors_.count(token) > 0;
  }

  /// True when at least one trainer block was quarantined by a fault.
  /// Degraded models are computed from partial counts: still usable, but
  /// callers must mark their results degraded and never cache them.
  bool degraded() const { return degraded_; }
  /// One note per quarantined block (block index and sentence range).
  const std::vector<std::string>& degradation_notes() const {
    return degradation_notes_;
  }

 private:
  EmbeddingOptions options_;
  std::unordered_map<std::string, std::vector<double>> vectors_;
  bool degraded_ = false;
  std::vector<std::string> degradation_notes_;

  std::vector<double> hash_fallback(const std::string& token) const;
  void hash_fallback_into(const std::string& token, double* out) const;
};

}  // namespace decompeval::embed
