// Built-in identifier-subtoken corpus for training the embedding model.
//
// BERTScore and VarCLR derive their power from pretraining on billions of
// tokens; offline we substitute a synthetic corpus engineered to encode the
// semantic neighborhoods that matter for decompiler-name evaluation
// (size ≈ length ≈ len, buf ≈ buffer ≈ str, idx ≈ index ≈ pos, ...).
// Cluster members are emitted into shared contexts, so a PPMI
// co-occurrence model places them near each other — exactly the property
// the paper highlights ("size and length are maximally distant according
// to [surface] metrics, even though semantically they are quite similar").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace decompeval::embed {

/// One synonym cluster plus the context vocabulary it tends to appear with.
struct ConceptCluster {
  std::string concept_id;
  std::vector<std::string> members;
  std::vector<std::string> contexts;
};

/// The curated cluster inventory (~40 clusters over systems-code naming).
const std::vector<ConceptCluster>& concept_clusters();

/// A tokenized corpus with every token replaced by an integer id. Sentence
/// s is tokens[sentence_begin[s] .. sentence_begin[s + 1]) and id i spells
/// vocabulary[i]. Ids are numbered in order of first appearance, which is
/// the embedding model's vocabulary order.
struct InternedCorpus {
  std::vector<std::string> vocabulary;
  std::vector<std::uint32_t> tokens;
  std::vector<std::uint32_t> sentence_begin{0};

  std::size_t sentences() const { return sentence_begin.size() - 1; }
};

/// Interns a string corpus with one hash lookup per token.
InternedCorpus intern_corpus(
    const std::vector<std::vector<std::string>>& sentences);

/// generate_corpus(n_sentences, seed) as ids: the same sentences from the
/// same RNG draws, without building a string per token.
InternedCorpus generate_interned_corpus(std::size_t n_sentences,
                                        std::uint64_t seed);

/// Generates `n_sentences` co-occurrence sentences deterministically from
/// `seed`. Each sentence mixes members of one cluster with samples of its
/// context vocabulary and occasional cross-cluster noise.
std::vector<std::vector<std::string>> generate_corpus(std::size_t n_sentences,
                                                      std::uint64_t seed);

}  // namespace decompeval::embed
