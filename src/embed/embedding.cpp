#include "embed/embedding.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "embed/cooccurrence.h"
#include "text/tokenize.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace decompeval::embed {

namespace {

void normalize(double* v, std::size_t n) {
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) norm += v[i] * v[i];
  norm = std::sqrt(norm);
  if (norm > 0.0)
    for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
}

void normalize(std::vector<double>& v) { normalize(v.data(), v.size()); }

std::uint64_t fnv1a(const std::string& s, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

EmbeddingModel EmbeddingModel::train(const InternedCorpus& corpus,
                                     const EmbeddingOptions& requested) {
  DE_EXPECTS(requested.dimension > 0 && requested.window > 0);
  EmbeddingOptions options = requested;
#ifdef DECOMPEVAL_NO_SIMD
  options.reference_kernel = true;
#endif
  EmbeddingModel model;
  model.options_ = options;
  const std::size_t v = corpus.vocabulary.size();
  DE_EXPECTS_MSG(v > 1, "corpus has fewer than two distinct tokens");

  // A token seen only in quarantined blocks keeps its vocabulary slot (and
  // so every later word's projection seed) and ends with a zero vector.
  util::ThreadPool pool(options.threads);
  CooccurrenceCounts counts = count_cooccurrences(corpus, options, pool);
  model.degradation_notes_ = std::move(counts.quarantine_notes);
  model.degraded_ = !model.degradation_notes_.empty();
  if (model.degraded_ && counts.total_pairs == 0)
    throw NumericalError(
        "every embedding trainer block was quarantined; no counts survive");
  DE_EXPECTS_MSG(counts.total_pairs > 0, "no co-occurrence pairs in corpus");

  // Seeded Gaussian random projection matrix, one contiguous row-major
  // block (rows indexed by context word). Each row is generated from its
  // own (projection_seed, word index) stream — independent of scheduling
  // by construction, and the values are identical to the old
  // vector-of-vectors layout; only the storage changed.
  const std::size_t dim = options.dimension;
  std::vector<double> projection(v * dim);
  pool.parallel_for(v, [&](std::size_t w) {
    util::Rng row_rng(options.projection_seed * 0x9E3779B97F4A7C15ULL + w);
    double* row = projection.data() + w * dim;
    for (std::size_t d = 0; d < dim; ++d) row[d] = row_rng.normal();
  });

  // PPMI rows projected down: vec(w) = Σ_c ppmi(w, c) · proj(c), summed in
  // sorted context order, so the floating-point sum order is a pure
  // function of the counts. Every count is an integer, exact in a double.
  // Each word's vector is independent; the map insert stays serial. The
  // blocked kernel streams four context rows per pass over vec, but for
  // any fixed element vec[d] the contributions still land one += at a time
  // in sorted context order — exactly the reference sequence — so the
  // trained model is bit-identical (differential-tested via
  // reference_kernel).
  const double total_pairs = static_cast<double>(counts.total_pairs);
  std::vector<std::vector<double>> vectors(v);
  pool.parallel_for(v, [&](std::size_t wi) {
    std::vector<double> vec(dim, 0.0);
    // Surviving (ppmi weight, projection row) terms, in sorted row order.
    thread_local std::vector<std::pair<double, const double*>> terms;
    terms.clear();
    const double count_wi = static_cast<double>(counts.token_count[wi]);
    for (const auto& [cj, count] : counts.rows[wi]) {
      const double pmi =
          std::log(static_cast<double>(count) * total_pairs /
                   (count_wi * static_cast<double>(counts.token_count[cj])));
      if (pmi <= 0.0) continue;  // positive PMI only
      terms.emplace_back(pmi, projection.data() + cj * dim);
    }
    if (options.reference_kernel) {
      for (const auto& [pmi, row] : terms)
        for (std::size_t d = 0; d < dim; ++d) vec[d] += pmi * row[d];
    } else {
      std::size_t t = 0;
      for (; t + 4 <= terms.size(); t += 4) {
        const double w0 = terms[t].first, w1 = terms[t + 1].first;
        const double w2 = terms[t + 2].first, w3 = terms[t + 3].first;
        const double* r0 = terms[t].second;
        const double* r1 = terms[t + 1].second;
        const double* r2 = terms[t + 2].second;
        const double* r3 = terms[t + 3].second;
        for (std::size_t d = 0; d < dim; ++d) {
          double x = vec[d];
          x += w0 * r0[d];
          x += w1 * r1[d];
          x += w2 * r2[d];
          x += w3 * r3[d];
          vec[d] = x;
        }
      }
      for (; t < terms.size(); ++t) {
        const double wt = terms[t].first;
        const double* rt = terms[t].second;
        for (std::size_t d = 0; d < dim; ++d) vec[d] += wt * rt[d];
      }
    }
    normalize(vec);
    vectors[wi] = std::move(vec);
  });
  for (std::size_t wi = 0; wi < v; ++wi)
    model.vectors_.emplace(corpus.vocabulary[wi], std::move(vectors[wi]));
  return model;
}

EmbeddingModel EmbeddingModel::train(
    const std::vector<std::vector<std::string>>& sentences,
    const EmbeddingOptions& options) {
  return train(intern_corpus(sentences), options);
}

EmbeddingModel EmbeddingModel::train_default(std::size_t corpus_sentences,
                                             std::uint64_t corpus_seed,
                                             const EmbeddingOptions& options) {
  return train(generate_interned_corpus(corpus_sentences, corpus_seed),
               options);
}

void EmbeddingModel::hash_fallback_into(const std::string& token,
                                        double* out) const {
  const std::size_t dim = options_.dimension;
  std::fill(out, out + dim, 0.0);
  const std::string padded = "^" + token + "$";
  const auto trigrams = text::char_ngrams(padded, 3);
  if (trigrams.empty()) {
    // Single/double-char token: hash the token itself.
    util::Rng rng(fnv1a(padded, 7));
    for (std::size_t d = 0; d < dim; ++d) out[d] = rng.normal();
    normalize(out, dim);
    return;
  }
  for (const auto& tri : trigrams) {
    util::Rng rng(fnv1a(tri, 7));
    for (std::size_t d = 0; d < dim; ++d) out[d] += rng.normal();
  }
  normalize(out, dim);
}

std::vector<double> EmbeddingModel::hash_fallback(
    const std::string& token) const {
  std::vector<double> vec(options_.dimension, 0.0);
  hash_fallback_into(token, vec.data());
  return vec;
}

std::vector<double> EmbeddingModel::embed_token(const std::string& token) const {
  const auto it = vectors_.find(token);
  if (it != vectors_.end()) return it->second;
  return hash_fallback(token);
}

void EmbeddingModel::embed_token_into(const std::string& token,
                                      double* out) const {
  const auto it = vectors_.find(token);
  if (it != vectors_.end()) {
    std::copy(it->second.begin(), it->second.end(), out);
    return;
  }
  hash_fallback_into(token, out);
}

std::vector<double> EmbeddingModel::embed_name(
    const std::string& identifier) const {
  const auto subtokens = text::split_identifier(identifier);
  std::vector<double> vec(options_.dimension, 0.0);
  if (subtokens.empty()) return vec;
  for (const auto& sub : subtokens) {
    const auto sv = embed_token(sub);
    for (std::size_t d = 0; d < vec.size(); ++d) vec[d] += sv[d];
  }
  normalize(vec);
  return vec;
}

double EmbeddingModel::name_similarity(const std::string& a,
                                       const std::string& b) const {
  return cosine(embed_name(a), embed_name(b));
}

double EmbeddingModel::cosine(const std::vector<double>& a,
                              const std::vector<double>& b) {
  DE_EXPECTS(a.size() == b.size());
  double num = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return num / std::sqrt(na * nb);
}

}  // namespace decompeval::embed
