// Windowed co-occurrence counting over an interned corpus — the counting
// core both embedding training entry points share.
//
// Counts are integers keyed by the corpus's 32-bit ids. The fast path
// groups every token position by word (a counting sort over the token
// stream) and then counts each word's row on its own with a length-v
// accumulator, so its memory grows with the corpus (tokens plus distinct
// pairs), never with v². The map-based per-block counting it replaced is
// kept as the reference path, selected by EmbeddingOptions::reference_kernel
// (which the trainer also sets under -DDECOMPEVAL_NO_SIMD). Both paths
// produce the same counts, so the model trained from them is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "embed/corpus.h"
#include "embed/embedding.h"
#include "util/parallel.h"

namespace decompeval::embed {

struct CooccurrenceCounts {
  /// rows[w]: (context id, count) for every word seen within `window`
  /// positions of word w in the same sentence, sorted by context id.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> rows;
  /// token_count[w]: the sum of row w's counts.
  std::vector<std::uint64_t> token_count;
  /// The sum of every row's counts.
  std::uint64_t total_pairs = 0;
  /// One note per sentence block ("embed.train" hit) whose counting
  /// faulted and whose sentences were left out, in block order, naming the
  /// block and its sentence range.
  std::vector<std::string> quarantine_notes;

  bool operator==(const CooccurrenceCounts&) const = default;
};

/// Counts the corpus on `pool` with `options.window`,
/// `options.block_sentences` and `options.faults`; `options.reference_kernel`
/// selects the map-based reference counting. The result does not depend on
/// the pool's thread count.
CooccurrenceCounts count_cooccurrences(const InternedCorpus& corpus,
                                       const EmbeddingOptions& options,
                                       util::ThreadPool& pool);

}  // namespace decompeval::embed
