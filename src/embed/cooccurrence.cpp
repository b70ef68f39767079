#include "embed/cooccurrence.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>

#include "util/check.h"

namespace decompeval::embed {

namespace {

// Number of `block_sentences` blocks the trainer splits `n_sentences`
// into: the unit of fault quarantine (and of parallelism on the reference
// path). An empty corpus still has one block.
std::size_t count_blocks(std::size_t n_sentences,
                         std::size_t block_sentences) {
  DE_EXPECTS_MSG(block_sentences > 0,
                 "embedding block_sentences must be >= 1");
  return (std::max<std::size_t>(n_sentences, 1) + block_sentences - 1) /
         block_sentences;
}

// Sentences [begin, end) of block `block_id`.
std::pair<std::size_t, std::size_t> block_range(std::size_t block_id,
                                                std::size_t n_sentences,
                                                std::size_t block_sentences) {
  const std::size_t begin = block_id * block_sentences;
  return {begin, std::min(n_sentences, begin + block_sentences)};
}

// Context window [lo, hi) of position p in a sentence spanning
// [begin, end); p itself is skipped by the callers.
std::pair<std::size_t, std::size_t> window_of(std::size_t p, std::size_t begin,
                                              std::size_t end,
                                              std::size_t window) {
  const std::size_t lo = p - begin > window ? p - window : begin;
  const std::size_t hi = end - p > window ? p + window + 1 : end;
  return {lo, hi};
}

// Groups the token positions of every live sentence by word, then counts
// each word's row independently: its occurrences' windows are tallied in a
// length-v accumulator, the touched contexts are sorted, and the
// accumulator is zeroed again. Rows are independent tasks and their counts
// are integers, so the result is the same for any thread count.
void count_grouped(const InternedCorpus& corpus, std::size_t window,
                   const std::vector<char>& live, util::ThreadPool& pool,
                   CooccurrenceCounts& out) {
  const std::size_t v = corpus.vocabulary.size();
  const auto& tokens = corpus.tokens;
  const auto& sentence_begin = corpus.sentence_begin;

  // Word w's occurrences are occurrences[first[w] .. first[w + 1]).
  struct Occurrence {
    std::uint32_t position;
    std::uint32_t sentence;
  };
  std::vector<std::uint32_t> first(v + 1, 0);
  for (std::size_t s = 0; s < corpus.sentences(); ++s)
    if (live[s])
      for (std::uint32_t k = sentence_begin[s]; k < sentence_begin[s + 1]; ++k)
        ++first[tokens[k] + 1];
  for (std::size_t w = 0; w < v; ++w) first[w + 1] += first[w];
  std::vector<Occurrence> occurrences(first[v]);
  std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
  for (std::size_t s = 0; s < corpus.sentences(); ++s)
    if (live[s])
      for (std::uint32_t k = sentence_begin[s]; k < sentence_begin[s + 1]; ++k)
        occurrences[next[tokens[k]]++] = {k, static_cast<std::uint32_t>(s)};

  pool.parallel_for(v, [&](std::size_t w) {
    // All zero between rows; grows to the largest vocabulary seen.
    thread_local std::vector<std::uint32_t> tally;
    thread_local std::vector<std::uint32_t> touched;
    if (tally.size() < v) tally.resize(v, 0);
    touched.clear();
    std::uint64_t pairs = 0;
    for (std::uint32_t o = first[w]; o < first[w + 1]; ++o) {
      const Occurrence& occ = occurrences[o];
      const auto [lo, hi] =
          window_of(occ.position, sentence_begin[occ.sentence],
                    sentence_begin[occ.sentence + 1], window);
      for (std::size_t j = lo; j < hi; ++j) {
        if (j == occ.position) continue;
        const std::uint32_t c = tokens[j];
        if (tally[c]++ == 0) touched.push_back(c);
      }
      pairs += hi - lo - 1;
    }
    std::sort(touched.begin(), touched.end());
    auto& row = out.rows[w];
    row.reserve(touched.size());
    for (const std::uint32_t c : touched) {
      row.emplace_back(c, tally[c]);
      tally[c] = 0;
    }
    out.token_count[w] = pairs;
  });
}

// The original counting, kept as the differential reference: one pair of
// hash maps per sentence block, merged in block order, rows sorted after.
void count_reference(const InternedCorpus& corpus, std::size_t window,
                     std::size_t block_sentences,
                     const std::vector<char>& live, util::ThreadPool& pool,
                     CooccurrenceCounts& out) {
  struct Shard {
    std::unordered_map<std::size_t, std::unordered_map<std::size_t, double>>
        cooc;
    std::unordered_map<std::size_t, double> token_count;
  };
  const std::size_t n = corpus.sentences();
  const std::size_t n_blocks = count_blocks(n, block_sentences);
  std::vector<Shard> shards(n_blocks);
  pool.parallel_for(n_blocks, [&](std::size_t block_id) {
    Shard& shard = shards[block_id];
    const auto [begin, end] = block_range(block_id, n, block_sentences);
    for (std::size_t s = begin; s < end; ++s) {
      if (!live[s]) continue;
      const std::size_t sb = corpus.sentence_begin[s];
      const std::size_t se = corpus.sentence_begin[s + 1];
      for (std::size_t i = sb; i < se; ++i) {
        const std::size_t wi = corpus.tokens[i];
        const auto [lo, hi] = window_of(i, sb, se, window);
        for (std::size_t j = lo; j < hi; ++j) {
          if (j == i) continue;
          shard.cooc[wi][corpus.tokens[j]] += 1.0;
          shard.token_count[wi] += 1.0;
        }
      }
    }
  });

  const std::size_t v = corpus.vocabulary.size();
  std::vector<std::unordered_map<std::size_t, double>> cooc(v);
  std::vector<double> token_count(v, 0.0);
  for (const Shard& shard : shards) {
    for (const auto& [wi, row] : shard.cooc)
      for (const auto& [cj, count] : row) cooc[wi][cj] += count;
    for (const auto& [wi, count] : shard.token_count)
      token_count[wi] += count;
  }
  pool.parallel_for(v, [&](std::size_t w) {
    std::vector<std::pair<std::size_t, double>> sorted(cooc[w].begin(),
                                                       cooc[w].end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [cj, count] : sorted)
      out.rows[w].emplace_back(static_cast<std::uint32_t>(cj),
                               static_cast<std::uint32_t>(count));
    out.token_count[w] = static_cast<std::uint64_t>(token_count[w]);
  });
}

}  // namespace

CooccurrenceCounts count_cooccurrences(const InternedCorpus& corpus,
                                       const EmbeddingOptions& options,
                                       util::ThreadPool& pool) {
  DE_EXPECTS(options.window > 0);
  const std::size_t n = corpus.sentences();
  // A window wider than the longest sentence counts the same pairs as one
  // exactly that wide. Each token then pairs with at most 2 * window
  // others, and the pair total must fit the 32-bit count fields.
  std::size_t window = 1;
  for (std::size_t s = 0; s < n; ++s)
    window = std::max<std::size_t>(
        window, corpus.sentence_begin[s + 1] - corpus.sentence_begin[s]);
  window = std::min(window, options.window);
  DE_EXPECTS_MSG(corpus.tokens.size() <=
                     std::numeric_limits<std::uint32_t>::max() / 2 / window,
                 "corpus too large for 32-bit co-occurrence counts");
  const std::size_t n_blocks = count_blocks(n, options.block_sentences);

  // Blocks — not worker threads — are the unit of fault quarantine, so an
  // injected "embed.train" fault drops the same sentences at every thread
  // count and chaos outcomes replay.
  CooccurrenceCounts out;
  std::vector<char> live(n, 1);
  for (std::size_t block_id = 0; block_id < n_blocks; ++block_id) {
    if (options.faults == nullptr ||
        !options.faults->should_fire("embed.train", block_id))
      continue;
    const auto [begin, end] =
        block_range(block_id, n, options.block_sentences);
    std::fill(live.begin() + begin, live.begin() + end, 0);
    out.quarantine_notes.push_back(
        "embedding trainer block " + std::to_string(block_id) + "/" +
        std::to_string(n_blocks) + " quarantined (sentences " +
        std::to_string(begin) + ".." + std::to_string(end) + " dropped)");
  }

  const std::size_t v = corpus.vocabulary.size();
  out.rows.resize(v);
  out.token_count.assign(v, 0);
  if (options.reference_kernel)
    count_reference(corpus, window, options.block_sentences, live, pool, out);
  else
    count_grouped(corpus, window, live, pool, out);
  for (const std::uint64_t count : out.token_count) out.total_pairs += count;
  return out;
}

}  // namespace decompeval::embed
