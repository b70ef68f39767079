#include "embed/corpus.h"

#include <span>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/rng.h"

namespace decompeval::embed {

const std::vector<ConceptCluster>& concept_clusters() {
  static const std::vector<ConceptCluster> kClusters = {
      {"size",
       {"size", "length", "len", "count", "n", "num", "nbytes", "sz"},
       {"buffer", "array", "alloc", "bytes", "total", "max", "limit"}},
      {"buffer",
       {"buffer", "buf", "data", "bytes", "mem", "block", "chunk"},
       {"copy", "write", "read", "size", "alloc", "free", "fill"}},
      {"string",
       {"string", "str", "text", "chars", "name", "word"},
       {"length", "copy", "compare", "concat", "format", "print"}},
      {"index",
       {"index", "idx", "pos", "position", "i", "j", "offset", "cursor"},
       {"array", "loop", "element", "iterate", "bound", "range"}},
      {"key",
       {"key", "klen", "id", "ident", "lookup", "hash"},
       {"map", "table", "find", "search", "entry", "bucket"}},
      {"array",
       {"array", "arr", "list", "vector", "vec", "elements", "items"},
       {"index", "size", "element", "insert", "remove", "sort"}},
      {"tree",
       {"tree", "node", "root", "leaf", "subtree", "branch"},
       {"left", "right", "parent", "child", "traverse", "depth"}},
      {"callback",
       {"callback", "cb", "fn", "func", "function", "handler", "hook",
        "visit", "cmp", "cmpfn", "compare"},
       {"pointer", "call", "invoke", "apply", "each", "arg"}},
      {"source",
       {"source", "src", "input", "in", "from", "orig"},
       {"dest", "copy", "read", "stream", "move"}},
      {"dest",
       {"dest", "dst", "destination", "output", "out", "to", "target"},
       {"src", "copy", "write", "stream", "move"}},
      {"result",
       {"result", "ret", "rv", "retval", "val", "value", "res", "ans"},
       {"return", "status", "code", "check", "success"}},
      {"error",
       {"error", "err", "errno", "fail", "fault", "status"},
       {"code", "check", "return", "handle", "log", "abort"}},
      {"path",
       {"path", "file", "filename", "dir", "directory", "fname"},
       {"open", "close", "read", "write", "append", "separator", "slash"}},
      {"crypto",
       {"ssl", "tls", "crypto", "cipher", "digest", "sign"},
       {"context", "session", "handshake", "encrypt", "decrypt", "cert"}},
      {"padding",
       {"padding", "pad", "fill", "mask", "complement"},
       {"byte", "align", "buffer", "xor", "twos", "negate"}},
      {"pointer",
       {"pointer", "ptr", "addr", "address", "ref", "p"},
       {"deref", "null", "cast", "memory", "offset", "struct"}},
      {"temp",
       {"temp", "tmp", "scratch", "aux", "spare"},
       {"swap", "hold", "local", "intermediate"}},
      {"flag",
       {"flag", "flags", "bit", "bits", "option", "opts", "mode"},
       {"set", "clear", "test", "mask", "toggle", "check"}},
      {"time",
       {"time", "timestamp", "ts", "clock", "when", "epoch"},
       {"now", "elapsed", "duration", "second", "milli", "tick"}},
      {"lock",
       {"lock", "mutex", "sem", "semaphore", "latch", "guard"},
       {"acquire", "release", "wait", "thread", "atomic", "hold"}},
      {"queue",
       {"queue", "fifo", "deque", "ring", "pipeline"},
       {"push", "pop", "head", "tail", "empty", "full"}},
      {"stack",
       {"stack", "lifo", "frames"},
       {"push", "pop", "top", "frame", "depth", "overflow"}},
      {"socket",
       {"socket", "sock", "conn", "connection", "fd", "channel"},
       {"accept", "listen", "bind", "send", "recv", "close", "port"}},
      {"packet",
       {"packet", "pkt", "frame", "datagram", "message", "msg"},
       {"header", "payload", "send", "recv", "parse", "checksum"}},
      {"memory",
       {"memory", "mem", "heap", "pool", "arena", "region"},
       {"alloc", "free", "map", "page", "slab", "leak"}},
      {"entry",
       {"entry", "element", "item", "record", "slot", "cell"},
       {"table", "insert", "delete", "extract", "find", "metadata"}},
      {"header",
       {"header", "hdr", "head", "prefix", "preamble"},
       {"parse", "field", "magic", "version", "length"}},
      {"config",
       {"config", "cfg", "settings", "options", "params", "parameters"},
       {"load", "parse", "default", "override", "validate"}},
      {"user",
       {"user", "client", "owner", "uid", "account"},
       {"login", "auth", "permission", "session", "name"}},
      {"state",
       {"state", "status", "phase", "stage", "condition"},
       {"machine", "transition", "current", "next", "update"}},
      {"line",
       {"line", "row", "record", "entry"},
       {"read", "parse", "number", "column", "split", "file"}},
      {"char",
       {"char", "character", "byte", "ch", "c", "letter"},
       {"string", "ascii", "encode", "decode", "compare"}},
      {"width",
       {"width", "height", "depth", "dim", "dimension", "extent"},
       {"pixel", "rect", "bound", "resize", "scale"}},
      {"sum",
       {"sum", "total", "accum", "accumulator", "aggregate"},
       {"add", "loop", "reduce", "average", "mean"}},
      {"weight",
       {"weight", "score", "rank", "priority", "cost"},
       {"sort", "compare", "heap", "best", "max", "min"}},
      {"id",
       {"id", "identifier", "tag", "label", "token"},
       {"unique", "lookup", "assign", "generate", "match"}},
      {"version",
       {"version", "ver", "revision", "rev", "release"},
       {"major", "minor", "patch", "compare", "upgrade"}},
      {"signal",
       {"signal", "sig", "event", "notify", "interrupt"},
       {"handler", "raise", "catch", "mask", "pending"}},
      {"child",
       {"child", "parent", "sibling", "ancestor", "descendant"},
       {"tree", "node", "link", "traverse", "process", "fork"}},
      {"iterator",
       {"iterator", "iter", "it", "walker", "scanner"},
       {"next", "begin", "end", "advance", "loop", "element"}},
      {"auxiliary",
       {"auxiliary", "aux", "extra", "context", "ctx", "env", "opaque",
        "userdata", "cookie", "info"},
       {"pass", "carry", "callback", "state", "pointer", "through"}},
  };
  return kClusters;
}

namespace {

constexpr std::uint32_t kUnseen = 0xFFFFFFFFu;

// Closes the sentence whose tokens were just appended.
void end_sentence(InternedCorpus& corpus) {
  DE_EXPECTS_MSG(corpus.tokens.size() < kUnseen,
                 "corpus has too many tokens for 32-bit ids");
  corpus.sentence_begin.push_back(
      static_cast<std::uint32_t>(corpus.tokens.size()));
}

}  // namespace

InternedCorpus intern_corpus(
    const std::vector<std::vector<std::string>>& sentences) {
  InternedCorpus corpus;
  std::unordered_map<std::string_view, std::uint32_t> ids;
  corpus.sentence_begin.reserve(sentences.size() + 1);
  for (const auto& sentence : sentences) {
    for (const std::string& token : sentence) {
      const auto [it, inserted] = ids.emplace(
          token, static_cast<std::uint32_t>(corpus.vocabulary.size()));
      if (inserted) corpus.vocabulary.push_back(token);
      corpus.tokens.push_back(it->second);
    }
    end_sentence(corpus);
  }
  return corpus;
}

namespace {

// The cluster inventory with each distinct word interned once, so the
// generator emits a token by indexing, not by copying or hashing a string:
// cluster c's members are list 2c and its contexts list 2c + 1.
const InternedCorpus& interned_inventory() {
  static const InternedCorpus kInventory = [] {
    std::vector<std::vector<std::string>> lists;
    for (const ConceptCluster& c : concept_clusters()) {
      lists.push_back(c.members);
      lists.push_back(c.contexts);
    }
    return intern_corpus(lists);
  }();
  return kInventory;
}

// List `l` of the inventory.
std::span<const std::uint32_t> inventory_list(const InternedCorpus& inv,
                                              std::size_t l) {
  return {inv.tokens.data() + inv.sentence_begin[l],
          inv.sentence_begin[l + 1] - inv.sentence_begin[l]};
}

}  // namespace

InternedCorpus generate_interned_corpus(std::size_t n_sentences,
                                        std::uint64_t seed) {
  DE_EXPECTS(n_sentences > 0);
  util::Rng rng(seed);
  const InternedCorpus& inv = interned_inventory();
  const std::size_t n_clusters = inv.sentences() / 2;
  // Inventory id -> corpus id, assigned on first appearance.
  std::vector<std::uint32_t> corpus_id(inv.vocabulary.size(), kUnseen);
  InternedCorpus corpus;
  corpus.sentence_begin.reserve(n_sentences + 1);
  std::vector<std::uint32_t> sentence;
  for (std::size_t s = 0; s < n_sentences; ++s) {
    const std::size_t cluster = rng.uniform_index(n_clusters);
    const auto members = inventory_list(inv, 2 * cluster);
    const auto contexts = inventory_list(inv, 2 * cluster + 1);
    sentence.clear();
    // 2–4 synonyms from the cluster share this context window.
    const std::size_t n_members = 2 + rng.uniform_index(3);
    for (std::size_t i = 0; i < n_members; ++i)
      sentence.push_back(members[rng.uniform_index(members.size())]);
    // 3–6 context words.
    const std::size_t n_contexts = 3 + rng.uniform_index(4);
    for (std::size_t i = 0; i < n_contexts; ++i)
      sentence.push_back(contexts[rng.uniform_index(contexts.size())]);
    // Occasional cross-cluster noise keeps unrelated clusters from
    // collapsing to orthogonality artifacts.
    if (rng.bernoulli(0.3)) {
      const auto other = inventory_list(inv, 2 * rng.uniform_index(n_clusters));
      sentence.push_back(other[rng.uniform_index(other.size())]);
    }
    rng.shuffle(sentence);
    for (const std::uint32_t word : sentence) {
      std::uint32_t& id = corpus_id[word];
      if (id == kUnseen) {
        id = static_cast<std::uint32_t>(corpus.vocabulary.size());
        corpus.vocabulary.push_back(inv.vocabulary[word]);
      }
      corpus.tokens.push_back(id);
    }
    end_sentence(corpus);
  }
  return corpus;
}

std::vector<std::vector<std::string>> generate_corpus(std::size_t n_sentences,
                                                      std::uint64_t seed) {
  const InternedCorpus ids = generate_interned_corpus(n_sentences, seed);
  std::vector<std::vector<std::string>> corpus(ids.sentences());
  for (std::size_t s = 0; s < corpus.size(); ++s)
    for (std::uint32_t k = ids.sentence_begin[s]; k < ids.sentence_begin[s + 1];
         ++k)
      corpus[s].push_back(ids.vocabulary[ids.tokens[k]]);
  return corpus;
}

}  // namespace decompeval::embed
