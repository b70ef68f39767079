// Json under seeded mutation: request lines (one per op-table row, the
// request shapes the cluster benchmark sends and a forged result install)
// are mutated byte by byte with Rng::split streams, so every run sees the
// same 20,000 lines. Each must either throw JsonError or parse to a value
// whose dump() re-parses to the same dump(); a slice of them, sent to a
// live server, must each draw exactly one structured answer and leave the
// connection serving.
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/json.h"
#include "service/ops.h"
#include "service/server.h"
#include "util/rng.h"

namespace {

using namespace decompeval;
using service::Json;
using service::JsonError;

constexpr std::size_t kMutatedLines = 20000;
constexpr std::size_t kServedLines = 200;

// Fields each op reads, beside "op"; an op missing here sends "op" alone.
const std::map<std::string_view, std::string>& op_fields() {
  static const std::map<std::string_view, std::string> fields = {
      {"run_study", R"("seed":7,"threads":2,"deadline_ms":500)"},
      {"run_replication",
       R"("seed":68,"run_models":false,"run_metrics":true,)"
       R"("corpus_sentences":2000,"corpus_seed":42,"include_rendered":true)"},
      {"annotate",
       R"("source":"int f(int a1) {\n  return a1 + 1;\n}\n",)"
       R"("typedefs":["u8","DWORD"],"baseline":"int f(int a1) {}\n")"},
      {"cache_gc", R"("max_age_ms":1000)"},
      {"stream_open",
       R"("stream":"s-1","seed":9,"refit_every":50,"process":"bursty",)"
       R"("window":200)"},
      {"stream_absorb", R"("stream":"s-1","upto":10,"lane":"batch")"},
      {"stream_stats", R"("stream":"s-1")"},
      {"stream_dashboard", R"("stream":"s-1")"},
  };
  return fields;
}

std::vector<std::string> seed_lines() {
  std::vector<std::string> lines;
  for (const service::OpSpec& spec : service::op_table()) {
    std::string line = "{\"op\":\"" + std::string(spec.name) + "\"";
    const auto it = op_fields().find(spec.name);
    if (it != op_fields().end()) line += "," + it->second;
    lines.push_back(line + "}");
  }
  // The cluster benchmark's shapes: study reads, the replication sweep,
  // annotate edits against a baseline, and the live-study stream cycle.
  const char* bench[] = {
      R"({"op":"run_study","seed":1234567})",
      R"({"op":"run_replication","seed":88123,"run_metrics":true})",
      R"({"op":"run_replication","seed":2,"run_models":false,)"
      R"("run_metrics":true})",
      R"({"op":"annotate","source":"int s0_f3(char *a1, int a2) {\n  int )"
      R"(v6 = 0;\n  int i;\n  for (i = 0; i < a2; i = i + 1) {\n    if )"
      R"((a1[i] == 7) { v6 = v6 + 1; }\n  }\n  return v6;\n}\n\n",)"
      R"("baseline":"int s0_f3(char *a1, int a2) {\n  return 0;\n}\n\n"})",
      R"({"op":"stream_open","stream":"stream-0","seed":3200,)"
      R"("refit_every":50000})",
      R"({"op":"stream_absorb","stream":"stream-0","upto":1100})",
      R"({"op":"stream_dashboard","stream":"stream-0"})",
      // The retired replica-install op, as a client forging an answer
      // would send it.
      R"({"op":"cache_install","request":{"op":"run_study","seed":7},)"
      R"("response":{"status":"ok","op":"run_study","digest":"00ff",)"
      R"("recruited":40,"notes":[]}})",
  };
  lines.insert(lines.end(), std::begin(bench), std::end(bench));
  return lines;
}

// A byte the mutator may write: JSON punctuation most of the time, so
// mutants reach past the first syntax error; never a newline.
char mutant_byte(util::Rng& rng) {
  static constexpr std::string_view kTokens = "{}[]\":,\\/ 0123456789.-+eEu";
  if (rng.bernoulli(0.5)) return kTokens[rng.uniform_index(kTokens.size())];
  const auto b = static_cast<unsigned char>(rng.uniform_index(255));
  return static_cast<char>(b >= '\n' ? b + 1 : b);
}

// One of: flip a bit, insert a byte, delete a span, duplicate a span,
// truncate. None of them produces a newline byte.
void mutate(std::string& line, util::Rng& rng) {
  const auto at = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng.uniform_index(bound + 1));
  };
  const auto span = [&] { return 1 + rng.uniform_index(16); };
  switch (rng.uniform_index(5)) {
    case 0:
      if (!line.empty()) {
        char& c = line[at(line.size() - 1)];
        const int bit = static_cast<int>(rng.uniform_index(8));
        c = static_cast<char>(c ^ (1 << bit));
        if (c == '\n') c = static_cast<char>(c ^ (1 << ((bit + 1) % 8)));
      }
      break;
    case 1:
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(at(line.size())),
                  mutant_byte(rng));
      break;
    case 2: {
      const std::size_t from = at(line.size());
      line.erase(from, span());
      break;
    }
    case 3: {
      const std::size_t from = at(line.size());
      const std::string copy = line.substr(from, span());
      line.insert(at(line.size()), copy);
      break;
    }
    default:
      line.resize(at(line.size()));
  }
}

// kMutatedLines lines, each one seed line under 1-3 mutations; line i is
// a pure function of i.
const std::vector<std::string>& mutated_lines() {
  static const std::vector<std::string> lines = [] {
    const std::vector<std::string> seeds = seed_lines();
    const util::Rng root(0x15A7E);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kMutatedLines; ++i) {
      util::Rng rng = root.split(i);
      std::string line = seeds[rng.uniform_index(seeds.size())];
      for (std::uint64_t m = 1 + rng.uniform_index(3); m > 0; --m)
        mutate(line, rng);
      out.push_back(std::move(line));
    }
    return out;
  }();
  return lines;
}

std::optional<Json> try_parse(const std::string& line) {
  try {
    return Json::parse(line);
  } catch (const JsonError&) {
    return std::nullopt;
  }
}

TEST(JsonFuzz, MutatedLinesThrowJsonErrorOrRoundTripTheirDump) {
  std::size_t parsed = 0;
  for (const std::string& line : mutated_lines()) {
    ASSERT_EQ(line.find('\n'), std::string::npos);
    const std::optional<Json> value = try_parse(line);
    if (!value) continue;
    ++parsed;
    const std::string once = value->dump();
    std::string twice;
    ASSERT_NO_THROW(twice = Json::parse(once).dump()) << line;
    ASSERT_EQ(twice, once) << line;
  }
  // Both outcomes are exercised.
  EXPECT_GT(parsed, kMutatedLines / 20);
  EXPECT_LT(parsed, kMutatedLines - kMutatedLines / 20);
}

// Reads one line (without its newline) from a blocking socket; empty when
// the peer closed or the 3 s receive timeout passed.
std::string read_line(int fd, std::string& buffer) {
  std::size_t newline;
  while ((newline = buffer.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return {};
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::string line = buffer.substr(0, newline);
  buffer.erase(0, newline + 1);
  return line;
}

TEST(JsonFuzz, ServerAnswersEachMutatedLineOnceAndKeepsServing) {
  service::ServerOptions options;
  options.socket_path =
      "/tmp/decompeval-fuzz-" + std::to_string(::getpid()) + ".sock";
  // Trivial, so no mutated request runs the pipeline.
  options.handler = [](const Json& request, const std::atomic<bool>*) {
    Json r = service::ok_response();
    service::echo_op(r, request);
    return r;
  };
  service::ReplicationServer server(options);
  server.start();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  // An empty line is not a request, and "shutdown" stops the server by
  // design; every other line is fair game.
  std::vector<std::string> served;
  for (const std::string& line : mutated_lines()) {
    if (served.size() == kServedLines) break;
    if (line.empty()) continue;
    const std::optional<Json> value = try_parse(line);
    if (value && value->is_object() &&
        value->get_string("op", "") == "shutdown")
      continue;
    served.push_back(line);
  }
  ASSERT_EQ(served.size(), kServedLines);

  std::string buffer;
  for (const std::string& line : served) {
    const std::string wire = line + "\n";
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    const std::string answer = read_line(fd, buffer);
    ASSERT_FALSE(answer.empty()) << "no answer to " << line;
    const std::optional<Json> reply = try_parse(answer);
    ASSERT_TRUE(reply && reply->is_object()) << answer;
    EXPECT_FALSE(reply->get_string("status", "").empty()) << answer;
  }
  // The connection still answers a ping. After it the client stops
  // sending, and the server closes the connection with nothing more to
  // say, so no line drew a second answer.
  const std::string ping = "{\"op\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  const std::optional<Json> pong = try_parse(read_line(fd, buffer));
  ASSERT_TRUE(pong && pong->is_object());
  EXPECT_EQ(pong->get_string("status", ""), "ok");
  EXPECT_EQ(pong->get_string("op", ""), "ping");
  ::shutdown(fd, SHUT_WR);
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  EXPECT_TRUE(buffer.empty());
  ::close(fd);
  server.stop();
}

}  // namespace
