// Append-only command journal contract suite (CTest label: tier1).
//
// The journal is the durable record of stream state. Covers the record
// format (golden bytes), round trips, fsync batching, the
// "journal.append" fault site, the tail cut on open that keeps appends
// after a crash replayable, the corruption fuzz battery — truncate at
// *every* byte offset and flip *every* byte: replay must stop at the
// last valid record with a structured warning and never crash — replay
// bit-identity (journaled stream writes replayed through fresh backends
// at threads 1/2/4 rebuild byte-identical streams), and a backend's
// replay: it skips records that are not stream writes and leaves a
// stream write that arrives meanwhile journaled. An invalid stream_open
// (a window bound outside 1..65,536 included), an absorb over the
// per-request cap and an absorb on a stream that is not open are refused
// before they reach the journal.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/hash_ring.h"
#include "cluster/journal.h"
#include "util/fault.h"

namespace {

using namespace decompeval;
using cluster::ClusterBackend;
using cluster::ClusterBackendOptions;
using cluster::HashRing;
using cluster::Journal;
using cluster::JournalOptions;
using cluster::ReplayedJournal;
using service::Json;

std::string fresh_journal_path(const std::string& tag) {
  const std::string path = "/tmp/decompeval-journal-" + tag + "-" +
                           std::to_string(::getpid()) + ".log";
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

constexpr std::size_t kHeaderBytes = 12;

TEST(JournalTest, RoundTripPreservesRecordsInOrder) {
  const std::string path = fresh_journal_path("roundtrip");
  const std::vector<std::string> payloads = {
      R"({"op":"run_study","seed":1})", R"({"op":"run_study","seed":2})",
      std::string(1, '\0') + "binary\xff payload", "", "last"};
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    for (const std::string& p : payloads) EXPECT_TRUE(journal.append(p));
    EXPECT_EQ(journal.stats().appends, payloads.size());
    EXPECT_EQ(journal.stats().bytes, file_size(path));
  }
  const ReplayedJournal replayed = Journal::replay(path);
  EXPECT_TRUE(replayed.clean);
  EXPECT_TRUE(replayed.warning.empty());
  ASSERT_EQ(replayed.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(replayed.records[i], payloads[i]) << "record " << i;
  EXPECT_EQ(replayed.bytes_scanned, file_size(path));
  std::remove(path.c_str());
}

TEST(JournalTest, GoldenRecordFormatIsLengthChecksumPayloadLittleEndian) {
  const std::string path = fresh_journal_path("golden");
  const std::string payload = R"({"op":"run_study","seed":42})";
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    ASSERT_TRUE(journal.append(payload));
  }
  const std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());
  // u32 little-endian payload length.
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i)
    length = (length << 8) | static_cast<unsigned char>(bytes[i]);
  EXPECT_EQ(length, payload.size());
  // u64 little-endian checksum — the ring hash, so one hash function
  // covers routing, cache digests, and journal integrity.
  std::uint64_t checksum = 0;
  for (int i = 11; i >= 4; --i)
    checksum = (checksum << 8) | static_cast<unsigned char>(bytes[i]);
  EXPECT_EQ(checksum, HashRing::hash(payload));
  EXPECT_EQ(bytes.substr(kHeaderBytes), payload);
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileReplaysEmptyAndClean) {
  const ReplayedJournal replayed =
      Journal::replay("/tmp/decompeval-journal-definitely-missing.log");
  EXPECT_TRUE(replayed.clean);
  EXPECT_TRUE(replayed.records.empty());
  EXPECT_EQ(replayed.bytes_scanned, 0u);
}

TEST(JournalTest, DisabledJournalRefusesAppendsWithZeroStats) {
  Journal journal(JournalOptions{});
  EXPECT_FALSE(journal.enabled());
  EXPECT_FALSE(journal.append("payload"));
  EXPECT_EQ(journal.stats().appends, 0u);
  EXPECT_EQ(journal.stats().append_failures, 0u);
}

TEST(JournalTest, FsyncsAreBatchedEveryNAppendsAndOnFlush) {
  const std::string path = fresh_journal_path("fsync");
  JournalOptions options;
  options.path = path;
  Journal journal(options);
  for (std::size_t i = 0; i < Journal::kFsyncEvery; ++i)
    ASSERT_TRUE(journal.append("r" + std::to_string(i)));
  EXPECT_EQ(journal.stats().fsyncs, 1u);
  for (std::size_t i = 0; i + 1 < Journal::kFsyncEvery; ++i)
    ASSERT_TRUE(journal.append("s" + std::to_string(i)));
  EXPECT_EQ(journal.stats().fsyncs, 1u);  // batch not full yet
  journal.flush();
  EXPECT_EQ(journal.stats().fsyncs, 2u);
  journal.flush();  // nothing outstanding: no extra fsync
  EXPECT_EQ(journal.stats().fsyncs, 2u);
  std::remove(path.c_str());
}

TEST(JournalTest, AppendFaultFailsCleanlyAndLeavesFileUntouched) {
  const std::string path = fresh_journal_path("appendfault");
  util::FaultPlan plan;
  plan.set("journal.append", util::FaultSpec::once(1));  // second append
  util::FaultInjector faults(plan);
  JournalOptions options;
  options.path = path;
  options.faults = &faults;
  Journal journal(options);

  ASSERT_TRUE(journal.append("first"));
  const std::uint64_t size_before = file_size(path);
  EXPECT_FALSE(journal.append("second"));  // injected failure
  EXPECT_EQ(file_size(path), size_before);  // no bytes written
  EXPECT_EQ(journal.stats().append_failures, 1u);
  ASSERT_TRUE(journal.append("third"));
  journal.flush();

  const ReplayedJournal replayed = Journal::replay(path);
  EXPECT_TRUE(replayed.clean);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[0], "first");
  EXPECT_EQ(replayed.records[1], "third");
  std::remove(path.c_str());
}

TEST(JournalTest, ReplayFaultStopsScanWithStructuredWarning) {
  const std::string path = fresh_journal_path("replayfault");
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(journal.append("r" + std::to_string(i)));
  }
  util::FaultPlan plan;
  plan.set("journal.replay", util::FaultSpec::once(2));  // third record
  util::FaultInjector faults(plan);
  const ReplayedJournal replayed = Journal::replay(path, &faults);
  EXPECT_FALSE(replayed.clean);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_NE(replayed.warning.find("journal replay stopped at record 2"),
            std::string::npos)
      << replayed.warning;
  std::remove(path.c_str());
}

// A restarted backend opens its journal on whatever the crash left. A
// record appended behind a torn tail would sit past the point where
// replay stops, so opening the journal cuts the tail off first and says
// so in journal_stats.
TEST(JournalTest, AppendsAfterATornTailStayReplayable) {
  const std::string path = fresh_journal_path("torn");
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    ASSERT_TRUE(journal.append("first"));
    ASSERT_TRUE(journal.append("second"));
  }
  const std::uint64_t whole = file_size(path);
  // The crash: a 15-byte record whose header promises a 50-byte payload.
  std::string torn(kHeaderBytes + 3, 'x');
  torn[0] = 50;
  torn[1] = torn[2] = torn[3] = 0;
  write_file(path, read_file(path) + torn);

  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  EXPECT_EQ(file_size(path), whole);
  ASSERT_TRUE(backend.journal().append("third"));
  backend.journal().flush();
  const ReplayedJournal replayed = Journal::replay(path);
  EXPECT_TRUE(replayed.clean) << replayed.warning;
  ASSERT_EQ(replayed.records.size(), 3u);
  EXPECT_EQ(replayed.records[2], "third");

  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  const Json stats = backend.handle(stats_request, nullptr);
  const Json* warnings = stats.get("warnings");
  ASSERT_NE(warnings, nullptr);
  ASSERT_EQ(warnings->items().size(), 1u);
  const std::string warning(warnings->items().front().as_string());
  EXPECT_NE(warning.find("offset " + std::to_string(whole)), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("15 bytes dropped"), std::string::npos) << warning;
  EXPECT_NE(warning.find("torn payload"), std::string::npos) << warning;
  std::remove(path.c_str());
}

// The corruption battery (satellite): for a journal of several records,
// truncate at EVERY byte offset and flip EVERY byte. Replay must never
// crash, must return a strict prefix of the original records, and must
// stop with a structured warning exactly when the damage is reachable.
TEST(JournalFuzzTest, TruncationAtEveryOffsetYieldsCleanPrefixOrWarning) {
  const std::string path = fresh_journal_path("fuzz-trunc");
  const std::vector<std::string> payloads = {"alpha", R"({"op":"x"})", "",
                                             "delta-longer-payload"};
  std::vector<std::size_t> boundaries = {0};  // offsets of record starts/ends
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    for (const std::string& p : payloads) {
      ASSERT_TRUE(journal.append(p));
      boundaries.push_back(boundaries.back() + kHeaderBytes + p.size());
    }
  }
  const std::string original = read_file(path);
  ASSERT_EQ(original.size(), boundaries.back());

  const std::string mutant = path + ".mutant";
  for (std::size_t cut = 0; cut <= original.size(); ++cut) {
    write_file(mutant, original.substr(0, cut));
    const ReplayedJournal replayed = Journal::replay(mutant);
    // How many whole records fit in the first `cut` bytes?
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut)
      ++whole;
    ASSERT_EQ(replayed.records.size(), whole) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i)
      EXPECT_EQ(replayed.records[i], payloads[i]) << "cut at " << cut;
    const bool at_boundary = boundaries[whole] == cut;
    EXPECT_EQ(replayed.clean, at_boundary) << "cut at " << cut;
    if (!at_boundary) {
      EXPECT_NE(replayed.warning.find("journal replay stopped"),
                std::string::npos)
          << "cut at " << cut << ": " << replayed.warning;
    }
  }
  std::remove(mutant.c_str());
  std::remove(path.c_str());
}

TEST(JournalFuzzTest, FlippingAnyByteStopsAtLastValidRecordWithWarning) {
  const std::string path = fresh_journal_path("fuzz-flip");
  const std::vector<std::string> payloads = {"alpha", R"({"op":"x"})",
                                             "third-record"};
  std::vector<std::size_t> boundaries = {0};
  {
    JournalOptions options;
    options.path = path;
    Journal journal(options);
    for (const std::string& p : payloads) {
      ASSERT_TRUE(journal.append(p));
      boundaries.push_back(boundaries.back() + kHeaderBytes + p.size());
    }
  }
  const std::string original = read_file(path);

  const std::string mutant = path + ".mutant";
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string damaged = original;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x5a);
    write_file(mutant, damaged);
    const ReplayedJournal replayed = Journal::replay(mutant);
    // The record containing the flipped byte is the first that may fail;
    // every record before it must replay intact. A flipped length prefix
    // can also invalidate everything after it, so the result is a prefix
    // of at most `hit` records — never garbage, never a crash.
    std::size_t hit = 0;
    while (hit + 1 < boundaries.size() && boundaries[hit + 1] <= pos) ++hit;
    EXPECT_FALSE(replayed.clean) << "flip at " << pos;
    EXPECT_NE(replayed.warning.find("journal replay stopped at record"),
              std::string::npos)
        << "flip at " << pos << ": " << replayed.warning;
    ASSERT_LE(replayed.records.size(), hit) << "flip at " << pos;
    ASSERT_EQ(replayed.records.size(), hit) << "flip at " << pos;
    for (std::size_t i = 0; i < replayed.records.size(); ++i)
      EXPECT_EQ(replayed.records[i], payloads[i]) << "flip at " << pos;
  }
  std::remove(mutant.c_str());
  std::remove(path.c_str());
}

Json stream_op(const char* op, const char* stream) {
  Json request = Json::object();
  request.set("op", Json::string(op));
  request.set("stream", Json::string(stream));
  return request;
}

std::string status_of(const Json& response) {
  return response.get_string("status", "");
}

// Replay identity: one journal of stream writes, replayed through fresh
// backends pinned to 1, 2, and 4 threads, rebuilds byte-identical stream
// state — the whole reason journal records strip volatile fields like
// "threads".
TEST(JournalReplayIdentityTest, ReplayIsBitIdenticalAcrossThreadCounts) {
  const std::string path = fresh_journal_path("identity");
  std::string want_stats;
  std::string want_dashboard;
  {
    ClusterBackendOptions options;
    options.journal.path = path;
    ClusterBackend backend(options);
    Json open = stream_op("stream_open", "s");
    open.set("population", Json::number(24));
    open.set("refit_every", Json::number(40));
    Json first = stream_op("stream_absorb", "s");
    first.set("upto", Json::number(100));
    Json second = stream_op("stream_absorb", "s");
    second.set("upto", Json::number(200));
    for (Json command : {open, first, second}) {
      command.set("threads", Json::number(3.0));  // stripped when journaled
      ASSERT_EQ(status_of(backend.handle(command, nullptr)), "ok");
    }
    want_stats = backend.handle(stream_op("stream_stats", "s"), nullptr).dump();
    want_dashboard =
        backend.handle(stream_op("stream_dashboard", "s"), nullptr).dump();
  }

  const ReplayedJournal replayed = Journal::replay(path);
  ASSERT_TRUE(replayed.clean);
  ASSERT_EQ(replayed.records.size(), 3u);
  for (const double threads : {1.0, 2.0, 4.0}) {
    ClusterBackend backend{ClusterBackendOptions{}};
    for (const std::string& record : replayed.records) {
      Json command = Json::parse(record);
      EXPECT_EQ(command.get("threads"), nullptr)
          << "volatile field survived journaling";
      command.set("threads", Json::number(threads));
      ASSERT_EQ(status_of(backend.handle(command, nullptr)), "ok");
    }
    EXPECT_EQ(backend.handle(stream_op("stream_stats", "s"), nullptr).dump(),
              want_stats)
        << "threads=" << threads;
    EXPECT_EQ(
        backend.handle(stream_op("stream_dashboard", "s"), nullptr).dump(),
        want_dashboard)
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

// An invalid stream_open is refused before it is journaled, so no replay
// ever re-runs it. Its "stream" id must be a non-empty string, each field
// that sizes a stream a non-negative integer, and "population" and
// "fit_starts" at least 1 and under their caps; a valid open after them is
// journaled as usual.
TEST(JournalReplayTest, InvalidStreamOpenIsRefusedBeforeItIsJournaled) {
  const std::string path = fresh_journal_path("invalid-open");
  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  const auto appends = [&] {
    return backend.handle(stats_request, nullptr).get_number("appends", -1);
  };
  const double appends_before = appends();
  ASSERT_GE(appends_before, 0.0);

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, double>> invalid = {
      {"population", 0},   {"fit_starts", 0},   {"window_events", 2.5},
      {"population", 5e7}, {"fit_starts", 5e7}, {"refit_every", -1},
      {"seed", inf},       {"window_age_ms", 0.5}, {"stream", 0}};
  for (const auto& [field, value] : invalid) {
    SCOPED_TRACE(std::string(field) + "=" + std::to_string(value));
    Json open = stream_op("stream_open", "s");
    open.set(field, Json::number(value));
    EXPECT_EQ(status_of(backend.handle(open, nullptr)), "bad_request");
    EXPECT_EQ(appends(), appends_before);
    EXPECT_EQ(backend.streaming().open_streams(), 0u);
  }

  Json open = stream_op("stream_open", "s");
  open.set("population", Json::number(24));
  open.set("fit_starts", Json::number(2));
  EXPECT_EQ(status_of(backend.handle(open, nullptr)), "ok");
  EXPECT_EQ(appends(), appends_before + 1);
  std::remove(path.c_str());
}

// "window_events" sizes every refit's fit, so it is at least 1 (0 once
// turned the event bound off, fitting every row absorbed so far) and at
// most 65,536, 16× its default. An open outside those bounds is refused
// before it is journaled; one at the cap opens.
TEST(JournalReplayTest, StreamOpenOutsideTheWindowBoundsIsRefused) {
  const std::string path = fresh_journal_path("window-bound");
  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  const auto appends = [&] {
    return backend.handle(stats_request, nullptr).get_number("appends", -1);
  };
  const double appends_before = appends();
  ASSERT_GE(appends_before, 0.0);
  for (const double events : {0.0, 65537.0}) {
    SCOPED_TRACE(events);
    Json open = stream_op("stream_open", "s");
    open.set("window_events", Json::number(events));
    EXPECT_EQ(status_of(backend.handle(open, nullptr)), "bad_request");
    EXPECT_EQ(appends(), appends_before);
    EXPECT_EQ(backend.streaming().open_streams(), 0u);
  }
  Json open = stream_op("stream_open", "s");
  open.set("population", Json::number(24));
  open.set("window_events", Json::number(65536));
  EXPECT_EQ(status_of(backend.handle(open, nullptr)), "ok");
  EXPECT_EQ(appends(), appends_before + 1);
  std::remove(path.c_str());
}

// An absolute absorb on a stream that is not open is refused before it is
// journaled, with the answer the engine itself gives. Before, the backend
// journaled each such absorb and every journal_replay re-ran it as a
// failure; a replica that was down when its stream was opened would
// journal every later absorb it was sent.
TEST(JournalReplayTest, AbsorbOnAStreamThatIsNotOpenIsNeverJournaled) {
  const std::string path = fresh_journal_path("unopened-absorb");
  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  for (const double upto : {10.0, 20.0, 30.0}) {
    Json absorb = stream_op("stream_absorb", "ghost");
    absorb.set("upto", Json::number(upto));
    const Json answer = backend.handle(absorb, nullptr);
    EXPECT_EQ(answer.dump(), backend.streaming().handle(absorb).dump());
    EXPECT_EQ(answer.get_string("status", ""), "error");
    EXPECT_EQ(answer.get_string("error", ""), "unknown stream 'ghost'");
  }
  EXPECT_EQ(backend.handle(stats_request, nullptr).get_number("appends", -1),
            0.0);
  Json replay = Json::object();
  replay.set("op", Json::string("journal_replay"));
  const Json report = backend.handle(replay, nullptr);
  EXPECT_EQ(report.get_number("replayed", -1), 0.0);
  EXPECT_EQ(report.get_number("failures", -1), 0.0);
  EXPECT_EQ(backend.streaming().open_streams(), 0u);
  std::remove(path.c_str());
}

// An absorb that asks for more than kMaxAbsorbPerRequest arrivals is
// refused before it is journaled and before any arrival is generated: an
// "upto" one past the cap, and a target no stream could reach in a week.
// The engine's own handle() refuses the same target. An absorb under the
// cap then runs as usual.
TEST(JournalReplayTest, OversizedAbsorbIsRefusedBeforeItIsJournaled) {
  const std::string path = fresh_journal_path("oversized-absorb");
  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  const auto appends = [&] {
    return backend.handle(stats_request, nullptr).get_number("appends", -1);
  };
  const auto emitted = [&] {
    return backend.handle(stream_op("stream_stats", "s"), nullptr)
        .get_number("emitted", -1);
  };
  Json open = stream_op("stream_open", "s");
  open.set("population", Json::number(24));
  ASSERT_EQ(status_of(backend.handle(open, nullptr)), "ok");
  Json first = stream_op("stream_absorb", "s");
  first.set("upto", Json::number(50));
  ASSERT_EQ(status_of(backend.handle(first, nullptr)), "ok");
  const double appends_before = appends();
  ASSERT_EQ(emitted(), 50.0);

  const double cap = static_cast<double>(
      streaming::StreamEngine::kMaxAbsorbPerRequest);
  for (const double upto : {50.0 + cap + 1.0, 1e12}) {
    SCOPED_TRACE("upto=" + std::to_string(upto));
    Json absorb = stream_op("stream_absorb", "s");
    absorb.set("upto", Json::number(upto));
    EXPECT_EQ(status_of(backend.handle(absorb, nullptr)), "bad_request");
    EXPECT_EQ(appends(), appends_before);
    EXPECT_EQ(emitted(), 50.0);
  }
  Json direct = stream_op("stream_absorb", "s");
  direct.set("upto", Json::number(50.0 + cap + 1.0));
  EXPECT_EQ(status_of(backend.streaming().handle(direct)), "bad_request");
  EXPECT_EQ(emitted(), 50.0);

  Json absorb = stream_op("stream_absorb", "s");
  absorb.set("upto", Json::number(150));
  EXPECT_EQ(status_of(backend.handle(absorb, nullptr)), "ok");
  EXPECT_EQ(appends(), appends_before + 1);
  EXPECT_EQ(emitted(), 150.0);
  std::remove(path.c_str());
}

// An absorb that would cross more than kMaxRefitsPerAbsorb refit points
// past "emitted" is refused before it is journaled and before any arrival
// is generated, and by the engine's own handle(). At "refit_every" 1
// every arrival is a refit point; an 8-event window never has the rows to
// fit, so each refit here is a cheap "sparse" one. An absorb exactly at
// the cap runs as usual.
TEST(JournalReplayTest, AbsorbOverTheRefitCapIsRefusedBeforeItIsJournaled) {
  const std::string path = fresh_journal_path("refit-cap");
  ClusterBackendOptions options;
  options.journal.path = path;
  ClusterBackend backend(options);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("journal_stats"));
  const auto appends = [&] {
    return backend.handle(stats_request, nullptr).get_number("appends", -1);
  };
  const auto stream_stats = [&] {
    return backend.handle(stream_op("stream_stats", "s"), nullptr);
  };
  Json open = stream_op("stream_open", "s");
  open.set("population", Json::number(24));
  open.set("window_events", Json::number(8));
  open.set("refit_every", Json::number(1));
  ASSERT_EQ(status_of(backend.handle(open, nullptr)), "ok");
  const double appends_before = appends();

  const double cap =
      static_cast<double>(streaming::StreamEngine::kMaxRefitsPerAbsorb);
  Json absorb = stream_op("stream_absorb", "s");
  absorb.set("upto", Json::number(cap + 1.0));
  EXPECT_EQ(status_of(backend.handle(absorb, nullptr)), "bad_request");
  EXPECT_EQ(appends(), appends_before);
  EXPECT_EQ(stream_stats().get_number("emitted", -1), 0.0);
  Json direct = stream_op("stream_absorb", "s");
  direct.set("upto", Json::number(cap + 1.0));
  EXPECT_EQ(status_of(backend.streaming().handle(direct)), "bad_request");
  EXPECT_EQ(stream_stats().get_number("emitted", -1), 0.0);

  Json at_cap = stream_op("stream_absorb", "s");
  at_cap.set("upto", Json::number(cap));
  EXPECT_EQ(status_of(backend.handle(at_cap, nullptr)), "ok");
  EXPECT_EQ(appends(), appends_before + 1);
  const Json stats = stream_stats();
  EXPECT_EQ(stats.get_number("emitted", -1), cap);
  EXPECT_EQ(stats.get_number("refit_attempts", -1), cap);
  EXPECT_EQ(stats.get_number("refits_sparse", -1), cap);
  std::remove(path.c_str());
}

// Replay turns journaling off for its own calls, not for the backend: a
// stream write that arrives while journal_replay re-runs a refit-heavy
// absorb is journaled like any other. A record that is not a stream
// write (a cacheable request an older binary journaled) is skipped, never
// executed.
TEST(JournalReplayTest, StreamWriteDuringReplayIsJournaled) {
  const std::string path = fresh_journal_path("during-replay");
  {
    JournalOptions options;
    options.path = path;
    Journal legacy(options);
    ASSERT_TRUE(legacy.append(R"({"op":"run_study","seed":5})"));
  }
  ClusterBackendOptions options;
  options.journal.path = path;
  {
    ClusterBackend backend(options);
    Json open = stream_op("stream_open", "s");
    open.set("population", Json::number(24));
    open.set("refit_every", Json::number(10));
    Json absorb = stream_op("stream_absorb", "s");
    absorb.set("upto", Json::number(400));  // 40 refits
    ASSERT_EQ(status_of(backend.handle(open, nullptr)), "ok");
    ASSERT_EQ(status_of(backend.handle(absorb, nullptr)), "ok");
  }

  ClusterBackend revived(options);
  std::atomic<bool> replay_returned{false};
  Json report;
  std::thread replay([&] {
    Json request = Json::object();
    request.set("op", Json::string("journal_replay"));
    report = revived.handle(request, nullptr);
    replay_returned.store(true);
  });
  // Once the replayed stream is open, the replay is re-running its absorb.
  while (revived.streaming().open_streams() == 0 && !replay_returned.load())
    std::this_thread::yield();
  const Json answer =
      revived.handle(stream_op("stream_open", "t"), nullptr);
  const bool replay_was_running = !replay_returned.load();
  replay.join();
  ASSERT_EQ(status_of(answer), "ok");
  EXPECT_TRUE(replay_was_running)
      << "the replay returned before the write was answered";
  EXPECT_EQ(report.get_number("records", 0), 3.0);
  EXPECT_EQ(report.get_number("replayed", 0), 2.0);
  EXPECT_EQ(report.get_number("replay_ok", 0), 2.0);
  EXPECT_EQ(report.get_number("failures", -1), 0.0);
  EXPECT_EQ(revived.core().stats().requests, 0u);

  std::vector<std::string> streams;
  for (const std::string& record : Journal::replay(path).records)
    streams.push_back(Json::parse(record).get_string("stream", ""));
  EXPECT_EQ(std::count(streams.begin(), streams.end(), "t"), 1);
  std::remove(path.c_str());
}

}  // namespace
