// Append-only command journal contract suite (CTest label: tier1).
//
// Covers the record format (golden bytes), round trips, fsync batching,
// the "journal.append" fault site, compaction (and the backend's
// growth-keyed auto-compaction), the corruption fuzz battery — truncate
// at *every* byte offset and flip *every* byte: replay must stop at the
// last valid record with a structured warning and never crash — and
// re-warm bit-identity: a journal replayed through fresh backends at
// threads 1/2/4 reproduces byte-identical responses.
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/backend.h"
#include "cluster/hash_ring.h"
#include "cluster/journal.h"
#include "core/replication.h"
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
  options.fsync_every = 4;
  Journal journal(options);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(journal.append("r" + std::to_string(i)));
  EXPECT_EQ(journal.stats().fsyncs, 1u);
  for (int i = 0; i < 3; ++i)
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

TEST(JournalTest, CompactionKeepsOnlySelectedRecordsAndStaysAppendable) {
  const std::string path = fresh_journal_path("compact");
  JournalOptions options;
  options.path = path;
  Journal journal(options);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        journal.append((i % 2 == 0 ? "keep-" : "drop-") + std::to_string(i)));

  const std::size_t kept = journal.compact([](std::string_view record) {
    return record.substr(0, 4) == "keep";
  });
  EXPECT_EQ(kept, 3u);
  EXPECT_EQ(journal.stats().compactions, 1u);
  EXPECT_EQ(journal.stats().records_dropped, 3u);
  EXPECT_EQ(journal.stats().bytes, file_size(path));

  // The append fd was reopened onto the compacted inode.
  ASSERT_TRUE(journal.append("post-compact"));
  journal.flush();
  const ReplayedJournal replayed = Journal::replay(path);
  EXPECT_TRUE(replayed.clean);
  ASSERT_EQ(replayed.records.size(), 4u);
  EXPECT_EQ(replayed.records[0], "keep-0");
  EXPECT_EQ(replayed.records[1], "keep-2");
  EXPECT_EQ(replayed.records[2], "keep-4");
  EXPECT_EQ(replayed.records[3], "post-compact");
  std::remove(path.c_str());
}

// Auto-compaction keys on growth since the last compaction, not on size.
// Stream records are never covered by the disk cache, so they survive
// every compaction; a size trigger would rewrite and fsync the whole
// journal after every cold store once they alone passed the threshold.
TEST(JournalTest, AutoCompactionKeysOnGrowthNotOnSurvivingStreamRecords) {
  constexpr std::uint64_t kThreshold = 4096;
  const std::string path = fresh_journal_path("autocompact");
  const std::string dir =
      "/tmp/decompeval-autocompact-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const auto run_study = [](int seed) {
    Json request = Json::object();
    request.set("op", Json::string("run_study"));
    request.set("seed", Json::number(seed));
    request.set("run_models", Json::boolean(false));
    return request;
  };
  ClusterBackendOptions options;
  options.cache.directory = dir;
  options.cache.version = core::version();
  options.journal.path = path;
  options.journal_compact_bytes = kThreshold;
  {
    ClusterBackend backend(options);
    Json open = Json::object();
    open.set("op", Json::string("stream_open"));
    open.set("stream", Json::string("s"));
    ASSERT_EQ(backend.handle(open, nullptr).get_string("status", ""), "ok");
    for (int upto = 1; upto <= 100; ++upto) {
      Json absorb = Json::object();
      absorb.set("op", Json::string("stream_absorb"));
      absorb.set("stream", Json::string("s"));
      absorb.set("upto", Json::number(upto));
      ASSERT_EQ(backend.handle(absorb, nullptr).get_string("status", ""),
                "ok");
    }
    const std::uint64_t stream_bytes = backend.journal().stats().bytes;
    ASSERT_GT(stream_bytes, kThreshold);

    for (int seed = 1; seed <= 20; ++seed)
      ASSERT_EQ(backend.handle(run_study(seed), nullptr)
                    .get_string("status", ""),
                "ok");
    EXPECT_LE(backend.journal().stats().compactions, 1u);
    EXPECT_GE(backend.journal().stats().bytes, stream_bytes);
  }

  // A journal of cacheable records alone still compacts past a small
  // threshold, down to the records not yet on disk.
  std::filesystem::remove_all(dir);
  std::remove(path.c_str());
  options.journal_compact_bytes = 256;
  ClusterBackend backend(options);
  for (int seed = 1; seed <= 10; ++seed)
    ASSERT_EQ(
        backend.handle(run_study(seed), nullptr).get_string("status", ""),
        "ok");
  EXPECT_GE(backend.journal().stats().compactions, 1u);
  EXPECT_LE(backend.journal().stats().bytes, 256u);

  std::filesystem::remove_all(dir);
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

// Re-warm identity: replaying one journal through fresh backends pinned
// to 1, 2, and 4 threads produces byte-identical responses — the whole
// reason journal records strip volatile fields like "threads".
TEST(JournalReplayIdentityTest, ReplayIsBitIdenticalAcrossThreadCounts) {
  const std::string path = fresh_journal_path("identity");
  std::vector<std::string> reference;  // dumps from the journaling backend
  {
    ClusterBackendOptions options;
    options.journal.path = path;  // no disk cache: every command journals
    ClusterBackend backend(options);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Json request = Json::object();
      request.set("op", Json::string("run_study"));
      request.set("seed", Json::number(static_cast<double>(seed)));
      request.set("threads", Json::number(3.0));  // stripped when journaled
      const Json response = backend.handle(request, nullptr);
      ASSERT_EQ(response.get_string("status", ""), "ok");
      reference.push_back(response.dump());
    }
    backend.journal().flush();
  }

  for (const double threads : {1.0, 2.0, 4.0}) {
    const ReplayedJournal replayed = Journal::replay(path);
    ASSERT_TRUE(replayed.clean);
    ASSERT_EQ(replayed.records.size(), reference.size());
    ClusterBackendOptions options;
    ClusterBackend backend(options);
    for (std::size_t i = 0; i < replayed.records.size(); ++i) {
      Json command = Json::parse(replayed.records[i]);
      EXPECT_EQ(command.get("threads"), nullptr)
          << "volatile field survived journaling";
      command.set("threads", Json::number(threads));
      const Json response = backend.handle(command, nullptr);
      EXPECT_EQ(response.dump(), reference[i])
          << "threads=" << threads << " record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(JournalReplayIdentityTest, BackendReplayRewarmsAFreshCacheBitIdentically) {
  const std::string path = fresh_journal_path("rewarm");
  const std::string dir_a = "/tmp/decompeval-rewarm-a-" +
                            std::to_string(::getpid());
  const std::string dir_b = "/tmp/decompeval-rewarm-b-" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);

  Json request = Json::object();
  request.set("op", Json::string("run_study"));
  request.set("seed", Json::number(11.0));

  std::string reference;
  {
    ClusterBackendOptions options;
    options.cache.directory = dir_a;
    options.cache.version = core::version();
    options.journal.path = path;
    options.journal_compact_bytes = 0;  // keep the record for B's replay
    ClusterBackend backend(options);
    reference = backend.handle(request, nullptr).dump();
    backend.journal().flush();
  }

  ClusterBackendOptions options;
  options.cache.directory = dir_b;  // fresh cache, same journal
  options.cache.version = core::version();
  options.journal.path = path;
  ClusterBackend backend(options);
  const cluster::JournalReplayReport report = backend.replay_journal(nullptr);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(report.ok, 1u);
  // The replay recomputed and cached the result; serving it again is a
  // hit in the backend's memory tier in front of the disk, byte-identical
  // to the original backend's response.
  EXPECT_EQ(backend.handle(request, nullptr).dump(), reference);
  Json stats_request = Json::object();
  stats_request.set("op", Json::string("cache_stats"));
  const Json stats = backend.handle(stats_request, nullptr);
  EXPECT_GE(stats.get_number("disk_hits", 0) +
                stats.get_number("disk_memory_hits", 0),
            1);

  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  std::remove(path.c_str());
}

}  // namespace
