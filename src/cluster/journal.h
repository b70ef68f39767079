// Append-only command journal: the durable record of stream state.
//
// A cacheable answer is a pure function of its request and can always be
// recomputed; a stream cannot. Each stream write is appended here, in
// absolute form, before it runs, and a restarted backend rebuilds every
// stream bit-identically by replaying the records (see backend.h).
//
// Record format (little-endian, fixed):
//   [u32 payload length][u64 FNV-1a checksum of payload][payload bytes]
// A record is valid only when the length is sane (<= kMaxRecordBytes and
// within the file) and the checksum matches. replay() scans from the
// start and stops at the first invalid record, returning every record
// before it plus a structured warning — a torn tail (the expected shape
// of a crash mid-append) costs the tail, never the journal. Opening a
// journal cuts such a tail off, so later appends stay replayable.
//
// Durability batching: append() buffers nothing (each record is one
// write(2) to an O_APPEND fd) but fsync(2) is batched — every
// kFsyncEvery appends, plus on flush() and close. A crash can therefore
// lose at most the last kFsyncEvery-1 records.
//
// Fault sites (serial-counter, from JournalOptions::faults):
//   "journal.append"  the append fails cleanly (no bytes written); the
//                     command is served but not durable — callers degrade
//                     to a structured warning, never an error
//   "journal.replay"  replay treats the next record as corrupt and stops
//                     there (simulates a read error mid-replay)
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault.h"

namespace decompeval::cluster {

struct JournalOptions {
  /// Journal file path. Empty disables the journal (append() is a no-op
  /// returning false, stats stay zero).
  std::string path;
  /// Optional injector for the "journal.append" site.
  util::FaultInjector* faults = nullptr;
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t append_failures = 0;  ///< IO errors and injected faults
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes = 0;            ///< current journal file size
};

/// Result of scanning a journal file. `clean` is false when the scan
/// stopped before end-of-file (torn tail, corrupt record, flipped byte,
/// injected replay fault); `warning` then says where and why.
struct ReplayedJournal {
  std::vector<std::string> records;
  bool clean = true;
  std::uint64_t bytes_scanned = 0;  ///< offset of the first invalid byte
  std::string warning;
};

class Journal {
 public:
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool enabled() const { return !options_.path.empty(); }
  const std::string& path() const { return options_.path; }

  /// Appends one record (single write(2); length-prefixed + checksummed).
  /// Returns false — leaving the journal exactly as it was — when the
  /// journal is disabled, IO fails, or "journal.append" fires.
  bool append(std::string_view payload);

  /// fsyncs outstanding records now. No-op when everything is synced.
  void flush();

  /// Scans `path` and returns every valid record up to the first invalid
  /// one (see ReplayedJournal). Never throws; a missing file is an empty
  /// clean replay. `faults` drives the "journal.replay" site.
  static ReplayedJournal replay(const std::string& path,
                                util::FaultInjector* faults = nullptr);

  JournalStats stats() const;

  /// What opening the journal cut off its damaged tail (offset, bytes
  /// dropped, why); empty when the file was whole.
  const std::string& repair_warning() const { return repair_warning_; }

  /// Hard cap on a single record; longer appends fail, longer lengths in
  /// a file mark the record (and everything after it) invalid.
  static constexpr std::uint32_t kMaxRecordBytes = 16u << 20;
  /// fsync after this many appends; flush() and the destructor always
  /// sync outstanding records.
  static constexpr std::size_t kFsyncEvery = 8;

 private:
  bool open_for_append();        ///< caller holds mutex_
  bool write_record(std::string_view payload);  ///< caller holds mutex_
  void sync_locked();            ///< caller holds mutex_

  JournalOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::size_t unsynced_ = 0;
  JournalStats stats_;
  std::string repair_warning_;
};

}  // namespace decompeval::cluster
