#include "cluster/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>
#include <utility>

#include "cluster/hash_ring.h"

namespace decompeval::cluster {

namespace {

// Little-endian encoding keeps journal files byte-portable across hosts
// (and makes the fuzz test's golden offsets platform-independent).
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

constexpr std::size_t kHeaderBytes = 12;  // u32 length + u64 checksum

}  // namespace

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  struct stat st{};
  if (!open_for_append() || ::fstat(fd_, &st) != 0) return;
  stats_.bytes = static_cast<std::uint64_t>(st.st_size);
  // Cut a torn or corrupt tail before the first append: a record appended
  // behind it would sit past the point where replay stops, and be lost.
  const ReplayedJournal existing = replay(options_.path);
  if (existing.clean) return;
  const std::uint64_t dropped = stats_.bytes - existing.bytes_scanned;
  const bool cut =
      ::ftruncate(fd_, static_cast<off_t>(existing.bytes_scanned)) == 0;
  if (cut) stats_.bytes = existing.bytes_scanned;
  repair_warning_ = (cut ? "journal cut on open, " + std::to_string(dropped) +
                               " bytes dropped: "
                         : std::string("journal tail could not be cut on "
                                       "open; appends will not replay: ")) +
                    existing.warning;
}

Journal::~Journal() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (unsynced_ > 0) sync_locked();
    ::close(fd_);
    fd_ = -1;
  }
}

bool Journal::open_for_append() {
  if (fd_ >= 0) return true;
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  return fd_ >= 0;
}

bool Journal::write_record(std::string_view payload) {
  // One buffer, one write(2): an O_APPEND write from a single process is
  // the closest POSIX gets to an atomic record append, and replay treats
  // any torn tail as the crash artifact it is.
  std::string record;
  record.reserve(kHeaderBytes + payload.size());
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u64(record, HashRing::hash(payload));
  record.append(payload.data(), payload.size());
  std::size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void Journal::sync_locked() {
  if (fd_ >= 0 && ::fsync(fd_) == 0) ++stats_.fsyncs;
  unsynced_ = 0;
}

bool Journal::append(std::string_view payload) {
  if (!enabled() || payload.size() > kMaxRecordBytes) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.faults != nullptr) {
    try {
      options_.faults->raise_next("journal.append");
    } catch (const util::FaultError&) {
      ++stats_.append_failures;
      return false;
    }
  }
  if (!open_for_append()) {
    ++stats_.append_failures;
    return false;
  }
  // Record the pre-append size so a short write can be truncated away —
  // the journal either gains one whole record or stays byte-identical.
  struct stat st{};
  const bool have_size = ::fstat(fd_, &st) == 0;
  if (!write_record(payload)) {
    if (have_size) {
      if (::ftruncate(fd_, st.st_size) != 0) {
        // Torn record left behind; replay will stop at it cleanly.
      }
    }
    ++stats_.append_failures;
    return false;
  }
  ++stats_.appends;
  stats_.bytes = (have_size ? static_cast<std::uint64_t>(st.st_size) : 0) +
                 kHeaderBytes + payload.size();
  if (++unsynced_ >= kFsyncEvery) sync_locked();
  return true;
}

void Journal::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (unsynced_ > 0) sync_locked();
}

ReplayedJournal Journal::replay(const std::string& path,
                                util::FaultInjector* faults) {
  ReplayedJournal out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return out;  // no journal yet: empty, clean
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  std::size_t offset = 0;
  std::uint64_t index = 0;
  const auto stop = [&](const std::string& why) {
    out.clean = false;
    out.bytes_scanned = offset;
    out.warning = "journal replay stopped at record " + std::to_string(index) +
                  " (offset " + std::to_string(offset) + " of " +
                  std::to_string(bytes.size()) + "): " + why;
  };
  while (offset < bytes.size()) {
    if (faults != nullptr) {
      try {
        faults->raise_next("journal.replay");
      } catch (const util::FaultError& e) {
        stop(e.what());
        return out;
      }
    }
    if (bytes.size() - offset < kHeaderBytes) {
      stop("torn header (" + std::to_string(bytes.size() - offset) +
           " trailing bytes)");
      return out;
    }
    const std::uint32_t length = get_u32(bytes.data() + offset);
    const std::uint64_t checksum = get_u64(bytes.data() + offset + 4);
    if (length > kMaxRecordBytes) {
      stop("implausible record length " + std::to_string(length));
      return out;
    }
    if (bytes.size() - offset - kHeaderBytes < length) {
      stop("torn payload (record wants " + std::to_string(length) +
           " bytes, file has " +
           std::to_string(bytes.size() - offset - kHeaderBytes) + ")");
      return out;
    }
    const std::string_view payload(bytes.data() + offset + kHeaderBytes,
                                   length);
    if (HashRing::hash(payload) != checksum) {
      stop("checksum mismatch");
      return out;
    }
    out.records.emplace_back(payload);
    offset += kHeaderBytes + length;
    ++index;
  }
  out.bytes_scanned = offset;
  return out;
}

JournalStats Journal::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace decompeval::cluster
