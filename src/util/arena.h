// Bump-pointer arena allocation for the service hot path.
//
// The replication service used to pay one heap round trip per JSON node,
// per string, and per rendered response on *every* request. An Arena
// replaces that with pointer bumps into reusable blocks: allocation is an
// offset increment, deallocation is a no-op, and the whole arena is
// reclaimed wholesale by reset() once the response has been written.
//
// Arena implements std::pmr::memory_resource, so any pmr-aware container
// (service::Json's nodes and strings are pmr-backed) can live on it with
// no special casing: a Json parsed with an arena puts every node and
// every string on that arena; the same Json type default-constructs onto
// the global heap everywhere else. pmr's non-propagating allocator
// semantics give exactly the ownership rules the service needs for free:
// copies land on the *destination's* resource (so caching a response
// deep-copies it off the scratch arena), and moves across resources
// degrade to element-wise moves instead of smuggling arena pointers out.
//
// The service layer uses arenas in two roles (the dual-arena idiom):
//   scratch    per server loop, reset after every request line — request
//              parse trees, response nodes, render buffers
//   permanent  per rendered-line cache, compacted rarely — interned
//              response lines for warm requests (see
//              service::RenderedLineCache)
//
// Thread safety: none. Each arena is owned by exactly one thread at a
// time (a server's loop thread, a cache behind its mutex); that is the
// point — no allocator lock on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <vector>

namespace decompeval::util {

class Arena : public std::pmr::memory_resource {
 public:
  /// `first_block` is the size of the initial block, allocated lazily on
  /// first use; subsequent blocks double up to `max_block`.
  explicit Arena(std::size_t first_block = 4096,
                 std::size_t max_block = 256 * 1024) noexcept
      : next_block_size_(first_block ? first_block : 4096),
        max_block_size_(max_block) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewinds every block to empty without releasing memory: the next
  /// allocations reuse the same blocks front to back. O(1) in the number
  /// of bytes, O(blocks) in bookkeeping.
  void reset() noexcept {
    block_index_ = 0;
    offset_ = 0;
    live_bytes_ = 0;
  }

  /// Copies `text` into the arena and returns a view of the copy.
  std::string_view intern(std::string_view text) {
    if (text.empty()) return {};
    char* p = static_cast<char*>(allocate(text.size(), 1));
    std::char_traits<char>::copy(p, text.data(), text.size());
    return {p, text.size()};
  }

  /// Bytes handed out since the last reset().
  std::size_t live_bytes() const noexcept { return live_bytes_; }
  /// Bytes held in blocks (capacity, survives reset()).
  std::size_t reserved_bytes() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* do_allocate(std::size_t bytes, std::size_t alignment) override {
    while (block_index_ < blocks_.size()) {
      Block& block = blocks_[block_index_];
      const std::size_t aligned = align_up(offset_, alignment);
      if (aligned + bytes <= block.size) {
        offset_ = aligned + bytes;
        live_bytes_ += bytes;
        return block.data.get() + aligned;
      }
      ++block_index_;
      offset_ = 0;
    }
    // No existing block fits: grow. The new block is big enough for this
    // allocation even when it exceeds the doubling schedule.
    std::size_t size = next_block_size_;
    if (size < bytes + alignment) size = bytes + alignment;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    if (next_block_size_ < max_block_size_)
      next_block_size_ = next_block_size_ * 2 < max_block_size_
                             ? next_block_size_ * 2
                             : max_block_size_;
    block_index_ = blocks_.size() - 1;
    Block& block = blocks_.back();
    const std::size_t aligned = align_up(0, alignment);
    offset_ = aligned + bytes;
    live_bytes_ += bytes;
    return block.data.get() + aligned;
  }

  void do_deallocate(void*, std::size_t, std::size_t) override {
    // Bump allocator: individual frees are no-ops; reset() reclaims all.
  }

  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept
      override {
    return this == &other;
  }

  static std::size_t align_up(std::size_t n, std::size_t alignment) noexcept {
    return (n + alignment - 1) & ~(alignment - 1);
  }

  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;  ///< block currently being bumped
  std::size_t offset_ = 0;       ///< bump offset within that block
  std::size_t live_bytes_ = 0;
  std::size_t next_block_size_;
  std::size_t max_block_size_;
};

}  // namespace decompeval::util
