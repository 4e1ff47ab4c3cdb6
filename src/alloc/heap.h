// SegregatedHeap — the from-scratch general-purpose heap allocator.
//
// This plays the role of "the underlying system allocator" in the paper: a
// conventional segregated-fit design with inline per-object headers (the
// paper leans on exactly that convention: "malloc implementations usually add
// a header recording the size of the object just before the object itself").
//
// Layout:
//   - 16-byte BlockHeader immediately before every payload, recording the
//     payload size, a magic tag, and the size class.
//   - Small classes (<= 4096 payload) are carved from 16-page spans
//     obtained from the CanonicalSource, handed out page-interleaved, and
//     recycled through per-class free lists.
//   - Larger requests get a dedicated page run; freed runs are recycled
//     through a run cache keyed by page count.
//
// The heap never learns about shadow pages: the guard layer hands it sizes
// inflated by one word and remaps the result, per Section 3.2.
//
// One lock guards the heap, and every shard of a ShardedHeap calls in under
// it. Its holders are short, but a revocation's TLB-shootdown IPI can
// interrupt one, so the lock spins briefly before it sleeps (glibc's
// adaptive mutex) instead of parking every waiter on a futex (DESIGN.md
// §11). Acquisitions that found it held are counted process-wide in
// dpg_heap_lock_contended.
#pragma once

#include <pthread.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "alloc/alloc_iface.h"

namespace dpg::alloc {

struct HeapStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t spans_created = 0;
  std::uint64_t bytes_requested = 0;
  std::size_t live_objects = 0;
};

// BasicLockable over a glibc adaptive mutex: a contended lock() spins a
// bounded number of times before it sleeps.
class HeapLock {
 public:
  HeapLock() = default;
  ~HeapLock() { pthread_mutex_destroy(&mu_); }
  HeapLock(const HeapLock&) = delete;
  HeapLock& operator=(const HeapLock&) = delete;

  // Counts an acquisition that finds the lock held in
  // dpg_heap_lock_contended.
  void lock() noexcept;
  void unlock() noexcept { pthread_mutex_unlock(&mu_); }

 private:
  pthread_mutex_t mu_ = PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP;
};

class SegregatedHeap final : public MallocLike {
 public:
  explicit SegregatedHeap(CanonicalSource& source);
  ~SegregatedHeap() override = default;

  SegregatedHeap(const SegregatedHeap&) = delete;
  SegregatedHeap& operator=(const SegregatedHeap&) = delete;

  [[nodiscard]] void* malloc(std::size_t size) override;
  void free(void* p) override;
  [[nodiscard]] std::size_t size_of(const void* p) const override;

  [[nodiscard]] HeapStats stats() const;

  static constexpr std::size_t kHeaderSize = 16;
  static constexpr std::size_t kSpanPages = 16;
  static constexpr std::size_t kMaxSmall = 4096 - kHeaderSize;

 private:
  struct BlockHeader {
    std::uint64_t payload_size;
    std::uint32_t magic;
    std::uint32_t size_class;  // kLargeClass for page runs
  };
  static_assert(sizeof(BlockHeader) == kHeaderSize);

  static constexpr std::uint32_t kMagicLive = 0xD94A110Cu;
  static constexpr std::uint32_t kMagicFree = 0xDEADF9EEu;
  static constexpr std::uint32_t kLargeClass = 0xFFFFFFFFu;

  struct FreeBlock {
    FreeBlock* next;
  };

  [[nodiscard]] static BlockHeader* header_of(void* payload) noexcept {
    return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                          kHeaderSize);
  }
  [[nodiscard]] static const BlockHeader* header_of(const void* payload) noexcept {
    return reinterpret_cast<const BlockHeader*>(
        static_cast<const std::byte*>(payload) - kHeaderSize);
  }

  [[nodiscard]] void* alloc_small(std::size_t size, std::size_t cls);
  [[nodiscard]] void* alloc_large(std::size_t size);
  void carve_span(std::size_t cls);

  CanonicalSource& source_;
  mutable HeapLock mu_;
  std::vector<std::size_t> class_sizes_;            // block payload capacities
  std::vector<FreeBlock*> free_lists_;              // one per class
  std::map<std::size_t, std::vector<vm::PageRange>> run_cache_;  // pages -> runs
  HeapStats stats_;
};

}  // namespace dpg::alloc
