// VaFreeList — the shared free list of recyclable virtual pages (Section 3.3).
//
// "We avoid the explicit munmap calls by maintaining a free list of virtual
//  pages shared across pools and adding all pool pages to this free list at a
//  pool destroy."
//
// Ranges pushed here remain *mapped* (shadow pages stay revoked, canonical
// pages stay RW); a consumer takes an address and mmap(MAP_FIXED)s a new
// mapping directly over it, which atomically replaces the old one — no
// munmap per object ever happens on the hot path.
//
// A shadow range may also remember the canonical file offset it aliases (its
// binding). A consumer that wants those same canonical pages again takes the
// bound range and lifts its revocation in place (Revoker::restore) instead
// of replacing the mapping: no mmap, no mmap write lock (DESIGN.md §11).
// Every engine over one list aliases one arena, so an offset names the same
// physical pages for all of them.
//
// Ranges are bucketed by page count, and within a size by binding. take()
// prefers an exact bucket and otherwise splits the smallest larger range,
// returning the remainder to the list; bindings refine that order (take()). No coalescing is attempted: pool pages re-enter the list in the same
// granularity they leave it, so fragmentation is bounded in practice (the
// property tests exercise this).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "vm/page.h"

namespace dpg::vm {

class VaFreeList {
 public:
  // The binding of a range that aliases no known file offset.
  static constexpr std::size_t kUnbound = ~std::size_t{0};

  // A range taken from the list, with the file offset it is bound to.
  struct Held {
    PageRange range;
    std::size_t offset = kUnbound;
  };

  VaFreeList();
  // Held ranges are still-mapped PROT_NONE/RW spans; munmap them so a
  // destroyed owner (heap, pool context) hands its addresses back to the
  // kernel instead of leaking one VMA per range for the process lifetime.
  ~VaFreeList();

  VaFreeList(const VaFreeList&) = delete;
  VaFreeList& operator=(const VaFreeList&) = delete;

  // Donates a mapped, page-aligned range for future reuse. Every held range
  // is one live VMA, and vm.max_map_count is a hard per-process limit that
  // even munmap needs headroom under (an interior unmap must *split* a VMA
  // to proceed) — so when the held-range count crosses a high-water mark,
  // put() drains the entire list through the coalescing release_all() path.
  // Trimming proactively keeps the list's VMA footprint bounded long before
  // the emergency valve, which only runs once the kernel already refused.
  // `offset` binds the range to the file offset its first page aliases.
  void put(PageRange range, std::size_t offset = kUnbound);

  // High-water range count at which put() triggers a coalesced full drain.
  // Default kDefaultTrimLimit; 0 restores the unbounded pre-trim behaviour.
  void set_trim_limit(std::size_t ranges) noexcept;
  static constexpr std::size_t kDefaultTrimLimit = 16384;

  // Full drains triggered by the high-water trim (not emergency relief /
  // teardown release_all calls), this instance.
  [[nodiscard]] std::size_t trims() const;

  // Takes a range of at least `len` bytes (rounded to pages); returns exactly
  // page_up(len) bytes, splitting a larger donor if needed. The order: a
  // range of the exact size bound to `offset`, then an unbound one of the
  // exact size, then the smallest larger unbound one; only then a range bound
  // elsewhere, of the exact size first. A split keeps the donor's binding:
  // the piece is bound where the donor was, the remainder that far past it.
  [[nodiscard]] std::optional<Held> take(std::size_t len,
                                         std::size_t offset = kUnbound);

  // Total recyclable bytes currently held.
  [[nodiscard]] std::size_t bytes() const;

  // Number of ranges held (diagnostics).
  [[nodiscard]] std::size_t ranges() const;

  // Emergency/teardown release: drains every held range, coalesces adjacent
  // ranges, and munmaps the merged spans through the syscall shim — one
  // munmap per contiguous run instead of one per range. Returns the bytes
  // handed back. This is the VMA-pressure relief valve PhysArena pulls when
  // the kernel refuses mmap/ftruncate with ENOMEM.
  std::size_t release_all() noexcept;

  // Invoked after release_all() hands spans back to the kernel, with the
  // number of ranges that left the list (each held range was one live VMA).
  // Owners use it to keep an external VMA estimate honest — without it the
  // DegradationGovernor's pressure gauge only ever climbs, and long-lived
  // processes cycling heaps degrade on phantom pressure.
  using ReleaseHook = void (*)(void* ctx, std::size_t ranges);
  void set_release_hook(ReleaseHook hook, void* ctx) noexcept;

  // Drains every held range, invoking `release(range)` on each (used at
  // teardown to hand the addresses back to the kernel).
  template <typename Fn>
  void drain(Fn&& release) {
    for (const PageRange& r : take_all()) release(r);
  }

 private:
  // One size bucket: binding -> bases, newest last.
  using Bucket = std::unordered_map<std::size_t, std::vector<std::uintptr_t>>;
  using Buckets = std::map<std::size_t, Bucket>;  // pages -> bound bases

  // Pops the newest base of `bases` (in size bucket `it`), keeps what lies
  // past its first `want` bytes on the list, and returns that first piece.
  Held carve_locked(Buckets::iterator it, Bucket::iterator bases,
                    std::size_t want);

  // Empties the list; returns every held range.
  std::vector<PageRange> take_all();

  mutable std::mutex mu_;
  Buckets buckets_;
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;                    // held ranges (== held VMAs)
  std::size_t trim_limit_ = kDefaultTrimLimit;
  std::size_t trims_ = 0;                    // high-water drains fired
  ReleaseHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace dpg::vm
