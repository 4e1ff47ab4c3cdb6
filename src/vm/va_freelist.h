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
// Ranges are bucketed by page count. take() prefers an exact bucket and
// otherwise splits the smallest larger range, returning the remainder to the
// list. No coalescing is attempted: pool pages re-enter the list in the same
// granularity they leave it, so fragmentation is bounded in practice (the
// property tests exercise this).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "vm/page.h"

namespace dpg::vm {

class VaFreeList {
 public:
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
  void put(PageRange range);

  // High-water range count at which put() triggers a coalesced full drain.
  // Default kDefaultTrimLimit; 0 restores the unbounded pre-trim behaviour.
  void set_trim_limit(std::size_t ranges) noexcept;
  static constexpr std::size_t kDefaultTrimLimit = 16384;

  // Full drains triggered by the high-water trim (not emergency relief /
  // teardown release_all calls), this instance.
  [[nodiscard]] std::size_t trims() const;

  // Takes a range of at least `len` bytes (rounded to pages); returns exactly
  // page_up(len) bytes, splitting a larger donor if needed.
  [[nodiscard]] std::optional<PageRange> take(std::size_t len);

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
    std::vector<PageRange> all;
    {
      std::lock_guard lock(mu_);
      for (auto& [pages, addrs] : buckets_) {
        for (std::uintptr_t a : addrs) {
          all.push_back(PageRange{a, pages * kPageSize});
        }
      }
      buckets_.clear();
      bytes_ = 0;
      count_ = 0;
    }
    for (const PageRange& r : all) release(r);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<std::uintptr_t>> buckets_;  // pages -> bases
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;                    // held ranges (== held VMAs)
  std::size_t trim_limit_ = kDefaultTrimLimit;
  std::size_t trims_ = 0;                    // high-water drains fired
  ReleaseHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace dpg::vm
