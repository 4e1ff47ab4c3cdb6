// SampledTable — the exact alloc/free ledger behind the governor's lower
// rungs (core/degrade.h).
//
// On the sampled rung only 1-in-N allocations get a shadow alias, and on the
// quarantine-only rung none do; the rest are served straight from the
// underlying allocator. The ladder invariant (DESIGN.md §10) still demands
// that no mode falsify detection, and the fast path additionally promises
// that *double and invalid frees stay exactly detected* for objects without
// an alias: GWP-ASan pays the same cost for the same reason. This table is
// that bookkeeping — a canonical-address -> {site, size, freed} map
// populated by the fast path and consulted first on every free. A live entry
// makes the free exact (marked freed, block quarantined so the address
// cannot be recycled out from under the ledger); a freed entry is a caught
// double free with the original allocation site attached; a miss falls
// through to the registry, where a second miss is an invalid free.
//
// Sharing: ShardedHeap threads allocate on their home shard but may free on
// any (the underlying heap is shared), so the table must be shared across
// engines exactly like the heap is: ShardedHeap hands its one table to every
// shard's engine, and each GuardedPool owns the table of its single engine.
// Sharded by address hash to keep the fast path's insert off a single global
// lock.
//
// Entries are erased when the underlying allocator hands the same canonical
// address out again (every allocation path calls forget()), so the ledger
// tracks at most the set of addresses the allocator has not yet recycled.
// A freed entry whose block leaves quarantine early (budget eviction) can
// therefore be recycled before its entry is consulted again — the same
// bounded-quarantine trade every rung below full guard makes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/registry.h"

namespace dpg::core {

class SampledTable {
 public:
  struct Entry {
    SiteId alloc_site = 0;
    SiteId free_site = 0;
    std::size_t size = 0;
    bool freed = false;
  };

  enum class FreeResult {
    kMiss,        // address unknown to the ledger
    kFreed,       // live entry transitioned to freed (exact, silent)
    kDoubleFree,  // entry was already freed: report with entry's sites
  };

  // Fast-path allocation: (re)binds addr to a live entry.
  void insert(std::uintptr_t addr, std::size_t size, SiteId site) {
    Shard& sh = shard_of(addr);
    std::lock_guard lock(sh.mu);
    auto [it, fresh] = sh.map.insert_or_assign(
        addr, Entry{site, SiteId{0}, size, false});
    (void)it;
    if (fresh) count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Free-path lookup + state transition. On kFreed/kDoubleFree, *out holds
  // the entry as it was BEFORE this call's mutation (so a double free reports
  // the first free's site).
  FreeResult on_free(std::uintptr_t addr, SiteId site, Entry* out) {
    Shard& sh = shard_of(addr);
    std::lock_guard lock(sh.mu);
    auto it = sh.map.find(addr);
    if (it == sh.map.end()) return FreeResult::kMiss;
    *out = it->second;
    if (it->second.freed) return FreeResult::kDoubleFree;
    it->second.freed = true;
    it->second.free_site = site;
    return FreeResult::kFreed;
  }

  // True when addr has a live (not yet freed) entry; copies it to *out.
  bool lookup_live(std::uintptr_t addr, Entry* out) const {
    Shard& sh = shard_of(addr);
    std::lock_guard lock(sh.mu);
    auto it = sh.map.find(addr);
    if (it == sh.map.end() || it->second.freed) return false;
    *out = it->second;
    return true;
  }

  // The underlying allocator recycled addr to a new owner: any stale entry
  // must not outlive the address binding.
  void forget(std::uintptr_t addr) {
    Shard& sh = shard_of(addr);
    std::lock_guard lock(sh.mu);
    if (sh.map.erase(addr) != 0) {
      count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Relaxed emptiness gate: lets the (overwhelmingly common) never-sampled
  // process skip the per-allocation forget() entirely.
  [[nodiscard]] bool empty() const noexcept {
    return count_.load(std::memory_order_relaxed) == 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uintptr_t, Entry> map;
  };

  Shard& shard_of(std::uintptr_t addr) const noexcept {
    // Page-granular mix: allocations from the same page should still spread.
    return shards_[(addr >> 4) % kShards];
  }

  mutable Shard shards_[kShards];
  std::atomic<std::size_t> count_{0};
};

}  // namespace dpg::core
