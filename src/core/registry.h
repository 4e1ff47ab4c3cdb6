// ShadowRegistry — async-signal-safe map from shadow page to object record.
//
// When the MMU traps a dangling access, the SIGSEGV handler must turn a raw
// fault address into a diagnostic: which object, how large, where allocated,
// where freed. Handlers cannot take locks, so the registry is a direct-indexed
// page map: a three-level radix table over the 48-bit user address space
// (36 page-number bits, 12 per level). The root array lives in the object;
// mid and leaf nodes are allocated on first use, installed with a CAS, and
// never freed while the registry lives, so a lookup is three acquire loads
// that can never touch freed memory — no lock and no read-modify-write.
// Inserts and erases release-store the record (or null) into each page's
// leaf slot. A page has one owner at a time: the
// erase that retires a span happens before its VA goes back on a free list,
// and so before the insert that reuses it.
//
// The map never shrinks: one 32 KiB leaf per 16 MiB of VA ever registered
// plus one 32 KiB mid node per 64 GiB (exported as dpg_registry_node_bytes).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/report.h"
#include "vm/page.h"

namespace dpg::core {

class ShadowEngine;

enum class ObjectState : std::uint32_t {
  kLive,
  kFreed,  // shadow pages revoked; any access is a dangling use
};

// One record per allocation. Owned by the guard engine that created it and
// linked into that engine's intrusive list so pool destruction can purge and
// recycle everything the pool produced.
struct ObjectRecord {
  std::uintptr_t shadow_base = 0;  // page-aligned base of the shadow span
  std::size_t span_length = 0;     // bytes covered incl. guard, page multiple
  std::size_t guard_length = 0;    // trailing guard bytes (0 or one page)
  std::uintptr_t user_shadow = 0;  // pointer handed to the program
  std::size_t user_size = 0;       // requested payload size
  std::uintptr_t canonical = 0;    // address the underlying allocator returned
  SiteId alloc_site = 0;
  // Atomic because a double free racing a cross-shard free reads it for the
  // report while the CAS winner writes it; relaxed is fine (diagnostic only).
  std::atomic<SiteId> free_site{0};
  // Site backtraces (DPG_SITE_DEPTH frames, see obs/backtrace.h). The alloc
  // stack is written before the record is published to the registry. The free
  // stack is written by the kLive->kFreed CAS winner only; free_stack_depth is
  // stored with release order after the frames so the fault handler's acquire
  // load never observes a depth covering unwritten frames.
  std::uint8_t alloc_stack_depth = 0;
  std::atomic<std::uint8_t> free_stack_depth{0};
  std::uintptr_t alloc_stack[obs::kMaxSiteFrames] = {};
  std::uintptr_t free_stack[obs::kMaxSiteFrames] = {};
  // The engine that created the record. Only it admits the record's free
  // (any other engine reports an invalid free), and ShardedHeap routes a
  // free to it.
  ShadowEngine* engine = nullptr;
  std::atomic<ObjectState> state{ObjectState::kLive};
  // True once the free's revocation resolved: the span was revoked (or the
  // refused revocation was absorbed by quarantining the canonical block).
  // Written and read only under the owner engine's lock. Records with
  // state==kFreed but !revocation_done are in flight — sitting in the
  // revocation queue or on the remote-free list — and must not be released
  // by budget reclamation or handed to the GC.
  bool revocation_done = false;
  // The span's owner in the owner engine (ShadowEngine::Owner): the
  // magazine generation the span was carved from, or the one-slot owner of
  // a per-object alias. Never null. Owner-lock protected: the owner's VA is
  // recycled only after its last record is released.
  void* magazine = nullptr;
  // The owner's freed list, in revocation order (owner-lock protected).
  ObjectRecord* freed_prev = nullptr;
  ObjectRecord* freed_next = nullptr;

  ObjectRecord* prev = nullptr;  // the owner engine's record list
  ObjectRecord* next = nullptr;

  // Cross-shard remote-free list (lock-free MPSC Treiber stack). A record is
  // pushed here at most once — the kLive->kFreed CAS in the freeing thread
  // is the unique admission ticket — and popped only by the owner shard
  // under its engine lock, so the field never races with prev/next use.
  std::atomic<ObjectRecord*> remote_next{nullptr};
};

// Copies a record's alloc/free site stacks into a report. Async-signal-safe
// (the fault handler uses it too): the free depth is acquire-loaded after the
// frames were release-published by the kLive->kFreed CAS winner, so a
// cross-thread race never yields torn frames.
inline void copy_site_stacks(const ObjectRecord& rec,
                             DanglingReport& report) noexcept {
  report.alloc_stack_depth = rec.alloc_stack_depth;
  for (std::size_t i = 0; i < report.alloc_stack_depth; ++i) {
    report.alloc_stack[i] = rec.alloc_stack[i];
  }
  report.free_stack_depth =
      rec.free_stack_depth.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < report.free_stack_depth; ++i) {
    report.free_stack[i] = rec.free_stack[i];
  }
}

class ShadowRegistry {
 public:
  ShadowRegistry() = default;
  ~ShadowRegistry();

  ShadowRegistry(const ShadowRegistry&) = delete;
  ShadowRegistry& operator=(const ShadowRegistry&) = delete;

  // Maps every page of rec's shadow span to &rec. The record must outlive its
  // registration. Lock-free; allocates a node on the first insert into a
  // 16 MiB (leaf) or 64 GiB (mid) region.
  void insert(const ObjectRecord& rec);

  // Unmaps every page of rec's shadow span (called when the span's VA is
  // recycled at pool destruction or budget reclamation). Idempotent.
  void erase(const ObjectRecord& rec) noexcept;

  // Async-signal-safe: resolves any address (not just page-aligned) to the
  // record whose shadow span covers it, or nullptr. Addresses with any bit at
  // or above 2^48 set always miss: the fault manager passes the kernel's
  // si_addr through unfiltered, and a kernel-half or non-canonical address
  // must not alias a low page.
  [[nodiscard]] const ObjectRecord* lookup(std::uintptr_t addr) const noexcept;

  // Registered pages. Scans every node; meant for tests.
  [[nodiscard]] std::size_t entries() const noexcept;

  // Bytes held by mid and leaf nodes (the root is part of the object).
  [[nodiscard]] std::size_t node_bytes() const noexcept {
    return node_bytes_.load(std::memory_order_relaxed);
  }

  // Process-wide registry used by the fault manager and all guard engines.
  static ShadowRegistry& global();

 private:
  static constexpr unsigned kAddressBits = 48;
  static constexpr unsigned kLevelBits = 12;
  static constexpr std::size_t kFanout = std::size_t{1} << kLevelBits;
  static constexpr std::size_t kLevelMask = kFanout - 1;
  static_assert(vm::kPageShift + 3 * kLevelBits == kAddressBits);

  struct Leaf {
    std::atomic<const ObjectRecord*> slot[kFanout];
  };
  struct Mid {
    std::atomic<Leaf*> slot[kFanout];
  };

  // The leaf slot for `page`, or nullptr when its nodes do not exist (and
  // `create` is false) or the page lies outside the mapped address space.
  std::atomic<const ObjectRecord*>* slot_for(std::uintptr_t page, bool create);
  template <typename Node>
  Node* child(std::atomic<Node*>& link, bool create);

  std::atomic<Mid*> root_[kFanout] = {};
  std::atomic<std::size_t> node_bytes_{0};
};

}  // namespace dpg::core
