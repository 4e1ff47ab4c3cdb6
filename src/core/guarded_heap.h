// ShadowEngine — the paper's primary contribution (Section 3.2).
//
// Allocation: the request is passed to the underlying allocator with the size
// incremented by one word; the word before the user object records the
// canonical address. A fresh virtual page (or run) aliasing the canonical
// physical pages is created, and the caller receives the object *on the
// shadow page at the same offset within the page*. The underlying allocator
// still believes the object lives at the canonical address.
//
// Deallocation: the shadow span is revoked (mprotect(PROT_NONE) or guard
// markers, vm/revoke.h) — every future read/write/free through any pointer
// to the object traps — and the
// *canonical* address is handed back to the underlying allocator, so the
// physical memory is reused exactly as in the original program.
//
// Shadow virtual pages are reused only when their owner proves no pointers
// remain: pool destruction (GuardedPool), budgeted reclamation (§3.4
// strategy 1), or a conservative GC pass (§3.4 strategy 2) push spans onto a
// shared VA free list, and new shadow mappings are placed over recycled
// addresses with MAP_FIXED — no munmap per object.
//
// Recycled shadow VA that still aliases the canonical pages a new alias
// wants is restored in place (Revoker::restore) instead of remapped: the
// steady state of window refills and per-object aliases over reused
// canonical pages issues no mmap (DESIGN.md §11).
//
// Scaling layers (DESIGN.md §11):
//
//   Slot magazines   one bulk mmap aliases a 256-page window of canonical
//                    pages; objects landing in the window carve their shadow
//                    pages out of it with zero syscalls. A window slot serves
//                    one object per magazine generation, and a window keeps
//                    several live generations, so k objects on one canonical
//                    page take k of them. Windows need guard markers or a
//                    batched flush: immediate mprotect revocation would
//                    split the window's VMA at every revoked slot, so it
//                    takes the per-object alias.
//   Reuse distance   under immediate revocation every revoked canonical
//                    block waits in a per-engine FIFO until 64 pages of
//                    canonical bytes have been freed after it, so the
//                    allocator's LIFO lists cannot hand it straight back
//                    into a slot the current generation already claimed (a
//                    batched flush already defers reuse).
//   Revocation queue freed spans accumulate (canonical reuse deferred with
//                    them), are address-sorted, coalesced into maximal runs,
//                    and revoked with one call per run; flushed when the
//                    pending spans reach protect_batch pages, and at
//                    pooldestroy/teardown.
//   Remote frees     cross-shard frees transition the record kLive->kFreed
//                    at the free site (double-free detection stays exact and
//                    immediate) and queue the revocation on the owning
//                    shard's lock-free MPSC list, drained under that shard's
//                    lock (see ShardedHeap, core/sharded_heap.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/alloc_iface.h"
#include "core/degrade.h"
#include "core/registry.h"
#include "core/sampled.h"
#include "core/stats.h"
#include "vm/phys_arena.h"
#include "vm/revoke.h"
#include "vm/va_freelist.h"

namespace dpg::core {

struct GuardConfig {
  // §3.4 strategy 1: when the bytes held by freed-but-still-guarded spans
  // exceed this budget, the oldest freed spans are recycled down to half of
  // it (giving up detection for those objects, as the paper accepts). Spans
  // go back by owner: a window generation, charged its whole window while
  // any of its records is freed, or a per-object alias, charged its span.
  // The owner whose newest revocation is oldest goes first, all its freed
  // records at once; the owner of the newest revocation is never released,
  // so the newest free stays guarded at any budget. 0 = unlimited.
  std::size_t freed_va_budget = 0;
  // Extension (paper §6 future work: combining with spatial checking): end
  // each object's shadow span with a guard page, so any access past the
  // span's end traps as an overflow while the object is still live. The
  // guard is one more page of the span's alias, revoked through the
  // revocation backend before the object is handed out. Page-granular: tail
  // slack within the last data page is not covered (the aliasing constraint
  // pins the object's in-page offset). Costs one extra virtual page per
  // allocation and no physical memory. Incompatible with magazines (a
  // window's next slot is another object's page); when set, allocations
  // take the per-object path.
  bool trailing_guard_page = false;
  // Extension (paper §6: reducing the per-deallocation syscall cost): defer
  // protection of freed objects and apply it in address-sorted batches,
  // merging adjacent shadow spans into single revocation calls. The trigger
  // counts pending span *pages*, which bounds both the queued frees and the
  // bytes they pin. The underlying free is deferred with it, so freed memory
  // is never reused before it is protected — soundness against *reuse* is
  // kept; the trade is a bounded window (at most protect_batch pages) during
  // which a dangling use reads stale-but-unreused data undetected. Double
  // frees stay exact throughout (the record state transition, not the page
  // protection, detects them). 0 or 1 = protect immediately (the paper's
  // configuration).
  //
  // The batch decides when revocation happens. Shadow pages come from
  // windows under guard markers or with any batch; only immediate
  // revocation under mprotect takes the per-object alias (DESIGN.md §11).
  std::size_t protect_batch = 0;
  // Degradation policy (core/degrade.h). nullptr = share the process-wide
  // governor; tests and benches pass their own to pin or observe the ladder.
  DegradationGovernor* governor = nullptr;
  // Revocation backend (vm/revoke.h): kAuto = DPG_REVOKE_BACKEND, else
  // guard markers where the kernel installs them, else kMprotect. kGuard
  // falls back to kMprotect where the probe fails. Either backend composes
  // with protect_batch.
  vm::RevokeBackend revoke_backend = vm::RevokeBackend::kAuto;
};

class ShadowEngine {
 public:
  // `shadow_freelist` may be shared across engines (the paper's free list is
  // "shared across pools"); every shadow span the engine releases goes there.
  // `sampled` is the exact alloc/free ledger of the fast path every
  // allocation without a shadow alias takes (core/sampled.h); every engine
  // over one underlying heap must share it, since a fast-path pointer may
  // come back on any of their free paths.
  ShadowEngine(vm::PhysArena& arena, alloc::MallocLike& under,
               vm::VaFreeList& shadow_freelist, SampledTable& sampled,
               GuardConfig cfg = {});
  ~ShadowEngine();

  ShadowEngine(const ShadowEngine&) = delete;
  ShadowEngine& operator=(const ShadowEngine&) = delete;

  [[nodiscard]] void* malloc(std::size_t size, SiteId site = 0);
  void free(void* p, SiteId site = 0);
  [[nodiscard]] std::size_t size_of(const void* p) const;

  // calloc semantics: zeroed memory, overflow-checked count*size (returns
  // nullptr on overflow, like the C allocator contract).
  [[nodiscard]] void* calloc(std::size_t count, std::size_t size,
                             SiteId site = 0);
  // realloc semantics: grows/shrinks by move. The OLD pointer becomes a
  // guarded dangling pointer — the classic realloc-stale-alias bug class is
  // detected exactly like a free.
  [[nodiscard]] void* realloc(void* p, std::size_t new_size, SiteId site = 0);

  // Guard-elision fast path: serve the request straight from the underlying
  // (canonical) allocator — no shadow alias, no registry record, and the
  // matching free_unguarded issues no mprotect. Legal only for allocation
  // sites a static analysis classified SAFE (see compiler/uaf_analysis.h);
  // pointers from this path MUST be released via free_unguarded, never
  // free(). Counted in stats().guards_elided.
  [[nodiscard]] void* malloc_unguarded(std::size_t size, SiteId site = 0);
  void free_unguarded(void* p, SiteId site = 0);

  // Cross-shard free: callable from ANY thread, lock-free on this engine.
  // The record must be one of this engine's (routing by rec->engine is
  // ShardedHeap's job; admission reports anything else as an invalid
  // free). Takes the same admission as free() right here — a
  // double free, including one racing the owner, raises immediately with an
  // exact report — then pushes the record onto the MPSC remote list; the
  // revocation and the canonical return happen when the owner next
  // allocates or flushes, or when a producer crossing the backstop drains
  // under the lock. Until that drain the span is freed-but-unprotected: the
  // same bounded detection-delay window as the revocation queue, shrunk to
  // zero by flush_protections().
  void free_remote(void* p, SiteId site = 0);

  // Applies any deferred batched protections now (no-op when the revocation
  // queue is disabled or empty). Also drains the remote-free list first, so
  // after this call every free issued-and-routed so far is revoked.
  void flush_protections();

  // Releases *every* span this engine created (live and freed): purges the
  // registry and recycles the VAs. This is the pooldestroy path — legal only
  // when the caller can bound the lifetime of all pointers into the engine
  // (including concurrent remote frees: callers must quiesce other threads).
  void release_all();

  // --- conservative-GC support (advanced; see gc_scan.h) ---
  [[nodiscard]] std::vector<ObjectRecord*> freed_records();
  [[nodiscard]] std::vector<ObjectRecord*> live_records();
  void reclaim(ObjectRecord* rec);  // must be a freed record of this engine

  [[nodiscard]] GuardStats stats() const;
  // Live atomic counters for lock-free readers (metrics exporter, signal
  // dumps). See the memory-order contract in stats.h.
  [[nodiscard]] const GuardCounters& counters() const noexcept {
    return stats_;
  }
  // The resolved revocation backend (never kAuto).
  [[nodiscard]] vm::RevokeBackend revoke_backend() const noexcept {
    return revoker_.active();
  }

  static constexpr std::size_t kGuardHeader = sizeof(std::uintptr_t);
  static constexpr std::size_t kWindowPages = 256;
  static constexpr std::size_t kWindowBytes = kWindowPages * vm::kPageSize;
  // Canonical reuse distance of immediate revocation with windows, in pages
  // of freed bytes: 64 x 4 KiB x 4 shards holds back 1 MiB at t4.
  static constexpr std::size_t kReuseDistancePages = 64;
  // Live-generation population cap, across all windows. Windows tile the
  // arena's file-offset space, so a churn-heavy workload keeps first-
  // touching new windows; without a cap every partially-claimed generation
  // (one window-sized shadow mapping each) lives until release_all —
  // unbounded RSS/VMA growth that the endurance soak flags as a leak. Over
  // the cap the engine retires a generation (evict_magazine_locked). The cap
  // must reach the objects one canonical page can hold (128 at the 32-byte
  // minimum stride of SegregatedHeap and Pool): a burst of k objects on one
  // page takes k live generations at once, and a lower cap would retire them
  // nearly empty, each pinning a whole window for one live object. Each live
  // generation holds a window of VA that the shadow registry pays 8 bytes a
  // page for, so the cap goes no higher.
  static constexpr std::size_t kMaxGenerations = 128;
  // Slot-magazine window in pages that `cfg` yields: kWindowPages when
  // cfg.revoke_backend resolves to guard markers or protect_batch > 1, else
  // 0 (immediate mprotect revocation takes the per-object alias); 0 with a
  // trailing guard page.
  [[nodiscard]] static std::size_t magazine_window(
      const GuardConfig& cfg) noexcept;

  // The engine's governor (never null after construction).
  [[nodiscard]] DegradationGovernor& governor() noexcept { return *gov_; }

  // Shard identity (names the shard in remote-drain trace events).
  void set_shard_id(std::uint32_t id) noexcept { shard_id_ = id; }
  [[nodiscard]] std::uint32_t shard_id() const noexcept { return shard_id_; }

  // Diagnostics for tests/benches: remote frees queued but not yet drained,
  // and frees sitting in the revocation queue.
  [[nodiscard]] std::size_t remote_pending() const noexcept {
    return remote_pending_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_revocations() const;
  // Bytes currently parked in the delayed-reuse quarantine, canonical bytes
  // waiting out the reuse distance, live magazine generations, and span
  // owners still mapped (the live generations plus every retired owner a
  // record still pins) — the soak harness samples them for drift.
  [[nodiscard]] std::size_t quarantine_depth_bytes() const;
  [[nodiscard]] std::size_t reuse_delay_bytes() const;
  [[nodiscard]] std::size_t magazine_count() const;
  [[nodiscard]] std::size_t owner_count() const;

  // --- oracle introspection (src/fuzz, tests) ---
  // Resolves a pointer previously returned by malloc to its record, or
  // nullptr for fast-path (canonical) and foreign pointers. Interior pointers
  // resolve to nullptr too: the fuzzer uses this to learn whether an
  // allocation ended up guarded, so only exact user pointers count.
  [[nodiscard]] static const ObjectRecord* record_of(const void* p);
  // True when `p` is a freed guarded object whose free has been fully
  // processed by the owner engine — revocation attempted, canonical block
  // returned or quarantined. While revocation is not being fault-injected
  // this is exactly "the span is revoked: a dereference MUST trap";
  // false means the free still sits in the revocation queue or on a remote
  // list, the documented bounded window where a stale (unreused) read is
  // legal. Under an armed revocation fault plan a refused revocation also
  // reports true with the canonical block parked in quarantine, so the
  // stale read then sees unreused bytes instead of trapping.
  [[nodiscard]] bool revocation_applied(const void* p) const;

 private:
  // A doubly-linked FIFO threaded through each node's Prev/Next pointers.
  template <class T, T* T::*Prev, T* T::*Next>
  struct IntrusiveFifo {
    T* head = nullptr;
    T* tail = nullptr;
    [[nodiscard]] bool empty() const noexcept { return head == nullptr; }
    void push_back(T* n) noexcept {
      n->*Prev = tail;
      n->*Next = nullptr;
      (tail != nullptr ? tail->*Next : head) = n;
      tail = n;
    }
    void erase(T* n) noexcept {
      (n->*Prev != nullptr ? n->*Prev->*Next : head) = n->*Next;
      (n->*Next != nullptr ? n->*Next->*Prev : tail) = n->*Prev;
    }
  };

  // A span owner: the unit whose VA goes back to the shared list, whole, once
  // it has retired and its last record is released, and the unit the §3.4
  // budget charges and releases. A per-object alias gets a one-slot owner,
  // retired at birth; a window generation is a Magazine.
  struct Owner {
    Owner() = default;
    Owner(const Owner&) = delete;
    Owner& operator=(const Owner&) = delete;
    virtual ~Owner() = default;  // a Magazine is deleted as an Owner too
    std::uintptr_t shadow_base = 0;
    std::size_t bytes = 0;
    // The file offset the span aliases: the binding it goes back to the
    // shared list with.
    std::size_t offset = vm::VaFreeList::kUnbound;
    std::size_t live = 0;  // records neither released nor on `freed`
    bool retired = false;
    // Freed-and-revoked records, oldest revocation first.
    IntrusiveFifo<ObjectRecord, &ObjectRecord::freed_prev,
                  &ObjectRecord::freed_next>
        freed;
    Owner* older = nullptr;  // release_order_ links
    Owner* newer = nullptr;
  };

  // One magazine generation: a bulk alias of a whole canonical window. Slots
  // are claimed (bit set) once and never reused within the generation. It
  // retires when fully claimed, when evicted at the population cap, or at
  // release_all, so it never sheds slot-sized fragments.
  struct Magazine : Owner {
    std::array<std::uint64_t, kWindowPages / 64> claimed{};
    std::size_t free_slots = kWindowPages;

    [[nodiscard]] bool run_free(std::size_t s0, std::size_t n) const noexcept;
    void claim(std::size_t s0, std::size_t n) noexcept;
  };

  void* do_alloc_locked(std::size_t size, SiteId site);
  void* guarded_alloc_locked(std::size_t size, SiteId site);
  void* ledgered_alloc_locked(std::size_t size, SiteId site);
  void* alloc_canonical_locked(std::size_t bytes);
  void* install_record_locked(void* shadow_base, std::size_t span_len,
                              std::size_t guard, std::uintptr_t canon_addr,
                              std::uintptr_t first_page, std::size_t size,
                              SiteId site, Owner* owner);
  void* magazine_claim_locked(std::uintptr_t first_page, std::size_t data_span,
                              Magazine** from);
  vm::sys::MapResult map_alias_locked(std::uintptr_t first_page,
                                      std::size_t len, std::size_t guard);
  void retire_magazine_locked(Magazine* m);
  bool return_owner_if_done_locked(Owner* o);
  void evict_magazine_locked(const Magazine* keep);
  void drop_magazines_locked();
  void release_canonical_locked(ObjectRecord* rec);
  void free_locked(std::unique_lock<std::mutex>& lock, void* p, SiteId site);
  ObjectRecord* admit_free(std::unique_lock<std::mutex>* lock,
                           const ObjectRecord* found, std::uintptr_t user,
                           SiteId site);
  void quarantine_locked(void* block, std::size_t bytes);
  std::size_t drain_held_locked();
  void revoke_locked(ObjectRecord* rec);
  vm::sys::IoResult revoke_record_locked(ObjectRecord* rec);
  void maybe_flush_locked();
  void drain_remote_locked();
  void hold_freed_locked(ObjectRecord* rec);
  void release_record_locked(ObjectRecord* rec);
  void flush_protections_locked();
  void enforce_budget_locked();

  vm::PhysArena& arena_;
  alloc::MallocLike& under_;
  vm::VaFreeList& shadow_freelist_;
  SampledTable& sampled_;
  GuardConfig cfg_;
  DegradationGovernor* gov_;
  std::uint32_t shard_id_ = 0;

  // Revocation backend, resolved in the constructor.
  vm::Revoker revoker_;

  // Slot magazines: canonical-window base -> its live generations, oldest
  // first.
  bool windows_ = false;  // derived from cfg
  std::unordered_map<std::uintptr_t, std::vector<Magazine*>> magazines_;
  std::size_t magazine_gens_ = 0;  // live generations across all windows
  std::size_t owners_ = 0;         // owners whose VA has not gone back

  // Cross-shard remote-free list (MPSC: producers CAS-push lock-free,
  // consumer exchanges the head under mu_).
  std::atomic<ObjectRecord*> remote_head_{nullptr};
  std::atomic<std::size_t> remote_pending_{0};
  std::size_t remote_drain_threshold_ = 256;

  // Canonical blocks held back from the allocator, oldest first, with their
  // byte total. Each instance keeps its own release rule and accounting.
  class HoldBack {
   public:
    void push(void* block, std::size_t bytes) {
      blocks_.emplace_back(block, bytes);
      bytes_ += bytes;
    }
    // Hands the front block to `release` while `more(front's bytes)` holds.
    template <class More, class Release>
    void release_while(More more, Release release) {
      while (!blocks_.empty() && more(blocks_.front().second)) {
        const auto [block, bytes] = blocks_.front();
        blocks_.pop_front();
        bytes_ -= bytes;
        release(block);
      }
    }
    // Releases every block; returns the bytes released.
    template <class Release>
    std::size_t drain(Release release) {
      const std::size_t released = bytes_;
      release_while([](std::size_t) { return true; }, release);
      return released;
    }
    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

   private:
    std::deque<std::pair<void*, std::size_t>> blocks_;
    std::size_t bytes_ = 0;
  };

  // Delayed-reuse quarantine for fast-path frees (and for canonical blocks
  // whose revocation was refused): the physical memory is parked, not
  // recycled, so a stale pointer reads stale-but-unreused data instead of a
  // new owner's — detection is suspended, never falsified (DESIGN.md §10).
  // Released while its bytes exceed the governor's quarantine budget.
  HoldBack quarantine_;

  // Canonical reuse distance: revoked blocks, each returned to under_ once
  // reuse_distance_ bytes have been freed after it (kReuseDistancePages
  // under immediate revocation with windows; 0, a pass-through, otherwise:
  // a batched flush already defers reuse by protect_batch pages, and the
  // per-object alias needs no distance).
  HoldBack reuse_fifo_;
  std::size_t reuse_distance_ = 0;

  mutable std::mutex mu_;
  // Every record of the engine, oldest first.
  IntrusiveFifo<ObjectRecord, &ObjectRecord::prev, &ObjectRecord::next>
      records_;
  std::vector<ObjectRecord*> pending_protect_;  // revocation queue
  std::size_t pending_protect_pages_ = 0;
  // Owners with freed records, oldest newest-revocation first, and the sum
  // of their bytes: the §3.4 budget's charge and its release order.
  IntrusiveFifo<Owner, &Owner::older, &Owner::newer> release_order_;
  std::size_t freed_bytes_held_ = 0;
  GuardCounters stats_;
};

// Links the shadow VA list that a heap's or a pool context's engines share
// to their arena and governor for the list's lifetime: the list is the
// arena's emergency VMA-relief source, and each range it munmaps was a live
// guard VMA the governor stops counting. Declare it after the list.
class ShadowListLink {
 public:
  // `gov` nullptr = the process-wide governor.
  ShadowListLink(vm::PhysArena& arena, vm::VaFreeList& list,
                 DegradationGovernor* gov);
  ~ShadowListLink();

  ShadowListLink(const ShadowListLink&) = delete;
  ShadowListLink& operator=(const ShadowListLink&) = delete;

 private:
  vm::PhysArena& arena_;
  vm::VaFreeList& list_;
};

}  // namespace dpg::core
