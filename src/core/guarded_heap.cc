#include "core/guarded_heap.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>

#include "core/fault_manager.h"
#include "obs/backtrace.h"
#include "obs/metrics.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

namespace dpg::core {

namespace {

// Site-backtrace staging: public entry points capture the caller's frames
// into these before taking the engine lock; the consumers (record install,
// the free CAS winner) copy them into the slot header. Thread-local, so a
// cross-shard free staged on thread A is consumed by A's own free_remote
// call, never by the owner shard's drain. Zero work at DPG_SITE_DEPTH=0.
struct StagedStack {
  std::uintptr_t frames[obs::kMaxSiteFrames];
  std::size_t depth = 0;
};
thread_local StagedStack t_alloc_stage;
thread_local StagedStack t_free_stage;

// noinline callees of the [[gnu::noinline]] walker: the first captured frame
// is the public entry (malloc/free/...) itself, then the application chain.
void stage_alloc_stack() noexcept {
  t_alloc_stage.depth =
      obs::capture_site_stack(t_alloc_stage.frames, obs::kMaxSiteFrames);
}

void stage_free_stack() noexcept {
  t_free_stage.depth =
      obs::capture_site_stack(t_free_stage.frames, obs::kMaxSiteFrames);
}

void consume_alloc_stage(ObjectRecord& rec) noexcept {
  rec.alloc_stack_depth = static_cast<std::uint8_t>(t_alloc_stage.depth);
  for (std::size_t i = 0; i < t_alloc_stage.depth; ++i) {
    rec.alloc_stack[i] = t_alloc_stage.frames[i];
  }
}

// Only the kLive->kFreed CAS winner calls this; release-publishing the depth
// after the frames keeps the fault handler's acquire read tear-free.
void consume_free_stage(ObjectRecord& rec) noexcept {
  for (std::size_t i = 0; i < t_free_stage.depth; ++i) {
    rec.free_stack[i] = t_free_stage.frames[i];
  }
  rec.free_stack_depth.store(static_cast<std::uint8_t>(t_free_stage.depth),
                             std::memory_order_release);
}

// A double free of `user`, attributed to the object's first free: the
// record's on a guarded pointer, the ledger entry's on a fast-path one.
DanglingReport double_free_report(std::uintptr_t user, std::uintptr_t base,
                                  std::size_t size, SiteId alloc_site,
                                  SiteId free_site) noexcept {
  return {.kind = AccessKind::kFree,
          .fault_address = user,
          .object_base = base,
          .object_size = size,
          .alloc_site = alloc_site,
          .free_site = free_site};
}

// Counts a software report, drops the caller's engine lock, if any (dispatch
// may longjmp; never hold the lock across it), and raises.
[[noreturn]] void raise_report(std::unique_lock<std::mutex>* lock,
                               std::atomic<std::uint64_t>& count,
                               const DanglingReport& report) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (lock != nullptr) lock->unlock();
  FaultManager::instance().raise_software(report);
}

}  // namespace

ShadowEngine::ShadowEngine(vm::PhysArena& arena, alloc::MallocLike& under,
                           vm::VaFreeList& shadow_freelist,
                           SampledTable& sampled, GuardConfig cfg)
    : arena_(arena),
      under_(under),
      shadow_freelist_(shadow_freelist),
      sampled_(sampled),
      cfg_(cfg),
      gov_(cfg.governor != nullptr ? cfg.governor
                                   : &DegradationGovernor::process()) {
  revoker_.init(cfg_.revoke_backend);
  windows_ = magazine_window(cfg_) != 0;
  reuse_distance_ = windows_ && cfg_.protect_batch <= 1
                        ? kReuseDistancePages * vm::kPageSize
                        : 0;
  remote_drain_threshold_ =
      std::max<std::size_t>(cfg_.protect_batch * 2, std::size_t{256});
  obs::init_from_env();  // idempotent: arms DPG_TRACE / DPG_METRICS_* knobs
  FaultManager::instance().install();
}

ShadowEngine::~ShadowEngine() { release_all(); }

std::size_t ShadowEngine::magazine_window(const GuardConfig& cfg) noexcept {
  // A wide window lets the pages of a hot sub-page class share each
  // generation with many other pages (DESIGN.md §11); the reuse FIFO, or a
  // batched flush, spaces out canonical reuse across it. Under mprotect
  // each revoked slot would split its window's VMA: revoked one object at a
  // time, the split windows cost more VMAs, memory and time than one alias
  // per object, so immediate mprotect revocation keeps the paper's
  // per-object alias. A batched flush revokes merged runs, and a retired
  // generation seals its unclaimed runs (retire_magazine_locked). A
  // trailing guard page takes the page after each span, which in a window
  // is the next slot, so it rules magazines out.
  if (cfg.trailing_guard_page) return 0;
  if (cfg.protect_batch > 1 ||
      vm::Revoker::resolve(cfg.revoke_backend) == vm::RevokeBackend::kGuard) {
    return kWindowPages;
  }
  return 0;
}

void* ShadowEngine::malloc(std::size_t size, SiteId site) {
  obs::ScopedLatency lat(obs::Hist::kAllocNs);
  stage_alloc_stack();
  std::lock_guard lock(mu_);
  return do_alloc_locked(size, site);
}

void* ShadowEngine::calloc(std::size_t count, std::size_t size, SiteId site) {
  if (count != 0 && size > std::numeric_limits<std::size_t>::max() / count) {
    return nullptr;  // multiplication would overflow: the calloc contract
  }
  const std::size_t total = count * size;
  obs::ScopedLatency lat(obs::Hist::kAllocNs);
  stage_alloc_stack();
  std::lock_guard lock(mu_);
  void* p = do_alloc_locked(total, site);
  // Canonical blocks are recycled, so the memory may hold stale bytes.
  if (p != nullptr) std::memset(p, 0, total);
  return p;
}

void* ShadowEngine::malloc_unguarded(std::size_t size, SiteId site) {
  (void)site;  // diagnostics parity with malloc; nothing to record per object
  std::lock_guard lock(mu_);
  void* p = alloc_canonical_locked(size);
  if (p != nullptr) {
    stats_.guards_elided.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void ShadowEngine::free_unguarded(void* p, SiteId site) {
  (void)site;
  if (p == nullptr) return;
  std::lock_guard lock(mu_);
  under_.free(p);
}

void* ShadowEngine::realloc(void* p, std::size_t new_size, SiteId site) {
  if (p == nullptr) return malloc(new_size, site);
  // One capture serves both halves of the move: the new record's alloc stack
  // and the old record's free stack are the same realloc call site.
  stage_alloc_stack();
  t_free_stage = t_alloc_stage;
  std::unique_lock lock(mu_);
  if (new_size == 0) {
    free_locked(lock, p, site);
    return nullptr;
  }
  // The old size, from whichever source has it: a live guarded record or a
  // live ledger entry. Any other pointer — stale, interior, foreign — moves
  // nothing, and free_locked raises for it.
  constexpr std::size_t kUnknown = std::numeric_limits<std::size_t>::max();
  std::size_t old_size = kUnknown;
  const std::uintptr_t user = vm::addr(p);
  const ObjectRecord* rec = ShadowRegistry::global().lookup(user);
  SampledTable::Entry ent;
  if (rec != nullptr) {
    if (rec->user_shadow == user &&
        rec->state.load(std::memory_order_acquire) == ObjectState::kLive) {
      old_size = rec->user_size;
    }
  } else if (!sampled_.empty() && sampled_.lookup_live(user, &ent)) {
    old_size = ent.size;
  }
  void* fresh = nullptr;
  if (old_size != kUnknown) {
    fresh = do_alloc_locked(new_size, site);
    if (fresh == nullptr) return nullptr;  // old block stays valid
    std::memcpy(fresh, p, std::min(old_size, new_size));
  }
  // The old pointer is now a guarded dangling pointer (realloc's contract:
  // any use of `p` after this point is a temporal error and will trap).
  free_locked(lock, p, site);
  return fresh;
}

void* ShadowEngine::do_alloc_locked(std::size_t size, SiteId site) {
  // Piggyback remote-free draining on the allocation path: the owner shard
  // revokes cross-thread frees the next time it allocates, bounding the
  // detection-delay window without a dedicated thread. One relaxed load when
  // the list is empty.
  if (remote_head_.load(std::memory_order_relaxed) != nullptr) {
    drain_remote_locked();
  }
  // The governor's dial picks the winners: every allocation at full guard,
  // 1-in-N below it, none on the bottom notch. The rest take the ledgered
  // fast path (exact double-free detection, no VMA, no syscall).
  if (gov_->guard_this_alloc()) return guarded_alloc_locked(size, site);
  return ledgered_alloc_locked(size, site);
}

// Underlying allocation with exhaustion handling: on bad_alloc the governor
// is told, the reuse FIFO and the quarantine are returned to the allocator,
// and the request is retried once. nullptr = genuinely out of physical
// memory.
void* ShadowEngine::alloc_canonical_locked(std::size_t bytes) {
  void* p = nullptr;
  try {
    p = under_.malloc(bytes);
  } catch (const std::bad_alloc&) {
    gov_->on_arena_exhausted();
  }
  if (p == nullptr) {
    if (drain_held_locked() == 0) return nullptr;
    try {
      p = under_.malloc(bytes);
    } catch (const std::bad_alloc&) {
      return nullptr;
    }
  }
  // The allocator just (re)bound this canonical address; a stale sampled-
  // ledger entry must not outlive the old binding (the emptiness gate keeps
  // this off the hot path for every run that never reached the sampled rung).
  if (p != nullptr && !sampled_.empty()) sampled_.forget(vm::addr(p));
  return p;
}

// Every allocation without a shadow alias — a sampled-rung loser, the
// bottom rung, the re-serve after a guard refusal — takes this path: the
// canonical pointer goes out with no alias, no registry record and no VMA,
// and the ledger keeps its {site, size} binding so its free, a double free
// and an interior free all stay exact. It counts on the rung the ladder is
// on now, so a re-serve counts where the refusal moved the ladder.
void* ShadowEngine::ledgered_alloc_locked(std::size_t size, SiteId site) {
  void* p = alloc_canonical_locked(size);
  if (p == nullptr) return nullptr;
  sampled_.insert(vm::addr(p), size, site);
  if (gov_->mode() == GuardMode::kQuarantineOnly) {
    stats_.degraded_allocs.fetch_add(1, std::memory_order_relaxed);
    gov_->count_degraded_alloc();
  } else {
    stats_.sampled_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  obs::record_event(obs::EventKind::kAlloc, vm::addr(p), size, site);
  return p;
}

void* ShadowEngine::install_record_locked(void* shadow_base,
                                          std::size_t span_len,
                                          std::size_t guard,
                                          std::uintptr_t canon_addr,
                                          std::uintptr_t first_page,
                                          std::size_t size, SiteId site,
                                          Owner* owner) {
  // Header word: the canonical address, written through the shadow view (the
  // same physical memory, so the underlying allocator could equally read it
  // at the canonical address).
  const std::uintptr_t shadow_canon =
      vm::addr(shadow_base) + (canon_addr - first_page);
  *reinterpret_cast<std::uintptr_t*>(shadow_canon) = canon_addr;

  auto* rec = new ObjectRecord;
  rec->shadow_base = vm::addr(shadow_base);
  rec->span_length = span_len;
  rec->guard_length = guard;
  rec->user_shadow = shadow_canon + kGuardHeader;
  rec->user_size = size;
  rec->canonical = canon_addr;
  rec->alloc_site = site;
  consume_alloc_stage(*rec);
  rec->engine = this;
  rec->magazine = owner;
  rec->state.store(ObjectState::kLive, std::memory_order_release);

  records_.push_back(rec);

  ShadowRegistry::global().insert(*rec);

  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  stats_.live_records.fetch_add(1, std::memory_order_relaxed);
  stats_.guarded_bytes.fetch_add(span_len, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kAlloc, rec->user_shadow, size, site);
  return reinterpret_cast<void*>(rec->user_shadow);
}

// Aliases `len` bytes of canonical pages from `first_page`. VA from the
// shared list comes first: a range still bound to these pages is restored in
// place, any other is remapped with MAP_FIXED (which replaces the dead
// mapping there); with none, fresh VA. A refused restore falls through to
// the map over the same range. A refused map leaves a recycled range mapped,
// so it goes back, unbound. A trailing `guard` page is revoked before anyone
// sees it, after a restore as after a map: it aliases the canonical page
// after the span, which no access through it reaches, and under mprotect
// splits the alias into two VMAs.
vm::sys::MapResult ShadowEngine::map_alias_locked(std::uintptr_t first_page,
                                                  std::size_t len,
                                                  std::size_t guard) {
  const std::size_t offset =
      arena_.offset_of(reinterpret_cast<void*>(first_page));
  const auto reused = shadow_freelist_.take(len, offset);
  void* fixed = reused ? reinterpret_cast<void*>(reused->range.base) : nullptr;
  const bool restored = reused && reused->offset == offset &&
                        revoker_.restore(arena_, fixed, len).ok();
  vm::sys::MapResult alias =
      restored ? vm::sys::MapResult{fixed, 0}
               : arena_.try_map_shadow(reinterpret_cast<void*>(first_page),
                                       len, fixed);
  if (alias.ok() && guard != 0) {
    const vm::sys::IoResult g = revoker_.revoke(
        arena_, static_cast<std::byte*>(alias.ptr) + len - guard, guard);
    if (!g.ok()) {
      // A readable tail is no guard: drop a fresh alias.
      if (fixed == nullptr) (void)vm::sys::unmap(alias.ptr, len);
      alias = vm::sys::MapResult{nullptr, g.err};
    }
  }
  if (!alias.ok()) {
    if (fixed != nullptr) {
      shadow_freelist_.put(vm::PageRange{vm::addr(fixed), len});
    }
    return alias;
  }
  if (fixed != nullptr) {
    stats_.shadow_pages_reused.fetch_add(len / vm::kPageSize,
                                         std::memory_order_relaxed);
    if (restored) {
      stats_.shadow_restores.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    stats_.shadow_pages_mapped.fetch_add(len / vm::kPageSize,
                                         std::memory_order_relaxed);
    gov_->add_vmas(
        guard != 0 && revoker_.active() == vm::RevokeBackend::kMprotect ? 2
                                                                        : 1);
  }
  return alias;
}

bool ShadowEngine::Magazine::run_free(std::size_t s0,
                                      std::size_t n) const noexcept {
  for (std::size_t s = s0; s < s0 + n; ++s) {
    if ((claimed[s / 64] >> (s % 64)) & 1u) return false;
  }
  return true;
}

void ShadowEngine::Magazine::claim(std::size_t s0, std::size_t n) noexcept {
  for (std::size_t s = s0; s < s0 + n; ++s) {
    claimed[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  free_slots -= n;
  ++live;
}

void* ShadowEngine::magazine_claim_locked(std::uintptr_t first_page,
                                          std::size_t data_span,
                                          Magazine** from) {
  // Windows tile the arena's *file-offset* space, so a window's slab in the
  // memfd is contiguous and one mmap aliases all of it. (The canonical VA of
  // the window base follows from the arena being one contiguous mapping.)
  const std::size_t off_in_window =
      arena_.offset_of(reinterpret_cast<void*>(first_page)) % kWindowBytes;
  if (off_in_window + data_span > kWindowBytes) {
    return nullptr;  // straddles windows
  }
  const std::uintptr_t window_base = first_page - off_in_window;
  const std::size_t slot0 = off_in_window / vm::kPageSize;
  const std::size_t nslots = data_span / vm::kPageSize;

  // The newest generation whose run is still unclaimed serves the object, so
  // consecutive allocations stay adjacent in shadow space; older generations
  // serve the runs the newer ones already spent.
  std::vector<Magazine*>& gens = magazines_[window_base];
  for (std::size_t i = gens.size(); i-- > 0;) {
    Magazine* m = gens[i];
    if (!m->run_free(slot0, nslots)) continue;
    m->claim(slot0, nslots);
    stats_.magazine_hits.fetch_add(1, std::memory_order_relaxed);
    *from = m;
    const std::uintptr_t sb = m->shadow_base + off_in_window;
    if (m->free_slots == 0) {
      // Fully carved: every page of the generation is owned by some record.
      gens.erase(gens.begin() + static_cast<std::ptrdiff_t>(i));
      if (gens.empty()) magazines_.erase(window_base);
      --magazine_gens_;
      retire_magazine_locked(m);
    }
    return reinterpret_cast<void*>(sb);
  }

  // A run claimed in every live generation is a canonical page reused since
  // they were mapped (or a second object on it). The paper needs a distinct
  // alias per object, so that takes a fresh generation, never a per-object
  // map; the reuse FIFO, or the batched flush, keeps this rare.
  // Offsets past the memfd's end are legal: those slots become usable once
  // the arena grows over them, and only slots whose canonical pages exist
  // are ever carved.
  const vm::sys::MapResult res = map_alias_locked(window_base, kWindowBytes, 0);
  if (!res.ok()) {
    if (gens.empty()) magazines_.erase(window_base);
    // Caller takes the per-object path, which owns failure/degradation.
    return nullptr;
  }
  obs::record_event(obs::EventKind::kMagazineMap, vm::addr(res.ptr),
                    kWindowPages);
  stats_.magazine_maps.fetch_add(1, std::memory_order_relaxed);

  auto* m = new Magazine;
  ++owners_;
  m->shadow_base = vm::addr(res.ptr);
  m->bytes = kWindowBytes;
  m->offset = arena_.offset_of(reinterpret_cast<void*>(window_base));
  m->claim(slot0, nslots);
  *from = m;
  const std::uintptr_t sb = m->shadow_base + off_in_window;
  if (m->free_slots == 0) {
    if (gens.empty()) magazines_.erase(window_base);
    retire_magazine_locked(m);
  } else {
    gens.push_back(m);
    if (++magazine_gens_ > kMaxGenerations) {
      evict_magazine_locked(m);
    }
  }
  return reinterpret_cast<void*>(sb);
}

// Population cap: retire a generation that no live record holds if there is
// one, and among those the one with the most claims, whose unclaimed slots
// are worth least. A retired generation keeps its window mapped while any of
// its records remains, so one with a live record stays for that object's
// lifetime, where one with only freed records goes back once the freed-VA
// budget releases them. Eviction only forfeits future zero-syscall hits on
// the unclaimed slots.
void ShadowEngine::evict_magazine_locked(const Magazine* keep) {
  const auto live = [](const Magazine* m) { return m->live > 0; };
  std::uintptr_t victim_window = 0;
  std::size_t victim_idx = 0;
  const Magazine* victim = nullptr;
  for (const auto& [window, gens] : magazines_) {
    for (std::size_t i = 0; i < gens.size(); ++i) {
      if (gens[i] == keep) continue;
      if (victim == nullptr || live(gens[i]) < live(victim) ||
          (live(gens[i]) == live(victim) &&
           gens[i]->free_slots < victim->free_slots)) {
        victim = gens[i];
        victim_window = window;
        victim_idx = i;
      }
    }
  }
  if (victim == nullptr) return;
  std::vector<Magazine*>& gens = magazines_[victim_window];
  Magazine* m = gens[victim_idx];
  gens.erase(gens.begin() + static_cast<std::ptrdiff_t>(victim_idx));
  if (gens.empty()) magazines_.erase(victim_window);
  --magazine_gens_;
  retire_magazine_locked(m);
}

// A retired generation serves no more claims. Its never-claimed slots were
// never handed out, so no pointer into them exists; the claimed ones belong
// to records. Its whole window returns as one run once the last of its
// records is released, or now if there is none.
//
// Under mprotect a window that records still pin keeps a VMA for every run
// of revoked slots and every readable run between them, and a long-lived
// object can hold it for the rest of the run. Revoking the never-claimed
// runs too (sealing) merges them with their revoked neighbours, so the
// window keeps about two VMAs per run of slots still in use. Guard markers
// split no VMA, and a failed seal only leaves unreachable pages readable.
void ShadowEngine::retire_magazine_locked(Magazine* m) {
  m->retired = true;
  stats_.magazine_slots_recycled.fetch_add(m->free_slots,
                                           std::memory_order_relaxed);
  if (return_owner_if_done_locked(m)) return;
  if (m->free_slots == 0 ||
      revoker_.active() != vm::RevokeBackend::kMprotect) {
    return;
  }
  for (std::size_t s = 0; s < kWindowPages;) {
    if (!m->run_free(s, 1)) {
      ++s;
      continue;
    }
    std::size_t e = s + 1;
    while (e < kWindowPages && m->run_free(e, 1)) ++e;
    (void)revoker_.revoke(
        arena_, reinterpret_cast<void*>(m->shadow_base + s * vm::kPageSize),
        (e - s) * vm::kPageSize);
    s = e;
  }
}

// An owner's VA goes back whole once it has retired and holds no record.
bool ShadowEngine::return_owner_if_done_locked(Owner* o) {
  if (!o->retired || o->live != 0 || !o->freed.empty()) return false;
  shadow_freelist_.put(vm::PageRange{o->shadow_base, o->bytes}, o->offset);
  delete o;
  --owners_;
  return true;
}

void ShadowEngine::drop_magazines_locked() {
  for (auto& [base, gens] : magazines_) {
    for (Magazine* m : gens) retire_magazine_locked(m);
  }
  magazines_.clear();
  magazine_gens_ = 0;
}

void* ShadowEngine::guarded_alloc_locked(std::size_t size, SiteId site) {
  // "An allocation request is passed to malloc with the size incremented by
  //  sizeof(addr_t) bytes; the extra bytes at the start of the object will be
  //  used to record an address for bookkeeping purposes." (Section 3.2)
  const std::size_t total = size + kGuardHeader;
  void* canonical = alloc_canonical_locked(total);
  if (canonical == nullptr) return nullptr;
  const std::uintptr_t canon_addr = vm::addr(canonical);
  const std::uintptr_t first_page = vm::page_down(canon_addr);
  const std::size_t data_span = vm::page_up(canon_addr + total) - first_page;
  const std::size_t guard = cfg_.trailing_guard_page ? vm::kPageSize : 0;
  const std::size_t span_len = data_span + guard;

  // Magazine fast path: carve the shadow span out of one of the window's
  // live generations — zero syscalls on a hit. (windows_ is false when
  // trailing_guard_page is set, so guard == 0 on this path.)
  if (windows_) {
    Magazine* from = nullptr;
    if (void* sb = magazine_claim_locked(first_page, data_span, &from)) {
      return install_record_locked(sb, span_len, guard, canon_addr, first_page,
                                   size, site, from);
    }
  }

  // Guard-path kernel calls, all Result-returning: any refusal rolls the
  // allocation back, moves the governor down, and re-serves the request on
  // the ledgered fast path — the caller never sees the failure.
  const vm::sys::MapResult alias =
      map_alias_locked(first_page, span_len, guard);
  if (!alias.ok()) {
    under_.free(canonical);
    stats_.guard_failures.fetch_add(1, std::memory_order_relaxed);
    gov_->on_syscall_failure("shadow-alias", alias.err);
    return ledgered_alloc_locked(size, site);
  }
  obs::record_event(obs::EventKind::kShadowMap, vm::addr(alias.ptr),
                    span_len);
  auto* owner = new Owner;
  ++owners_;
  owner->shadow_base = vm::addr(alias.ptr);
  owner->bytes = span_len;
  owner->offset = arena_.offset_of(reinterpret_cast<void*>(first_page));
  owner->live = 1;
  owner->retired = true;
  return install_record_locked(alias.ptr, span_len, guard, canon_addr,
                               first_page, size, site, owner);
}

void ShadowEngine::free(void* p, SiteId site) {
  if (p == nullptr) return;
  obs::ScopedLatency lat(obs::Hist::kFreeNs);
  stage_free_stack();
  std::unique_lock lock(mu_);
  free_locked(lock, p, site);
}

// Parks a canonical block whose reuse must wait: a ledgered free, or a
// record whose revocation was refused. Every parked block was admitted
// exactly once — by the ledger's live->freed transition or by the record's
// kLive->kFreed CAS — so it is a live allocator block until released here.
void ShadowEngine::quarantine_locked(void* block, std::size_t bytes) {
  quarantine_.push(block, bytes);
  const std::size_t budget = gov_->quarantine_budget();
  quarantine_.release_while(
      [&](std::size_t) { return quarantine_.bytes() > budget; },
      [this](void* b) { under_.free(b); });
}

// Every successfully revoked canonical block enters the reuse FIFO and
// reaches the allocator once reuse_distance_ bytes have been freed after it.
// The heap's LIFO lists would otherwise hand a block straight back to the
// next allocation of its size, whose shadow slot the live generation has
// already spent; held back one window, the allocator walks the whole window
// before it returns to a page. Bytes, not pages: counted per page, a hot
// sub-page size class would cycle through one or two canonical pages.
void ShadowEngine::release_canonical_locked(ObjectRecord* rec) {
  reuse_fifo_.push(reinterpret_cast<void*>(rec->canonical),
                   rec->user_size + kGuardHeader);
  reuse_fifo_.release_while(
      [this](std::size_t front) {
        return reuse_fifo_.bytes() - front >= reuse_distance_;
      },
      [this](void* b) { under_.free(b); });
  stats_.reuse_delay_bytes.store(reuse_fifo_.bytes(),
                                 std::memory_order_relaxed);
}

// Empties both hold-back queues into the allocator, the reuse FIFO first;
// returns the bytes released.
std::size_t ShadowEngine::drain_held_locked() {
  std::size_t released = reuse_fifo_.drain([this](void* b) { under_.free(b); });
  stats_.reuse_delay_bytes.store(0, std::memory_order_relaxed);
  released += quarantine_.drain([this](void* b) { under_.free(b); });
  return released;
}

// Revocation of one freed record: protect the span and return the canonical
// block, or queue both for the next batched flush. No flush/budget decisions
// here — callers follow with maybe_flush_locked().
void ShadowEngine::revoke_locked(ObjectRecord* rec) {
  if (cfg_.protect_batch > 1) {
    // Deferred protection: the canonical block is NOT returned yet, so the
    // physical memory cannot be reused before the span is protected.
    pending_protect_.push_back(rec);
    pending_protect_pages_ += rec->span_length / vm::kPageSize;
    return;
  }
  hold_freed_locked(rec);
  const vm::sys::IoResult r = revoke_record_locked(rec);
  if (!r.ok()) gov_->on_syscall_failure("protect-none", r.err);
}

// Revokes one record's span — PROT_NONE through the arena, or guard markers
// (vm/revoke.h); either way the span traps from here on — and hands its
// canonical block on. Refused, the shadow stays readable, so the physical
// block must NOT be recycled (a new owner's data would leak through the
// stale alias): it parks in quarantine instead, and the record stays
// registered, so a double free of this pointer is still caught exactly.
vm::sys::IoResult ShadowEngine::revoke_record_locked(ObjectRecord* rec) {
  const vm::sys::IoResult r = revoker_.revoke(
      arena_, reinterpret_cast<void*>(rec->shadow_base), rec->span_length);
  stats_.protect_calls.fetch_add(1, std::memory_order_relaxed);
  if (r.ok()) {
    stats_.revoked_spans.fetch_add(1, std::memory_order_relaxed);
    release_canonical_locked(rec);
  } else {
    stats_.guard_failures.fetch_add(1, std::memory_order_relaxed);
    quarantine_locked(reinterpret_cast<void*>(rec->canonical),
                      rec->user_size + kGuardHeader);
  }
  return r;
}

void ShadowEngine::maybe_flush_locked() {
  if (cfg_.protect_batch > 1 && pending_protect_pages_ >= cfg_.protect_batch) {
    flush_protections_locked();
  }
  enforce_budget_locked();
}

void ShadowEngine::free_locked(std::unique_lock<std::mutex>& lock, void* p,
                               SiteId site) {
  const std::uintptr_t user = vm::addr(p);
  if (!sampled_.empty()) {
    // Ledger first: it has exact knowledge of fast-path pointers, and since
    // ledgered (canonical) and guarded (shadow-page) addresses are disjoint
    // by construction, a hit is definitive without consulting the registry
    // at all. A miss pays one hash find extra, only while the ledger is
    // non-empty.
    SampledTable::Entry ent;
    switch (sampled_.on_free(user, site, &ent)) {
      case SampledTable::FreeResult::kMiss:
        break;
      case SampledTable::FreeResult::kFreed:
        // First free of a fast-path object: ledger transition done; the block
        // parks in quarantine so the address cannot be rebound while the
        // freed entry could still catch a double free, and a stale pointer
        // reads stale-but-unreused memory, not a new owner's data.
        stats_.sampled_frees.fetch_add(1, std::memory_order_relaxed);
        obs::record_event(obs::EventKind::kFree, user, ent.size, site);
        quarantine_locked(p, under_.size_of(p));
        return;
      case SampledTable::FreeResult::kDoubleFree:
        // Exact double free of a fast-path object. The entry carries the
        // first free's attribution.
        raise_report(&lock, stats_.double_frees,
                     double_free_report(user, user, ent.size, ent.alloc_site,
                                        ent.free_site));
    }
  }
  // A pointer that misses both the ledger and the registry is an invalid
  // free on every rung.
  revoke_locked(
      admit_free(&lock, ShadowRegistry::global().lookup(user), user, site));
  maybe_flush_locked();
}

// Admission, shared by every guarded free (the owner's locked path and the
// lock-free remote one): checks the pointer, takes the kLive->kFreed ticket
// and stamps the free. `found` is the registry's record for the page of
// `user`; `lock` is the engine lock the caller holds, nullptr on the remote
// path. Returns the record the caller now owns the revocation of.
ObjectRecord* ShadowEngine::admit_free(std::unique_lock<std::mutex>* lock,
                                       const ObjectRecord* found,
                                       std::uintptr_t user, SiteId site) {
  // Objects never share a shadow page, so a page hit identifies the object;
  // still require the exact pointer, as free() of an interior pointer is an
  // error in its own right, and this engine's record: another engine's
  // object (a pool freeing what a sibling pool allocated) would otherwise
  // land in this engine's owners and hand its canonical block to the wrong
  // allocator.
  if (found == nullptr || found->user_shadow != user ||
      found->engine != this) {
    raise_report(lock, stats_.invalid_frees,
                 {.kind = AccessKind::kInvalidFree, .fault_address = user});
  }
  auto* rec = const_cast<ObjectRecord*>(found);

  // The CAS is the single admission ticket: a loser — same thread, another
  // thread on this shard, or a cross-shard free racing us — sees kFreed and
  // reports a deterministic double free, even while the winner's revocation
  // is still queued. (The paper's formulation — the header-word read
  // trapping on the protected page — also holds here, but the record check
  // yields a precise report.)
  ObjectState expected = ObjectState::kLive;
  if (!rec->state.compare_exchange_strong(expected, ObjectState::kFreed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    DanglingReport report = double_free_report(
        user, rec->user_shadow, rec->user_size, rec->alloc_site,
        rec->free_site.load(std::memory_order_relaxed));
    // The report carries the FIRST free's stack; the second free (this call)
    // becomes the use stack at dispatch.
    copy_site_stacks(*rec, report);
    raise_report(lock, stats_.double_frees, report);
  }

  // Consistency check: the header word must still name the canonical address
  // (its page is readable until the revocation).
  assert(*reinterpret_cast<std::uintptr_t*>(user - kGuardHeader) ==
         rec->canonical);

  rec->free_site.store(site, std::memory_order_relaxed);
  consume_free_stage(*rec);
  stats_.frees.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kFree, user, rec->user_size, site);
  return rec;
}

void ShadowEngine::free_remote(void* p, SiteId site) {
  if (p == nullptr) return;
  obs::ScopedLatency lat(obs::Hist::kFreeNs);
  stage_free_stack();
  // The router (ShardedHeap) resolved `p` to a record of this engine by
  // page; admission still rejects an interior or stale pointer.
  const std::uintptr_t user = vm::addr(p);
  ObjectRecord* rec =
      admit_free(nullptr, ShadowRegistry::global().lookup(user), user, site);
  stats_.remote_frees.fetch_add(1, std::memory_order_relaxed);

  // Lock-free MPSC push; the release CAS publishes free_site and the state
  // transition to the owner's acquire exchange in drain_remote_locked.
  ObjectRecord* old = remote_head_.load(std::memory_order_relaxed);
  do {
    rec->remote_next.store(old, std::memory_order_relaxed);
  } while (!remote_head_.compare_exchange_weak(old, rec,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  // Backstop: if the owner shard is idle (not allocating), the producer that
  // crosses the threshold drains on the owner's behalf, bounding how much
  // freed-but-unrevoked memory the queue can accumulate.
  if (remote_pending_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      remote_drain_threshold_) {
    std::lock_guard lock(mu_);
    drain_remote_locked();
  }
}

void ShadowEngine::drain_remote_locked() {
  ObjectRecord* node = remote_head_.exchange(nullptr,
                                             std::memory_order_acquire);
  if (node == nullptr) return;
  std::size_t n = 0;
  while (node != nullptr) {
    ObjectRecord* next = node->remote_next.load(std::memory_order_relaxed);
    node->remote_next.store(nullptr, std::memory_order_relaxed);
    revoke_locked(node);
    ++n;
    node = next;
  }
  remote_pending_.fetch_sub(n, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kRemoteDrain, shard_id_, n);
  maybe_flush_locked();
}

void ShadowEngine::flush_protections() {
  std::lock_guard lock(mu_);
  drain_remote_locked();  // routed-but-undrained frees flush too
  flush_protections_locked();
  enforce_budget_locked();
}

std::size_t ShadowEngine::pending_revocations() const {
  std::lock_guard lock(mu_);
  return pending_protect_.size() +
         remote_pending_.load(std::memory_order_relaxed);
}

std::size_t ShadowEngine::quarantine_depth_bytes() const {
  std::lock_guard lock(mu_);
  return quarantine_.bytes();
}

std::size_t ShadowEngine::reuse_delay_bytes() const {
  std::lock_guard lock(mu_);
  return reuse_fifo_.bytes();
}

std::size_t ShadowEngine::magazine_count() const {
  std::lock_guard lock(mu_);
  return magazine_gens_;
}

std::size_t ShadowEngine::owner_count() const {
  std::lock_guard lock(mu_);
  return owners_;
}

void ShadowEngine::flush_protections_locked() {
  if (pending_protect_.empty()) return;
  // The records join the release order in free order, which the sort below
  // loses; no budget decision runs before the flush ends.
  for (ObjectRecord* rec : pending_protect_) hold_freed_locked(rec);
  // Address-sort and merge adjacent spans: one mprotect per contiguous run.
  // Magazine-carved spans from the same window ARE adjacent when freed
  // together, so churny phases collapse to a handful of calls.
  std::sort(pending_protect_.begin(), pending_protect_.end(),
            [](const ObjectRecord* a, const ObjectRecord* b) {
              return a->shadow_base < b->shadow_base;
            });
  const std::size_t n = pending_protect_.size();
  std::size_t i = 0;
  while (i < n) {
    std::uintptr_t run_base = pending_protect_[i]->shadow_base;
    std::size_t run_len = pending_protect_[i]->span_length;
    std::size_t j = i + 1;
    while (j < n && pending_protect_[j]->shadow_base == run_base + run_len) {
      run_len += pending_protect_[j]->span_length;  // extends the current run
      stats_.protect_calls_saved.fetch_add(1, std::memory_order_relaxed);
      ++j;
    }
    const vm::sys::IoResult r = revoker_.revoke(
        arena_, reinterpret_cast<void*>(run_base), run_len);
    stats_.protect_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.ok()) {
      if (j - i > 1) {
        stats_.revoke_coalesced_pages.fetch_add(run_len / vm::kPageSize,
                                                std::memory_order_relaxed);
      }
      stats_.revoked_spans.fetch_add(j - i, std::memory_order_relaxed);
      for (std::size_t k = i; k < j; ++k) {
        release_canonical_locked(pending_protect_[k]);
      }
    } else {
      // The merged call was refused; fall back to per-record protection so
      // one bad span cannot leave a whole run revocable-but-unprotected.
      // A refused record is not retried.
      gov_->on_syscall_failure("protect-batch", r.err);
      for (std::size_t k = i; k < j; ++k) {
        (void)revoke_record_locked(pending_protect_[k]);
      }
    }
    i = j;
  }
  stats_.revoke_batches.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kProtectBatch,
                    pending_protect_.front()->shadow_base,
                    pending_protect_.size());
  pending_protect_.clear();
  pending_protect_pages_ = 0;
}

void ShadowEngine::enforce_budget_locked() {
  if (cfg_.freed_va_budget == 0 || freed_bytes_held_ <= cfg_.freed_va_budget) {
    return;
  }
  // §3.4 strategy 1: recycle the oldest freed spans down to half budget. An
  // owner's charge drops only with its last freed record, so owners go
  // whole, the one whose newest revocation is oldest first. The owner of the
  // newest revocation always stays, so the newest free keeps its guard at
  // any budget. Records whose revocation is still in flight (queued or on
  // the remote list) are on no freed list: releasing them would leave live
  // pointers in those queues.
  while (freed_bytes_held_ > cfg_.freed_va_budget / 2 &&
         release_order_.head != release_order_.tail) {
    for (ObjectRecord* it = release_order_.head->freed.head; it != nullptr;) {
      ObjectRecord* next = it->freed_next;
      release_record_locked(it);  // the last one unlinks (or frees) the owner
      it = next;
    }
  }
}

std::size_t ShadowEngine::size_of(const void* p) const {
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  return rec != nullptr ? rec->user_size : 0;
}

// Freed-VA accounting for the §3.4 budget: an owner is charged its bytes
// while any of its records is freed-but-guarded, because its VA cannot be
// recycled before its last record is released, and moves to the newest end
// of the release order with each revocation.
void ShadowEngine::hold_freed_locked(ObjectRecord* rec) {
  rec->revocation_done = true;
  auto* o = static_cast<Owner*>(rec->magazine);
  --o->live;
  if (o->freed.empty()) {
    freed_bytes_held_ += o->bytes;
  } else {
    release_order_.erase(o);
  }
  o->freed.push_back(rec);
  release_order_.push_back(o);
}

void ShadowEngine::release_record_locked(ObjectRecord* rec) {
  ShadowRegistry::global().erase(*rec);
  auto* o = static_cast<Owner*>(rec->magazine);
  if (rec->revocation_done) {
    o->freed.erase(rec);
    if (o->freed.empty()) {
      freed_bytes_held_ -= o->bytes;
      release_order_.erase(o);
    }
  } else {
    --o->live;
  }
  return_owner_if_done_locked(o);
  const vm::PageRange span{rec->shadow_base, rec->span_length};
  obs::record_event(obs::EventKind::kVaReclaim, span.base, span.pages());
  stats_.va_reclaimed_pages.fetch_add(span.pages(), std::memory_order_relaxed);
  stats_.live_records.fetch_sub(1, std::memory_order_relaxed);
  stats_.guarded_bytes.fetch_sub(span.length, std::memory_order_relaxed);
  records_.erase(rec);
  delete rec;
}

void ShadowEngine::release_all() {
  std::lock_guard lock(mu_);
  // Pooldestroy contract: callers quiesced every thread that could still
  // free into this engine, so one drain empties the remote list for good.
  drain_remote_locked();
  flush_protections_locked();  // pending canonical blocks must reach under_
  drain_held_locked();
  while (!records_.empty()) release_record_locked(records_.head);
  drop_magazines_locked();
}

std::vector<ObjectRecord*> ShadowEngine::freed_records() {
  std::lock_guard lock(mu_);
  drain_remote_locked();
  flush_protections_locked();  // external consumers expect protected spans
  std::vector<ObjectRecord*> out;
  for (ObjectRecord* it = records_.head; it != nullptr; it = it->next) {
    if (it->revocation_done &&
        it->state.load(std::memory_order_relaxed) == ObjectState::kFreed) {
      out.push_back(it);
    }
  }
  return out;
}

std::vector<ObjectRecord*> ShadowEngine::live_records() {
  std::lock_guard lock(mu_);
  std::vector<ObjectRecord*> out;
  for (ObjectRecord* it = records_.head; it != nullptr; it = it->next) {
    if (it->state.load(std::memory_order_relaxed) == ObjectState::kLive) {
      out.push_back(it);
    }
  }
  return out;
}

void ShadowEngine::reclaim(ObjectRecord* rec) {
  std::lock_guard lock(mu_);
  assert(rec->state.load(std::memory_order_relaxed) == ObjectState::kFreed);
  assert(rec->revocation_done);
  release_record_locked(rec);
}

const ObjectRecord* ShadowEngine::record_of(const void* p) {
  if (p == nullptr) return nullptr;
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  if (rec == nullptr || rec->user_shadow != vm::addr(p)) return nullptr;
  return rec;
}

bool ShadowEngine::revocation_applied(const void* p) const {
  const ObjectRecord* rec = record_of(p);
  if (rec == nullptr) return false;
  // revocation_done is owner-lock-protected; taking mu_ here is only correct
  // on the owning engine (ShardedHeap routes by rec->engine before calling).
  std::lock_guard lock(mu_);
  return rec->state.load(std::memory_order_acquire) == ObjectState::kFreed &&
         rec->revocation_done;
}

GuardStats ShadowEngine::stats() const {
  // Under the engine lock every writer is quiesced, so this snapshot is a
  // fully consistent cut (see the contract in stats.h) — except the lock-free
  // remote-free producers, whose counters are per-counter accurate.
  std::lock_guard lock(mu_);
  return stats_.snapshot();
}

ShadowListLink::ShadowListLink(vm::PhysArena& arena, vm::VaFreeList& list,
                               DegradationGovernor* gov)
    : arena_(arena), list_(list) {
  arena_.add_relief_source(&list_);
  list_.set_release_hook(
      +[](void* g, std::size_t ranges) {
        static_cast<DegradationGovernor*>(g)->add_vmas(
            -static_cast<long>(ranges));
      },
      gov != nullptr ? gov : &DegradationGovernor::process());
}

ShadowListLink::~ShadowListLink() { arena_.remove_relief_source(&list_); }

}  // namespace dpg::core
