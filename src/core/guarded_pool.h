// GuardedPool — pool allocation integrated with page aliasing (Section 3.3).
//
// "The key benefit is that, at a pool destroy, we can release all (shadow and
//  canonical) virtual memory pages of the pool to be reused by future
//  allocations."
//
// A GuardedPoolContext holds the state the paper shares process-wide: the
// physical arena, the canonical-extent free list (inside ArenaSource), and
// the shadow-page VA free list shared across pools. Each GuardedPool is one
// poolinit/pooldestroy lifetime: destroy() purges every record the pool's
// engine created (recycling shadow VAs onto the shared list) and recycles the
// pool's canonical extents.
//
// PoolScope is the RAII marker workloads use to stand in for the compiler
// transformation: constructing one is poolinit, destruction is pooldestroy.
#pragma once

#include <cstddef>

#include "alloc/pool.h"
#include "core/guarded_heap.h"
#include "vm/phys_arena.h"
#include "vm/va_freelist.h"

namespace dpg::core {

class GuardedPoolContext {
 public:
  explicit GuardedPoolContext(GuardConfig cfg = {},
                              std::size_t arena_window =
                                  vm::PhysArena::kDefaultWindow)
      : arena_(arena_window),
        source_(arena_),
        link_(arena_, shadow_va_, cfg.governor),
        cfg_(cfg) {}

  GuardedPoolContext(const GuardedPoolContext&) = delete;
  GuardedPoolContext& operator=(const GuardedPoolContext&) = delete;

  [[nodiscard]] vm::PhysArena& arena() noexcept { return arena_; }
  [[nodiscard]] alloc::ArenaSource& source() noexcept { return source_; }
  [[nodiscard]] vm::VaFreeList& shadow_freelist() noexcept { return shadow_va_; }
  [[nodiscard]] const GuardConfig& config() const noexcept { return cfg_; }

  // Shadow VA bytes currently recyclable — the §4.3 measurements read this.
  [[nodiscard]] std::size_t recyclable_shadow_bytes() const {
    return shadow_va_.bytes();
  }

 private:
  vm::PhysArena arena_;
  alloc::ArenaSource source_;
  vm::VaFreeList shadow_va_;
  ShadowListLink link_;
  GuardConfig cfg_;
};

class GuardedPool {
 public:
  // poolinit(&PP, elem_size).
  explicit GuardedPool(GuardedPoolContext& ctx, std::size_t elem_size_hint = 0)
      : pool_(ctx.source(), elem_size_hint),
        engine_(ctx.arena(), pool_, ctx.shadow_freelist(), sampled_,
                ctx.config()) {}

  ~GuardedPool() { destroy(); }

  GuardedPool(const GuardedPool&) = delete;
  GuardedPool& operator=(const GuardedPool&) = delete;

  // poolalloc / poolfree.
  [[nodiscard]] void* alloc(std::size_t size, SiteId site = 0) {
    return engine_.malloc(size, site);
  }
  void free(void* p, SiteId site = 0) { engine_.free(p, site); }

  // Guard-elision path for sites the static UAF analysis proved SAFE:
  // canonical pool memory, no shadow alias, no PROT_NONE at free. Lifetime
  // is still bounded by pooldestroy (the canonical extents are recycled),
  // so elided allocations cost exactly what plain pool allocation costs.
  [[nodiscard]] void* alloc_unguarded(std::size_t size, SiteId site = 0) {
    return engine_.malloc_unguarded(size, site);
  }
  void free_unguarded(void* p, SiteId site = 0) {
    engine_.free_unguarded(p, site);
  }

  [[nodiscard]] void* calloc(std::size_t count, std::size_t size,
                             SiteId site = 0) {
    return engine_.calloc(count, size, site);
  }
  [[nodiscard]] void* realloc(void* p, std::size_t new_size, SiteId site = 0) {
    return engine_.realloc(p, new_size, site);
  }
  [[nodiscard]] std::size_t size_of(const void* p) const {
    return engine_.size_of(p);
  }

  // pooldestroy: all shadow spans -> shared VA free list; all canonical
  // extents -> canonical free list. Safe because the caller (compiler or
  // PoolScope discipline) guarantees no pointers into the pool survive.
  void destroy() {
    if (destroyed_) return;
    destroyed_ = true;
    engine_.release_all();
    pool_.destroy();
  }

  [[nodiscard]] GuardStats stats() const { return engine_.stats(); }
  [[nodiscard]] alloc::PoolStats pool_stats() const { return pool_.stats(); }
  [[nodiscard]] ShadowEngine& engine() noexcept { return engine_; }

 private:
  alloc::Pool pool_;
  // The pool's own fast-path ledger: frees route back to the allocating pool.
  SampledTable sampled_;
  ShadowEngine engine_;
  bool destroyed_ = false;
};

// RAII pool lifetime marker, the hand-written equivalent of the compiler's
// poolinit/pooldestroy placement. Workload code creates a PoolScope where the
// Automatic Pool Allocation transformation would create a pool (e.g. per
// server connection); allocations inside the dynamic extent come from the
// innermost scope on the current thread.
class PoolScope {
 public:
  explicit PoolScope(GuardedPoolContext& ctx, std::size_t elem_hint = 0);
  ~PoolScope();

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

  [[nodiscard]] GuardedPool& pool() noexcept { return pool_; }

  // Innermost active scope on this thread, or nullptr outside any scope.
  [[nodiscard]] static PoolScope* current() noexcept;

 private:
  GuardedPool pool_;
  PoolScope* parent_;
};

}  // namespace dpg::core
