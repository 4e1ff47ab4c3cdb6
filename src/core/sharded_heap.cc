#include "core/sharded_heap.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/registry.h"

namespace dpg::core {

namespace {

std::size_t default_shards() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

}  // namespace

ShardedHeap::ShardedHeap(vm::PhysArena& arena, GuardConfig cfg,
                         std::size_t shards)
    : source_(arena), heap_(source_), link_(arena, shadow_va_, cfg.governor) {
  const std::size_t n =
      std::clamp<std::size_t>(shards == 0 ? default_shards() : shards, 1,
                              kMaxShards);
  // All shards share the governor: if the caller didn't pin one, resolve the
  // process governor once here rather than letting each engine default to it
  // independently (same object either way; this makes the sharing explicit).
  if (cfg.governor == nullptr) cfg.governor = &DegradationGovernor::process();
  // freed_va_budget bounds what ONE engine may hold in revoked-but-unreleased
  // spans; the kernel's vm.max_map_count is a per-process limit, so split the
  // caller's bound across shards — otherwise N shards hold N× the configured
  // VA and a wide heap walks the process straight into mprotect ENOMEM. The
  // 1 MiB floor keeps a tiny split from releasing on every free; detection
  // of the newest free does not rest on it (each engine keeps the owner of
  // its newest revocation at any budget). One shard keeps the caller's
  // bound.
  if (cfg.freed_va_budget != 0 && n > 1) {
    cfg.freed_va_budget = std::max<std::size_t>(cfg.freed_va_budget / n,
                                                std::size_t{1} << 20);
  }
  engines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engines_.push_back(std::make_unique<ShadowEngine>(arena, heap_, shadow_va_,
                                                      sampled_, cfg));
    engines_.back()->set_shard_id(static_cast<std::uint32_t>(i));
  }
}

std::uint32_t ShardedHeap::home_shard() const noexcept {
  if (engines_.size() == 1) return 0;
  // Round-robin thread pinning: the token is assigned on a thread's first
  // allocation and never changes, so a thread's allocations all carry the
  // same owning engine and its same-thread frees take the uncontended path.
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token % static_cast<std::uint32_t>(engines_.size());
}

void* ShardedHeap::malloc(std::size_t size, SiteId site) {
  return engines_[home_shard()]->malloc(size, site);
}

void* ShardedHeap::calloc(std::size_t count, std::size_t size, SiteId site) {
  return engines_[home_shard()]->calloc(count, size, site);
}

void ShardedHeap::free(void* p, SiteId site) {
  if (p == nullptr) return;
  ShadowEngine& home = home_engine();
  ShadowEngine* owner =
      owner_of(ShadowRegistry::global().lookup(vm::addr(p)));
  if (owner == nullptr || owner == &home) {
    // Same-shard free, or a fast-path pointer (any shard's: the underlying
    // heap and the ledger are shared), or a pointer no shard of this heap
    // allocated: the home engine owns that disposition.
    home.free(p, site);
  } else {
    // Cross-thread free: exact kLive->kFreed transition at this call site
    // (double frees trap immediately), revocation queued to the owner.
    owner->free_remote(p, site);
  }
}

void* ShardedHeap::realloc(void* p, std::size_t new_size, SiteId site) {
  if (p == nullptr) return malloc(new_size, site);
  // Route the whole realloc to the owner so the old record's free takes the
  // ordinary locked path (the replacement lands on the owner shard too —
  // acceptable: realloc implies the object migrates ownership rarely).
  ShadowEngine* owner =
      owner_of(ShadowRegistry::global().lookup(vm::addr(p)));
  return (owner != nullptr ? *owner : home_engine()).realloc(p, new_size,
                                                             site);
}

bool ShardedHeap::revocation_applied(const void* p) const {
  const ShadowEngine* owner = owner_of(record_of(p));
  return owner != nullptr && owner->revocation_applied(p);
}

ShadowEngine* ShardedHeap::owner_of(const ObjectRecord* rec) const noexcept {
  if (rec == nullptr) return nullptr;
  const std::uint32_t i = rec->engine->shard_id();
  return i < engines_.size() && engines_[i].get() == rec->engine
             ? rec->engine
             : nullptr;
}

std::size_t ShardedHeap::size_of(const void* p) const {
  // The registry is global, so any engine resolves any guarded pointer.
  return engines_[0]->size_of(p);
}

GuardStats ShardedHeap::stats() const {
  GuardStats total;
  for (const auto& e : engines_) total += e->stats();
  return total;
}

void ShardedHeap::flush_all() {
  // Draining a shard never queues work onto another shard (revocation is
  // shard-local), so one pass leaves every queue empty — provided no other
  // thread is concurrently freeing, which is the caller's contract for
  // "every free issued so far".
  for (auto& e : engines_) e->flush_protections();
}

}  // namespace dpg::core
