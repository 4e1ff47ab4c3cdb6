#include "core/runtime.h"

#include <iterator>

#include "obs/metrics.h"

namespace dpg::core {

Runtime& Runtime::instance(const RuntimeConfig& cfg) {
  // Leaked intentionally: the fault handler and any late frees must keep
  // working during static destruction.
  static Runtime* rt = [&cfg] {
    auto* r = new Runtime(cfg);
    r->export_counters();
    return r;
  }();
  return *rt;
}

namespace {

// Dump-time shard rollup for one GuardCounters field. Runs on every exporter
// path including the SIGUSR1 handler: relaxed loads and adds only.
struct ShardSumCtx {
  const ShardedHeap* heap;
  std::atomic<std::uint64_t> GuardCounters::* field;
};

std::uint64_t sum_shards(const void* ctx) noexcept {
  const auto* c = static_cast<const ShardSumCtx*>(ctx);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < c->heap->shards(); ++i) {
    total += (c->heap->engine(i).counters().*(c->field))
                 .load(std::memory_order_relaxed);
  }
  return total;
}

struct NamedField {
  const char* name;
  std::atomic<std::uint64_t> GuardCounters::* field;
};

constexpr NamedField kExported[] = {
    {"dpg_allocations", &GuardCounters::allocations},
    {"dpg_frees", &GuardCounters::frees},
    {"dpg_shadow_pages_mapped", &GuardCounters::shadow_pages_mapped},
    {"dpg_shadow_pages_reused", &GuardCounters::shadow_pages_reused},
    {"dpg_shadow_restores", &GuardCounters::shadow_restores},
    {"dpg_va_reclaimed_pages", &GuardCounters::va_reclaimed_pages},
    {"dpg_double_frees", &GuardCounters::double_frees},
    {"dpg_invalid_frees", &GuardCounters::invalid_frees},
    {"dpg_protect_calls", &GuardCounters::protect_calls},
    {"dpg_protect_calls_saved", &GuardCounters::protect_calls_saved},
    {"dpg_guards_elided", &GuardCounters::guards_elided},
    {"dpg_heap_degraded_allocs", &GuardCounters::degraded_allocs},
    {"dpg_sampled_allocs", &GuardCounters::sampled_allocs},
    {"dpg_sampled_frees", &GuardCounters::sampled_frees},
    {"dpg_guard_failures", &GuardCounters::guard_failures},
    {"dpg_magazine_maps", &GuardCounters::magazine_maps},
    {"dpg_magazine_hits", &GuardCounters::magazine_hits},
    {"dpg_magazine_slots_recycled", &GuardCounters::magazine_slots_recycled},
    {"dpg_revoke_batches", &GuardCounters::revoke_batches},
    {"dpg_revoke_coalesced_pages", &GuardCounters::revoke_coalesced_pages},
    {"dpg_revoked_spans", &GuardCounters::revoked_spans},
    {"dpg_remote_frees", &GuardCounters::remote_frees},
    {"dpg_live_records", &GuardCounters::live_records},
    {"dpg_guarded_bytes", &GuardCounters::guarded_bytes},
};

}  // namespace

void Runtime::export_counters() noexcept {
  // The ctx array is immortal alongside the Runtime singleton; the exporter
  // keeps raw pointers into it.
  static ShardSumCtx ctxs[std::size(kExported)];
  for (std::size_t i = 0; i < std::size(kExported); ++i) {
    ctxs[i] = ShardSumCtx{&heap_, kExported[i].field};
    obs::register_counter_fn(kExported[i].name, &sum_shards, &ctxs[i]);
  }
  // Revoked canonical bytes waiting out the reuse distance (DESIGN.md §11).
  static ShardSumCtx reuse_delay{&heap_, &GuardCounters::reuse_delay_bytes};
  obs::register_gauge_fn("dpg_reuse_delay_bytes", &sum_shards, &reuse_delay);
  // The process governor registers the dpg_degrade_* family on first use;
  // touching it here guarantees those counters exist in every export even if
  // no degradation ever occurs.
  (void)DegradationGovernor::process();
}

void* dpg_malloc(std::size_t size) { return Runtime::instance().heap().malloc(size); }

void dpg_free(void* p) { Runtime::instance().heap().free(p); }

void* dpg_calloc(std::size_t count, std::size_t size) {
  return Runtime::instance().heap().calloc(count, size);
}

void* dpg_realloc(void* p, std::size_t new_size) {
  return Runtime::instance().heap().realloc(p, new_size);
}

}  // namespace dpg::core
