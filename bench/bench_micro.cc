// Micro/ablation benchmarks (google-benchmark): the cost anatomy behind
// Tables 1 & 3 — per-operation allocator costs, the arena alias against the
// paper's mremap(old_size = 0) trick, the syscall components, registry
// operations, per-access software-check costs, and the TLB penalty of
// scattering objects across shadow pages.
#include <benchmark/benchmark.h>
#include <sys/mman.h>

#include <cstdlib>
#include <vector>

#include "alloc/heap.h"
#include "alloc/pool.h"
#include "baseline/capability.h"
#include "baseline/efence.h"
#include "baseline/memcheck.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "vm/sys.h"

using namespace dpg;

// --- allocator alloc/free pairs ---------------------------------------------

static void BM_Alloc_Native(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = std::malloc(size);
    benchmark::DoNotOptimize(p);
    std::free(p);
  }
}
BENCHMARK(BM_Alloc_Native)->Arg(16)->Arg(256)->Arg(4096);

static void BM_Alloc_SegregatedHeap(benchmark::State& state) {
  static vm::PhysArena arena(std::size_t{1} << 30);
  static alloc::ArenaSource source(arena);
  static alloc::SegregatedHeap heap(source);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = heap.malloc(size);
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_Alloc_SegregatedHeap)->Arg(16)->Arg(256)->Arg(4096);

static void BM_Alloc_Pool(benchmark::State& state) {
  static vm::PhysArena arena(std::size_t{1} << 30);
  static alloc::ArenaSource source(arena);
  static alloc::Pool pool(source, 0);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pool.malloc(size);
    benchmark::DoNotOptimize(p);
    pool.free(p);
  }
}
BENCHMARK(BM_Alloc_Pool)->Arg(16)->Arg(256);

static void BM_Alloc_Guarded(benchmark::State& state) {
  // The headline cost: underlying alloc + shadow mmap + (on free) mprotect.
  static vm::PhysArena arena(std::size_t{1} << 33);
  static core::ShardedHeap heap(arena, {.freed_va_budget = 1u << 24}, 1);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = heap.malloc(size);
    benchmark::DoNotOptimize(p);
    heap.free(p);
  }
}
BENCHMARK(BM_Alloc_Guarded)->Arg(16)->Arg(256)->Arg(4096);

static void BM_Alloc_GuardedPool(benchmark::State& state) {
  static core::GuardedPoolContext ctx;
  static core::GuardedPool pool(ctx);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pool.alloc(size);
    benchmark::DoNotOptimize(p);
    pool.free(p);
  }
}
BENCHMARK(BM_Alloc_GuardedPool)->Arg(16)->Arg(256);

static void BM_Alloc_Efence(benchmark::State& state) {
  // One object per virtual AND physical page; pages never reused.
  baseline::EfenceAllocator ef;
  for (auto _ : state) {
    void* p = ef.malloc(16);
    benchmark::DoNotOptimize(p);
    ef.free(p);
  }
}
BENCHMARK(BM_Alloc_Efence)->Iterations(20000);

static void BM_Alloc_Capability(benchmark::State& state) {
  for (auto _ : state) {
    const auto a = baseline::CapAllocator::allocate(16);
    benchmark::DoNotOptimize(a.payload);
    baseline::CapAllocator::deallocate(a.payload);
  }
}
BENCHMARK(BM_Alloc_Capability);

static void BM_Alloc_Memcheck(benchmark::State& state) {
  auto& ctx = baseline::MemcheckContext::global();
  for (auto _ : state) {
    void* p = ctx.allocate(16);
    benchmark::DoNotOptimize(p);
    ctx.deallocate(p);
  }
}
BENCHMARK(BM_Alloc_Memcheck);

// --- the aliasing and protection primitives ---------------------------------

static void BM_Alias_Memfd(benchmark::State& state) {
  vm::PhysArena arena(std::size_t{1} << 28);
  void* canonical = arena.extend(vm::kPageSize);
  for (auto _ : state) {
    void* shadow = arena.map_shadow(canonical, vm::kPageSize);
    benchmark::DoNotOptimize(shadow);
    arena.unmap(shadow, vm::kPageSize);
  }
}
BENCHMARK(BM_Alias_Memfd);

static void BM_Alias_Mremap(benchmark::State& state) {
  // The paper's alias: mremap(old_size = 0) duplicates the canonical view.
  vm::PhysArena arena(std::size_t{1} << 28);
  void* canonical = arena.extend(vm::kPageSize);
  for (auto _ : state) {
    const vm::sys::MapResult shadow =
        vm::sys::remap_dup(canonical, vm::kPageSize);
    if (!shadow.ok()) {
      state.SkipWithError("kernel refuses mremap(old_size = 0) duplication");
      return;
    }
    benchmark::DoNotOptimize(shadow.ptr);
    arena.unmap(shadow.ptr, vm::kPageSize);
  }
}
BENCHMARK(BM_Alias_Mremap);

static void BM_Alias_FixedReuse(benchmark::State& state) {
  // The §3.3 fast path: MAP_FIXED over a recycled shadow address.
  vm::PhysArena arena(std::size_t{1} << 28);
  void* canonical = arena.extend(vm::kPageSize);
  void* slot = arena.map_shadow(canonical, vm::kPageSize);
  for (auto _ : state) {
    slot = arena.map_shadow(canonical, vm::kPageSize, slot);
    benchmark::DoNotOptimize(slot);
  }
  arena.unmap(slot, vm::kPageSize);
}
BENCHMARK(BM_Alias_FixedReuse);

static void BM_MprotectToggle(benchmark::State& state) {
  vm::PhysArena arena(std::size_t{1} << 28);
  void* page = arena.extend(vm::kPageSize);
  for (auto _ : state) {
    vm::PhysArena::protect_none(page, vm::kPageSize);
    vm::PhysArena::protect_rw(page, vm::kPageSize);
  }
}
BENCHMARK(BM_MprotectToggle);

// --- registry ---------------------------------------------------------------

static void BM_Registry_InsertErase(benchmark::State& state) {
  core::ShadowRegistry reg;
  core::ObjectRecord rec;
  rec.shadow_base = 0x7400000000;
  rec.span_length = vm::kPageSize;
  for (auto _ : state) {
    reg.insert(rec);
    reg.erase(rec);
  }
}
BENCHMARK(BM_Registry_InsertErase);

static void BM_Registry_Lookup(benchmark::State& state) {
  core::ShadowRegistry reg;
  std::vector<std::unique_ptr<core::ObjectRecord>> records;
  for (int i = 0; i < 1024; ++i) {
    auto rec = std::make_unique<core::ObjectRecord>();
    rec->shadow_base = 0x7500000000 + static_cast<std::uintptr_t>(i) * vm::kPageSize;
    rec->span_length = vm::kPageSize;
    reg.insert(*rec);
    records.push_back(std::move(rec));
  }
  std::uintptr_t addr = 0x7500000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.lookup(addr));
    addr += vm::kPageSize;
    if (addr >= 0x7500000000 + 1024 * vm::kPageSize) addr = 0x7500000000;
  }
  for (auto& rec : records) reg.erase(*rec);
}
BENCHMARK(BM_Registry_Lookup);

// --- per-access software check costs (what MMU checking avoids) -------------

static void BM_Check_Capability(benchmark::State& state) {
  auto p = baseline::CapAllocator::alloc_array<std::uint64_t>(8);
  p[0] = 1;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sum += *p;  // one capability-store probe per access
  }
  benchmark::DoNotOptimize(sum);
  baseline::CapAllocator::deallocate(p.raw());
}
BENCHMARK(BM_Check_Capability);

static void BM_Check_Memcheck(benchmark::State& state) {
  auto& ctx = baseline::MemcheckContext::global();
  baseline::mc_ptr<std::uint64_t> p(
      static_cast<std::uint64_t*>(ctx.allocate(64)));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sum += *p;  // one bitmap probe per access
  }
  benchmark::DoNotOptimize(sum);
  ctx.deallocate(p.raw());
}
BENCHMARK(BM_Check_Memcheck);

static void BM_Check_MmuFree(benchmark::State& state) {
  // The dpguard story: accesses through shadow pages are plain loads.
  static vm::PhysArena arena(std::size_t{1} << 28);
  static core::ShardedHeap heap(arena, {}, 1);
  auto* p = static_cast<std::uint64_t*>(heap.malloc(64));
  *p = 1;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    sum += *p;
  }
  benchmark::DoNotOptimize(sum);
  heap.free(p);
}
BENCHMARK(BM_Check_MmuFree);

// --- TLB ablation ------------------------------------------------------------

// The paper: "since each allocation has a new virtual page, our approach has
// more TLB misses than the original program". Same physical data, accessed
// through per-object shadow pages (scattered) vs canonical addresses (dense).
static void BM_Tlb_ShadowScattered(benchmark::State& state) {
  static vm::PhysArena arena(std::size_t{1} << 33);
  static core::ShardedHeap heap(arena, {}, 1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  static std::vector<std::uint64_t*> shadow;
  if (shadow.size() != n) {
    for (std::uint64_t* p : shadow) heap.free(p);
    shadow.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto* p = static_cast<std::uint64_t*>(heap.malloc(16));
      *p = i;
      shadow.push_back(p);
    }
  }
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t* p : shadow) sum += *p;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Tlb_ShadowScattered)->Arg(1024)->Arg(8192)->Arg(32768);

static void BM_Tlb_CanonicalDense(benchmark::State& state) {
  static vm::PhysArena arena(std::size_t{1} << 33);
  static core::ShardedHeap heap(arena, {}, 1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  static std::vector<std::uint64_t*> canon;
  static std::vector<std::uint64_t*> owned;
  if (canon.size() != n) {
    for (std::uint64_t* p : owned) heap.free(p);
    canon.clear();
    owned.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto* p = static_cast<std::uint64_t*>(heap.malloc(16));
      *p = i;
      owned.push_back(p);
      // The canonical address lives in the guard header word: same physical
      // memory, densely packed virtual pages.
      const std::uintptr_t canonical = *reinterpret_cast<std::uintptr_t*>(
          reinterpret_cast<char*>(p) - core::ShadowEngine::kGuardHeader);
      canon.push_back(reinterpret_cast<std::uint64_t*>(
          canonical + core::ShadowEngine::kGuardHeader));
    }
  }
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t* p : canon) sum += *p;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Tlb_CanonicalDense)->Arg(1024)->Arg(8192)->Arg(32768);

BENCHMARK_MAIN();
