// Property-based suites over the guard invariants:
//   I1  every access to a live object succeeds and reads back what was written
//   I2  every access through a freed (still-guarded) pointer traps
//   I3  live objects never overlap
//   I4  physical memory stays bounded by live bytes, not by allocation count
//   I5  pooldestroy makes every span of the pool recyclable
// Driven by seeded random alloc/free/access scripts (TEST_P over seeds).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "test_seed.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

struct LiveObject {
  unsigned char* ptr;
  std::size_t size;
  unsigned char fill;
};

class OneShardHeapProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneShardHeapProperties, RandomScriptMaintainsInvariants) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, {}, 1);
  const std::uint64_t seed = dpg::testing::dpg_test_seed(GetParam());
  DPG_SEED_TRACE(seed);
  workloads::Rng rng(seed);

  std::vector<LiveObject> live;
  std::vector<std::pair<unsigned char*, std::size_t>> freed;
  std::size_t live_bytes = 0;
  std::size_t peak_live_bytes = 0;

  for (int step = 0; step < 2500; ++step) {
    const std::uint64_t action = rng.below(100);
    if (action < 45 || live.empty()) {
      const std::size_t size = 1 + rng.below(2048);
      auto* p = static_cast<unsigned char*>(heap.malloc(size));
      const auto fill = static_cast<unsigned char>(rng.below(255) + 1);
      for (std::size_t i = 0; i < size; i += 64) p[i] = fill;
      p[size - 1] = fill;
      // I3: no overlap with any live object (same shadow page would be the
      // only way, and pages are unique per object).
      for (const LiveObject& other : live) {
        const bool disjoint = p + size <= other.ptr || other.ptr + other.size <= p;
        ASSERT_TRUE(disjoint) << "objects overlap";
      }
      live.push_back(LiveObject{p, size, fill});
      live_bytes += size;
      peak_live_bytes = std::max(peak_live_bytes, live_bytes);
    } else if (action < 75) {
      // I1: read back a live object.
      const LiveObject& obj = live[rng.below(live.size())];
      for (std::size_t i = 0; i < obj.size; i += 64) {
        ASSERT_EQ(obj.ptr[i], obj.fill);
      }
      ASSERT_EQ(obj.ptr[obj.size - 1], obj.fill);
    } else if (action < 90) {
      const std::size_t pick = rng.below(live.size());
      live_bytes -= live[pick].size;
      heap.free(live[pick].ptr);
      if (freed.size() < 200) {
        freed.emplace_back(live[pick].ptr, live[pick].size);
      }
      live[pick] = live.back();
      live.pop_back();
    } else if (!freed.empty()) {
      // I2: every freed pointer traps, at the base and at a random offset.
      const auto [p, size] = freed[rng.below(freed.size())];
      const std::size_t offset = rng.below(size);
      const auto report = catch_dangling([&] {
        volatile unsigned char c = p[offset];
        (void)c;
      });
      ASSERT_TRUE(report.has_value()) << "freed access did not trap";
    }
  }

  // I4: physical bytes bounded by peak live bytes (plus allocator slack),
  // NOT by total allocations (efence would need ~allocations * 4K).
  const std::size_t phys = arena.physical_bytes();
  EXPECT_LT(phys, 4 * peak_live_bytes + (1u << 20));

  for (const LiveObject& obj : live) heap.free(obj.ptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneShardHeapProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class GuardedPoolProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GuardedPoolProperties, PoolLifecycleConservesVa) {
  GuardedPoolContext ctx;
  const std::uint64_t base_seed = dpg::testing::dpg_test_seed(GetParam());
  DPG_SEED_TRACE(base_seed);
  workloads::Rng rng(base_seed);

  // Warm-up round establishes the steady-state footprint.
  auto run_round = [&](std::uint64_t seed) {
    workloads::Rng local(seed);
    GuardedPool pool(ctx);
    std::vector<std::pair<unsigned char*, unsigned char>> live;
    std::size_t spans = 0;
    for (int step = 0; step < 400; ++step) {
      if (local.below(3) != 0 || live.empty()) {
        const std::size_t size = 1 + local.below(3000);
        auto* p = static_cast<unsigned char*>(pool.alloc(size));
        const auto fill = static_cast<unsigned char>(local.below(256));
        p[0] = fill;
        p[size - 1] = fill;
        live.emplace_back(p, fill);
        const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
        spans += rec->span_length;
      } else {
        const std::size_t pick = local.below(live.size());
        EXPECT_EQ(*live[pick].first, live[pick].second);
        pool.free(live[pick].first);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    return spans;
  };

  (void)run_round(GetParam() * 3 + 1);
  const std::size_t phys_after_warm = ctx.arena().physical_bytes();
  const std::size_t shadow_after_warm = ctx.recyclable_shadow_bytes();

  // I5 + steady state: identical rounds must not grow physical memory, and
  // the recyclable shadow bytes must return to the same level each time.
  for (int round = 0; round < 4; ++round) {
    (void)run_round(GetParam() * 3 + 1);
    EXPECT_EQ(ctx.arena().physical_bytes(), phys_after_warm);
    EXPECT_EQ(ctx.recyclable_shadow_bytes(), shadow_after_warm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardedPoolProperties,
                         ::testing::Values(7, 11, 19, 42));

// Seed plus the low end of a 1 GiB base range. The page map splits the
// address at 16 MiB (leaf) and 64 GiB (root entry) boundaries; the spans the
// test plants across every leaf boundary in range cover both.
struct RegistryCase {
  std::uint64_t seed;
  std::uintptr_t range_lo;
};

class RegistryProperties : public ::testing::TestWithParam<RegistryCase> {};

TEST_P(RegistryProperties, LookupAgreesWithReferenceMap) {
  ShadowRegistry reg;
  const std::uint64_t seed = dpg::testing::dpg_test_seed(GetParam().seed);
  DPG_SEED_TRACE(seed);
  const std::uintptr_t lo = GetParam().range_lo;
  constexpr std::uintptr_t kRangePages = std::uintptr_t{1} << 18;
  constexpr std::uintptr_t kLeafSpan = std::uintptr_t{16} << 20;
  workloads::Rng rng(seed);
  std::map<std::uintptr_t, ObjectRecord*> reference;
  std::vector<std::unique_ptr<ObjectRecord>> storage;

  const auto try_insert = [&](std::uintptr_t base, std::size_t pages) {
    for (std::size_t i = 0; i < pages; ++i) {
      if (reference.count(base + i * vm::kPageSize) > 0) return;
    }
    auto rec = std::make_unique<ObjectRecord>();
    rec->shadow_base = base;
    rec->span_length = pages * vm::kPageSize;
    reg.insert(*rec);
    for (std::size_t i = 0; i < pages; ++i) {
      reference[base + i * vm::kPageSize] = rec.get();
    }
    storage.push_back(std::move(rec));
  };
  const auto expect_agrees = [&](std::uintptr_t addr) {
    const auto it = reference.find(vm::page_down(addr));
    const ObjectRecord* expected = it == reference.end() ? nullptr : it->second;
    return reg.lookup(addr) == expected;
  };

  // Multi-page spans straddling every leaf boundary in range.
  std::vector<std::uintptr_t> edges;
  for (std::uintptr_t edge = (lo + kLeafSpan - 1) & ~(kLeafSpan - 1);
       edge < lo + kRangePages * vm::kPageSize; edge += kLeafSpan) {
    edges.push_back(edge);
    try_insert(edge - (1 + rng.below(3)) * vm::kPageSize, 2 + rng.below(4));
  }

  for (int step = 0; step < 3000; ++step) {
    if (rng.below(3) != 0 || reference.empty()) {
      try_insert(lo + rng.below(kRangePages) * vm::kPageSize, 1 + rng.below(4));
    } else {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.below(reference.size())));
      ObjectRecord* rec = it->second;
      reg.erase(*rec);
      for (std::uintptr_t page = rec->shadow_base;
           page < rec->shadow_base + rec->span_length; page += vm::kPageSize) {
        reference.erase(page);
      }
    }
    // Spot-check agreement on random addresses and around a boundary.
    for (int probe = 0; probe < 4; ++probe) {
      ASSERT_TRUE(expect_agrees(lo + rng.below(kRangePages) * vm::kPageSize +
                                rng.below(4096)));
    }
    const std::uintptr_t edge = edges[rng.below(edges.size())];
    for (std::uintptr_t addr = edge - 4 * vm::kPageSize;
         addr < edge + 4 * vm::kPageSize; addr += vm::kPageSize / 2) {
      ASSERT_TRUE(expect_agrees(addr)) << std::hex << addr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RegistryProperties,
    ::testing::Values(RegistryCase{101, 0x7300000000},
                      RegistryCase{202, 0x7300000000},
                      RegistryCase{303, 0x7300000000},
                      // Straddles the 64 GiB root-entry boundary at
                      // 0x7000000000.
                      RegistryCase{404, 0x7000000000 - (std::uintptr_t{1} << 29)}));

}  // namespace
}  // namespace dpg::core
