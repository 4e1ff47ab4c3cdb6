// Tests for pool-integrated guarding: VA recycling at pooldestroy (§3.3),
// PoolScope discipline, and the shared free list across pools.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

TEST(GuardedPool, AllocFreeDetectLifecycle) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 32);
  auto* p = static_cast<char*>(pool.alloc(32, 1));
  std::strcpy(p, "pooled");
  EXPECT_STREQ(p, "pooled");
  pool.free(p, 2);
  const auto report = catch_dangling([&] {
    volatile char c = p[0];
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->alloc_site, 1u);
  EXPECT_EQ(report->free_site, 2u);
}

TEST(GuardedPool, DestroyReleasesShadowAndCanonicalPages) {
  GuardedPoolContext ctx;
  const std::size_t shadow_before = ctx.recyclable_shadow_bytes();
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 50; ++i) (void)pool.alloc(16);
    // Nothing recyclable while the pool lives.
    EXPECT_EQ(ctx.recyclable_shadow_bytes(), shadow_before);
  }
  // 50 shadow pages + canonical extents released.
  EXPECT_GE(ctx.recyclable_shadow_bytes(), shadow_before + 50 * vm::kPageSize);
}

TEST(GuardedPool, NextPoolReusesReleasedVirtualPages) {
  GuardedPoolContext ctx;
  std::set<std::uintptr_t> first_pages;
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 20; ++i) {
      first_pages.insert(vm::page_down(vm::addr(pool.alloc(16))));
    }
  }
  std::size_t reused = 0;
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 20; ++i) {
      if (first_pages.count(vm::page_down(vm::addr(pool.alloc(16)))) > 0) {
        reused++;
      }
    }
    EXPECT_GT(pool.stats().shadow_pages_reused, 0u);
  }
  EXPECT_GT(reused, 0u);
}

TEST(GuardedPool, RepeatedPoolsDoNotGrowVaOrPhysical) {
  // The paper's f() example: "all the virtual pages of the pool will be
  // released to the free list and reused for future allocations (in future
  // invocations of f() or elsewhere)".
  GuardedPoolContext ctx;
  auto one_round = [&ctx] {
    GuardedPool pool(ctx, 24);
    std::vector<void*> ptrs;
    for (int i = 0; i < 100; ++i) ptrs.push_back(pool.alloc(24));
    for (void* p : ptrs) pool.free(p);
  };
  for (int warm = 0; warm < 3; ++warm) one_round();
  const std::size_t phys = ctx.arena().physical_bytes();
  const std::size_t shadow = ctx.recyclable_shadow_bytes();
  std::uint64_t mapped_before = 0;
  {
    GuardedPool probe(ctx);
    mapped_before = probe.stats().shadow_pages_mapped;
  }
  for (int round = 0; round < 20; ++round) one_round();
  EXPECT_EQ(ctx.arena().physical_bytes(), phys);
  EXPECT_EQ(ctx.recyclable_shadow_bytes(), shadow);
  (void)mapped_before;
}

TEST(GuardedPool, DestroyWithLiveObjectsReleasesThem) {
  GuardedPoolContext ctx;
  char* leaked = nullptr;
  {
    GuardedPool pool(ctx);
    leaked = static_cast<char*>(pool.alloc(64));
    std::strcpy(leaked, "leak");
    // No free: pooldestroy reclaims implicitly (the pool-allocation
    // semantics: memory lives exactly as long as its pool).
  }
  // The record is gone from the registry: the page may be reused.
  EXPECT_EQ(ShadowRegistry::global().lookup(vm::addr(leaked)), nullptr);
}

TEST(GuardedPool, DestroyIsIdempotent) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx);
  (void)pool.alloc(8);
  pool.destroy();
  EXPECT_NO_THROW(pool.destroy());
}

TEST(GuardedPool, TwoLivePoolsAreIndependent) {
  GuardedPoolContext ctx;
  GuardedPool a(ctx, 16);
  GuardedPool b(ctx, 16);
  auto* pa = static_cast<char*>(a.alloc(16));
  auto* pb = static_cast<char*>(b.alloc(16));
  a.free(pa);
  // b's object is unaffected by a's free and by a's destruction.
  std::strcpy(pb, "alive");
  a.destroy();
  EXPECT_STREQ(pb, "alive");
  b.free(pb);
}

TEST(GuardedPool, FreeThroughAnotherPoolIsInvalid) {
  // Each pool owns its engine, and only the allocating engine may admit an
  // object's free: a sibling pool taking it in would link the object's owner
  // into its own release order and later hand the canonical block to its
  // own Pool.
  GuardedPoolContext ctx;
  GuardedPool a(ctx);
  GuardedPool b(ctx);
  auto* p = static_cast<char*>(a.alloc(64, 1));
  const auto report = catch_dangling([&] { b.free(p, 2); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(report->fault_address, vm::addr(p));
  EXPECT_EQ(a.stats().frees, 0u);
  EXPECT_EQ(b.stats().frees, 0u);
  EXPECT_EQ(b.stats().invalid_frees, 1u);
  // The object stays a's, live and freeable by a.
  std::strcpy(p, "still a's");
  EXPECT_STREQ(p, "still a's");
  a.free(p, 3);
  EXPECT_EQ(a.stats().frees, 1u);
  EXPECT_EQ(b.stats().revoked_spans, 0u);
}

TEST(GuardedPool, DanglingAcrossPoolFreeDetectedBeforeDestroy) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx);
  auto* p = static_cast<char*>(pool.alloc(40));
  pool.free(p);
  // Detected "arbitrarily far in the future" — as long as the pool lives.
  for (int i = 0; i < 3; ++i) {
    const auto report = catch_dangling([&] {
      volatile char c = p[1];
      (void)c;
    });
    EXPECT_TRUE(report.has_value());
  }
}

TEST(PoolScopeTest, CurrentTracksInnermost) {
  GuardedPoolContext ctx;
  EXPECT_EQ(PoolScope::current(), nullptr);
  {
    PoolScope outer(ctx);
    EXPECT_EQ(PoolScope::current(), &outer);
    {
      PoolScope inner(ctx);
      EXPECT_EQ(PoolScope::current(), &inner);
    }
    EXPECT_EQ(PoolScope::current(), &outer);
  }
  EXPECT_EQ(PoolScope::current(), nullptr);
}

TEST(PoolScopeTest, ScopeExitRecyclesPages) {
  GuardedPoolContext ctx;
  const std::size_t before = ctx.recyclable_shadow_bytes();
  {
    PoolScope scope(ctx);
    (void)scope.pool().alloc(16);
  }
  EXPECT_GT(ctx.recyclable_shadow_bytes(), before);
}

TEST(GuardedPool, StatsAggregateAcrossLifecycle) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 32);
  void* a = pool.alloc(32);
  void* b = pool.alloc(32);
  pool.free(a);
  const GuardStats stats = pool.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.frees, 1u);
  EXPECT_EQ(stats.live_records, 2u);  // freed object still guarded
  (void)b;
}

TEST(GuardedPool, ElemHintPacksCanonicalExtents) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 64);
  for (int i = 0; i < 100; ++i) (void)pool.alloc(64);
  EXPECT_EQ(pool.pool_stats().allocations, 100u);
  EXPECT_EQ(pool.pool_stats().live_objects, 100u);
}

// Parameterized: pooldestroy must fully recycle for any object size,
// including page-spanning ones.
class PoolRecycleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolRecycleSweep, AllSpansRecycledOnDestroy) {
  GuardedPoolContext ctx;
  const std::size_t size = GetParam();
  const std::size_t before = ctx.recyclable_shadow_bytes();
  std::size_t expected_span_bytes = 0;
  {
    GuardedPool pool(ctx);
    for (int i = 0; i < 10; ++i) {
      void* p = pool.alloc(size);
      const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
      ASSERT_NE(rec, nullptr);
      expected_span_bytes += rec->span_length;
    }
  }
  EXPECT_GE(ctx.recyclable_shadow_bytes(), before + expected_span_bytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolRecycleSweep,
                         ::testing::Values(1, 16, 100, 4000, 4096, 5000,
                                           3 * dpg::vm::kPageSize));

}  // namespace
}  // namespace dpg::core
