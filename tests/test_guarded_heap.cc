// Tests for the core contribution: ShadowEngine behind a one-shard
// ShardedHeap (Section 3.2).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/fault_manager.h"
#include "core/sharded_heap.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

class OneShardHeapTest : public ::testing::Test {
 protected:
  vm::PhysArena arena_{1u << 28};
  ShardedHeap heap_{arena_, {}, 1};
};

TEST_F(OneShardHeapTest, AllocatedMemoryIsUsable) {
  auto* p = static_cast<char*>(heap_.malloc(100));
  ASSERT_NE(p, nullptr);
  std::memset(p, 'x', 100);
  EXPECT_EQ(p[99], 'x');
  EXPECT_EQ(heap_.size_of(p), 100u);
  heap_.free(p);
}

TEST_F(OneShardHeapTest, EachAllocationGetsItsOwnShadowPage) {
  auto* a = static_cast<char*>(heap_.malloc(16));
  auto* b = static_cast<char*>(heap_.malloc(16));
  EXPECT_NE(vm::page_down(vm::addr(a)), vm::page_down(vm::addr(b)));
  heap_.free(a);
  heap_.free(b);
}

TEST_F(OneShardHeapTest, ObjectsShareUnderlyingPhysicalPages) {
  // Many small objects; physical bytes stay near what a plain allocator
  // would use, far below one page per object (the anti-Electric-Fence claim).
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) ptrs.push_back(heap_.malloc(16));
  const std::size_t phys = arena_.physical_bytes();
  // 1000 x (16+8) bytes plus allocator overhead: well under 100 pages
  // (Electric Fence would need 1000 pages).
  EXPECT_LT(phys, 100 * vm::kPageSize);
  for (void* p : ptrs) heap_.free(p);
}

TEST_F(OneShardHeapTest, HeaderWordRecordsCanonicalAddress) {
  auto* p = static_cast<char*>(heap_.malloc(32));
  const std::uintptr_t canonical =
      *reinterpret_cast<std::uintptr_t*>(p - ShadowEngine::kGuardHeader);
  EXPECT_TRUE(arena_.contains_canonical(reinterpret_cast<void*>(canonical)));
  // Same offset within the page (Section 3.2's layout guarantee).
  EXPECT_EQ(vm::page_offset(canonical),
            vm::page_offset(vm::addr(p) - ShadowEngine::kGuardHeader));
  heap_.free(p);
}

TEST_F(OneShardHeapTest, DanglingReadIsDetected) {
  auto* p = static_cast<volatile char*>(heap_.malloc(24));
  p[0] = 'a';
  heap_.free(const_cast<char*>(p), /*site=*/7);
  const auto report = catch_dangling([&] { (void)p[0]; });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kRead);
  EXPECT_EQ(report->fault_address, vm::addr(const_cast<char*>(p)));
  EXPECT_EQ(report->free_site, 7u);
  EXPECT_EQ(report->object_size, 24u);
}

TEST_F(OneShardHeapTest, DanglingWriteIsDetectedAndClassified) {
  auto* p = static_cast<char*>(heap_.malloc(24));
  heap_.free(p);
  const auto report = catch_dangling([&] { p[3] = 'w'; });
  ASSERT_TRUE(report.has_value());
#if defined(__x86_64__)
  EXPECT_EQ(report->kind, AccessKind::kWrite);
#endif
  EXPECT_EQ(report->fault_address, vm::addr(p) + 3);
}

TEST_F(OneShardHeapTest, InteriorDanglingAccessDetected) {
  auto* p = static_cast<char*>(heap_.malloc(2000));
  heap_.free(p);
  const auto report = catch_dangling([&] {
    volatile char c = p[1999];
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->object_base, vm::addr(p));
}

TEST_F(OneShardHeapTest, MultiPageObjectFullyProtected) {
  auto* p = static_cast<char*>(heap_.malloc(3 * vm::kPageSize));
  p[2 * vm::kPageSize] = 'm';
  heap_.free(p);
  for (std::size_t offset :
       {std::size_t{0}, vm::kPageSize + 5, 3 * vm::kPageSize - 1}) {
    const auto report = catch_dangling([&] {
      volatile char c = p[offset];
      (void)c;
    });
    EXPECT_TRUE(report.has_value()) << "offset " << offset;
  }
}

TEST_F(OneShardHeapTest, DoubleFreeIsDetected) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  heap_.free(p, 11);
  const auto report = catch_dangling([&] { heap_.free(p, 12); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
  EXPECT_EQ(report->free_site, 11u);  // reports the original free
  EXPECT_EQ(heap_.stats().double_frees, 1u);
}

TEST_F(OneShardHeapTest, InvalidFreeIsDetected) {
  int local = 0;
  const auto report = catch_dangling([&] { heap_.free(&local); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(heap_.stats().invalid_frees, 1u);
}

TEST_F(OneShardHeapTest, InteriorFreeIsInvalid) {
  auto* p = static_cast<char*>(heap_.malloc(64));
  const auto report = catch_dangling([&] { heap_.free(p + 8); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  heap_.free(p);  // the real pointer still frees fine
}

TEST_F(OneShardHeapTest, FreeNullIsNoop) {
  EXPECT_NO_THROW(heap_.free(nullptr));
}

TEST_F(OneShardHeapTest, PhysicalMemoryIsReusedAfterFree) {
  auto* p = static_cast<char*>(heap_.malloc(64));
  std::strcpy(p, "first");
  heap_.free(p);
  // The canonical block is recycled: a same-size allocation reuses the
  // physical memory through a *different* shadow page.
  auto* q = static_cast<char*>(heap_.malloc(64));
  EXPECT_NE(vm::page_down(vm::addr(q)), vm::page_down(vm::addr(p)));
  std::strcpy(q, "second");
  EXPECT_STREQ(q, "second");
  heap_.free(q);
}

TEST_F(OneShardHeapTest, DetectionSurvivesPhysicalReuse) {
  // The crucial temporal property: after the physical memory is recycled
  // into a new object, the OLD pointer still traps.
  auto* p = static_cast<char*>(heap_.malloc(64));
  heap_.free(p);
  auto* q = static_cast<char*>(heap_.malloc(64));
  std::strcpy(q, "fresh");
  const auto report = catch_dangling([&] {
    volatile char c = p[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  EXPECT_STREQ(q, "fresh");
  heap_.free(q);
}

TEST_F(OneShardHeapTest, StatsTrackShadowPages) {
  const GuardStats before = heap_.stats();
  auto* p = static_cast<char*>(heap_.malloc(16));
  const GuardStats mid = heap_.stats();
  EXPECT_EQ(mid.allocations, before.allocations + 1);
  EXPECT_GE(mid.shadow_pages_mapped + mid.shadow_pages_reused,
            before.shadow_pages_mapped + before.shadow_pages_reused + 1);
  heap_.free(p);
  EXPECT_EQ(heap_.stats().frees, before.frees + 1);
}

TEST_F(OneShardHeapTest, SizeOfFreedObjectIsZero) {
  auto* p = static_cast<char*>(heap_.malloc(33));
  EXPECT_EQ(heap_.size_of(p), 33u);
  heap_.free(p);
  // Freed: the registry still knows it, but size_of via lookup reports the
  // recorded size; a dangling *free* would be flagged. Contract: size_of on
  // a freed pointer returns the stored size (record retained for detection).
  EXPECT_EQ(heap_.size_of(p), 33u);
}

TEST_F(OneShardHeapTest, ZeroByteAllocationStillGuarded) {
  auto* p = static_cast<char*>(heap_.malloc(0));
  heap_.free(p);
  const auto report = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(OneShardHeapBatching, ProtectCallsPlusSavedEqualsFrees) {
  // With batching, merged mprotect calls are counted in protect_calls and
  // every merge that elided a call in protect_calls_saved — together they
  // must account for every free, so the batching books always balance.
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.protect_batch = 8;
  ShardedHeap heap(arena, cfg, 1);
  constexpr int kFrees = 100;  // not a multiple of the batch: tests the tail
  std::vector<void*> ptrs;
  for (int i = 0; i < kFrees; ++i) ptrs.push_back(heap.malloc(32));
  for (void* p : ptrs) heap.free(p);
  heap.engine(0).flush_protections();
  const GuardStats stats = heap.stats();
  EXPECT_EQ(stats.frees, static_cast<std::uint64_t>(kFrees));
  EXPECT_EQ(stats.protect_calls + stats.protect_calls_saved, stats.frees);
  // Batching must actually merge something at batch size 8.
  EXPECT_GT(stats.protect_calls_saved, 0u);
  EXPECT_LT(stats.protect_calls, stats.frees);
}

TEST(OneShardHeapBudget, FreedVaBudgetTriggersReclamation) {
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.freed_va_budget = 64 * vm::kPageSize;
  ShardedHeap heap(arena, cfg, 1);
  // Free far more than the budget; guarded_bytes must stay bounded. Window-
  // carved spans come back with their whole window once the generation
  // retires, so run long enough for the generation population to turn over.
  for (int i = 0; i < 40000; ++i) {
    void* p = heap.malloc(16);
    heap.free(p);
  }
  const GuardStats stats = heap.stats();
  EXPECT_GT(stats.va_reclaimed_pages, 0u);
  EXPECT_LE(stats.guarded_bytes, cfg.freed_va_budget + 2 * vm::kPageSize);
  // Reclaimed pages really are reused: shadow reuse counter is nonzero.
  EXPECT_GT(stats.shadow_pages_reused, 0u);
}

TEST(OneShardHeapBudget, FreedRecordsListOldestFirst) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, {}, 1);
  auto* oldest = static_cast<char*>(heap.malloc(16));
  auto* newest = static_cast<char*>(heap.malloc(16));
  const ObjectRecord* oldest_rec = ShadowEngine::record_of(oldest);
  heap.free(oldest);
  heap.free(newest);
  const std::vector<ObjectRecord*> freed = heap.engine(0).freed_records();
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(freed.front(), oldest_rec);
  EXPECT_EQ(freed.front()->span_length, vm::kPageSize);
  heap.engine(0).reclaim(freed.front());
  // The newest freed object must still be guarded.
  const auto report = catch_dangling([&] {
    volatile char c = newest[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(OneShardHeapStress, RandomChurnWithDanglingProbes) {
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.freed_va_budget = 4u << 20;  // keep page tables bounded
  ShardedHeap heap(arena, cfg, 1);
  workloads::Rng rng(0x57E55);
  std::vector<std::pair<unsigned char*, std::size_t>> live;
  std::vector<unsigned char*> freed;
  for (int round = 0; round < 3000; ++round) {
    const auto action = rng.below(10);
    if (action < 5 || live.empty()) {
      const std::size_t size = 1 + rng.below(1000);
      auto* p = static_cast<unsigned char*>(heap.malloc(size));
      p[size - 1] = 2;
      p[0] = 1;  // after: size-1 objects end up holding 1
      live.emplace_back(p, size);
    } else if (action < 8) {
      const std::size_t pick = rng.below(live.size());
      EXPECT_EQ(live[pick].first[0], 1);
      heap.free(live[pick].first);
      if (freed.size() < 64) freed.push_back(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    } else if (!freed.empty()) {
      // Probe a random dangling pointer: must always trap (those kept in
      // `freed` are the first 64 frees; budget reclamation may have recycled
      // some, so only probe ones still registered as freed).
      unsigned char* p = freed[rng.below(freed.size())];
      const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
      if (rec != nullptr && rec->state.load() == ObjectState::kFreed &&
          rec->user_shadow == vm::addr(p)) {
        const auto report = catch_dangling([&] {
          volatile unsigned char c = *p;
          (void)c;
        });
        EXPECT_TRUE(report.has_value());
      }
    }
  }
  for (auto& [p, size] : live) heap.free(p);
}

}  // namespace
}  // namespace dpg::core
