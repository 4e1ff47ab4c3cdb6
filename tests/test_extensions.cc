// Tests for the §6-extension features: trailing guard pages (spatial
// overflow traps), batched protection (amortized mprotect), and the
// calloc/realloc guarded semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_heap.h"
#include "core/guarded_pool.h"
#include "core/runtime.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

// --- trailing guard pages ---------------------------------------------------

// The guard page is revoked through the engine's backend, so every case runs
// under each one.
class GuardPageTest : public ::testing::TestWithParam<vm::RevokeBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == vm::RevokeBackend::kGuard &&
        !vm::Revoker::guard_supported()) {
      GTEST_SKIP() << "kernel lacks guard markers on shared memfd aliases";
    }
    heap_.emplace(arena_,
                  GuardConfig{.trailing_guard_page = true,
                              .revoke_backend = GetParam()},
                  1);
    ASSERT_EQ(heap_->engine(0).revoke_backend(), GetParam());
  }

  vm::PhysArena arena_{1u << 28};
  std::optional<ShardedHeap> heap_;
};

TEST_P(GuardPageTest, LinearOverflowPastSpanTraps) {
  auto* p = static_cast<char*>(heap_->malloc(64, 5));
  std::memset(p, 'a', 64);  // in-bounds writes fine
  // The object ends somewhere inside its last data page; the first byte of
  // the following (guard) page must trap even though the object is LIVE.
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->guard_length, vm::kPageSize);
  char* guard_byte = reinterpret_cast<char*>(rec->shadow_base +
                                             rec->span_length -
                                             rec->guard_length);
  const auto report = catch_dangling([&] {
    volatile char c = *guard_byte;
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kOverflow);
  EXPECT_EQ(report->alloc_site, 5u);
  heap_->free(p);
}

TEST_P(GuardPageTest, PageSizedObjectOverflowByOneTraps) {
  // A 4096-byte object fills its pages exactly (modulo the header offset);
  // running one element past a page-aligned end must hit the guard.
  auto* p = static_cast<char*>(heap_->malloc(2 * vm::kPageSize));
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  char* past_span = reinterpret_cast<char*>(rec->shadow_base +
                                            rec->span_length -
                                            rec->guard_length);
  const auto report = catch_dangling([&] { *past_span = 'x'; });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kOverflow);
  heap_->free(p);
}

TEST_P(GuardPageTest, GuardDoesNotAliasPhysicalMemory) {
  // A guard page is a revoked alias: it never grows the memfd, so the
  // arena's physical length is the same as without guards.
  const std::size_t before = arena_.physical_bytes();
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(heap_->malloc(32));
  EXPECT_LT(arena_.physical_bytes() - before, 20 * vm::kPageSize);
  for (void* p : ptrs) heap_->free(p);
}

TEST_P(GuardPageTest, DanglingDetectionStillWorks) {
  auto* p = static_cast<char*>(heap_->malloc(24));
  heap_->free(p);
  const auto report = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kRead);  // temporal, not overflow
}

TEST_P(GuardPageTest, GuardedSpanRecyclesThroughFreeList) {
  auto* p = static_cast<char*>(heap_->malloc(16));
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  const std::uintptr_t base = rec->shadow_base;
  const std::size_t span = rec->span_length;
  heap_->free(p);
  for (ObjectRecord* freed : heap_->engine(0).freed_records()) {
    heap_->engine(0).reclaim(freed);
  }
  EXPECT_GE(heap_->shadow_freelist().bytes(), span);
  // A new allocation reuses the recycled (data+guard) range and re-arms it.
  // It lands on the same canonical block, so the range still aliases its
  // pages and is restored in place, not remapped.
  auto* q = static_cast<char*>(heap_->malloc(16));
  const ObjectRecord* rec2 = ShadowRegistry::global().lookup(vm::addr(q));
  EXPECT_EQ(rec2->shadow_base, base);
  EXPECT_EQ(heap_->stats().shadow_restores, 1u);
  q[0] = 'q';  // data page is RW again
  const auto report = catch_dangling([&] {
    volatile char c = *reinterpret_cast<char*>(rec2->shadow_base +
                                               rec2->span_length -
                                               rec2->guard_length);
    (void)c;
  });
  EXPECT_TRUE(report.has_value());  // guard re-armed after the restore
  heap_->free(q);
}

INSTANTIATE_TEST_SUITE_P(Backends, GuardPageTest,
                         ::testing::Values(vm::RevokeBackend::kMprotect,
                                           vm::RevokeBackend::kGuard),
                         [](const auto& backend) {
                           return std::string(vm::backend_name(backend.param));
                         });

TEST(GuardPagePool, WorksUnderPools) {
  GuardedPoolContext ctx({.trailing_guard_page = true});
  GuardedPool pool(ctx);
  auto* p = static_cast<char*>(pool.alloc(48));
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  ASSERT_EQ(rec->guard_length, vm::kPageSize);
  pool.free(p);
  pool.destroy();
  EXPECT_GT(ctx.recyclable_shadow_bytes(), 0u);
}

// --- batched protection -------------------------------------------------------

TEST(BatchedProtect, FlushProtectsEverything) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, GuardConfig{.protect_batch = 64}, 1);
  std::vector<char*> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(static_cast<char*>(heap.malloc(16)));
  }
  for (char* p : ptrs) heap.free(p);
  // Below the batch threshold: spans may not be protected yet; flush.
  heap.engine(0).flush_protections();
  for (char* p : ptrs) {
    const auto report = catch_dangling([&] {
      volatile char c = *p;
      (void)c;
    });
    EXPECT_TRUE(report.has_value());
  }
}

TEST(BatchedProtect, AutoFlushAtThreshold) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, GuardConfig{.protect_batch = 8}, 1);
  std::vector<char*> ptrs;
  for (int i = 0; i < 8; ++i) {
    ptrs.push_back(static_cast<char*>(heap.malloc(16)));
  }
  for (char* p : ptrs) heap.free(p);  // 8th free triggers the flush
  const auto report = catch_dangling([&] {
    volatile char c = *ptrs[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(BatchedProtect, AdjacentSpansMergeIntoFewerCalls) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, GuardConfig{.protect_batch = 32}, 1);
  // Fresh shadow mappings from the kernel are typically address-adjacent;
  // free them all and flush: merged runs mean fewer mprotect calls than
  // frees.
  std::vector<char*> ptrs;
  for (int i = 0; i < 32; ++i) {
    ptrs.push_back(static_cast<char*>(heap.malloc(16)));
  }
  for (char* p : ptrs) heap.free(p);
  const GuardStats stats = heap.stats();
  EXPECT_EQ(stats.frees, 32u);
  EXPECT_GT(stats.protect_calls_saved, 0u);
  EXPECT_LT(stats.protect_calls, 32u);
}

TEST(BatchedProtect, DoubleFreeStillDeterministic) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, GuardConfig{.protect_batch = 64}, 1);
  auto* p = static_cast<char*>(heap.malloc(16));
  heap.free(p);
  // Even while protection is pending, the record state catches the repeat.
  const auto report = catch_dangling([&] { heap.free(p); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
}

TEST(BatchedProtect, NoReuseBeforeProtection) {
  // Soundness property of the batch design: because the canonical block is
  // returned to the allocator only at flush time, no new allocation can
  // receive the freed object's physical memory while its shadow is still
  // readable.
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena, GuardConfig{.protect_batch = 1000}, 1);
  auto* p = static_cast<char*>(heap.malloc(64));
  std::strcpy(p, "old-contents");
  const std::uintptr_t canonical =
      *reinterpret_cast<std::uintptr_t*>(p - ShadowEngine::kGuardHeader);
  heap.free(p);
  // Allocate many same-size objects: none may land on the old canonical.
  for (int i = 0; i < 100; ++i) {
    auto* q = static_cast<char*>(heap.malloc(64));
    const std::uintptr_t q_canonical =
        *reinterpret_cast<std::uintptr_t*>(q - ShadowEngine::kGuardHeader);
    EXPECT_NE(q_canonical, canonical);
  }
  // The stale pointer still reads the *old* contents (bounded window), never
  // another object's data.
  EXPECT_STREQ(p, "old-contents");
  heap.engine(0).flush_protections();
  const auto report = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(BatchedProtect, ReleaseAllFlushesFirst) {
  GuardedPoolContext ctx({.protect_batch = 128});
  const std::size_t before = ctx.recyclable_shadow_bytes();
  {
    GuardedPool pool(ctx);
    for (int i = 0; i < 10; ++i) pool.free(pool.alloc(16));
    // destroy() with pending protections must not leak canonical blocks.
  }
  EXPECT_GT(ctx.recyclable_shadow_bytes(), before);
}

TEST(BatchedProtect, BudgetInteraction) {
  vm::PhysArena arena(1u << 28);
  ShardedHeap heap(arena,
                   GuardConfig{.freed_va_budget = 64 * vm::kPageSize,
                               .protect_batch = 16},
                   1);
  for (int i = 0; i < 500; ++i) heap.free(heap.malloc(16));
  heap.engine(0).flush_protections();
  EXPECT_LE(heap.stats().guarded_bytes,
            64 * vm::kPageSize + 17 * vm::kPageSize);
}

// --- calloc / realloc ----------------------------------------------------------

// A private governor, so a case can pin the rung with force_mode; no
// recovery, so the pinned rung holds for the whole case.
class CallocReallocTest : public ::testing::Test {
 protected:
  vm::PhysArena arena_{1u << 28};
  DegradationGovernor gov_{GovernorConfig{.recover_after = 0}};
  ShardedHeap heap_{arena_, GuardConfig{.governor = &gov_}, 1};
};

TEST_F(CallocReallocTest, CallocZeroesRecycledMemory) {
  // Dirty a block, free it, calloc the same size: must come back zeroed
  // even though the physical memory is recycled.
  auto* dirty = static_cast<unsigned char*>(heap_.malloc(256));
  std::memset(dirty, 0xFF, 256);
  heap_.free(dirty);
  auto* p = static_cast<unsigned char*>(heap_.calloc(16, 16));
  for (int i = 0; i < 256; ++i) ASSERT_EQ(p[i], 0u) << i;
  heap_.free(p);
}

TEST_F(CallocReallocTest, CallocOverflowReturnsNull) {
  EXPECT_EQ(heap_.calloc(std::size_t{1} << 33, std::size_t{1} << 33), nullptr);
}

TEST_F(CallocReallocTest, ReallocGrowsAndPreservesContents) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  std::strcpy(p, "fifteen chars!!");
  auto* q = static_cast<char*>(heap_.realloc(p, 1000));
  EXPECT_STREQ(q, "fifteen chars!!");
  EXPECT_EQ(heap_.size_of(q), 1000u);
  heap_.free(q);
}

TEST_F(CallocReallocTest, ReallocShrinksAndPreservesPrefix) {
  auto* p = static_cast<char*>(heap_.malloc(100));
  std::memset(p, 'z', 100);
  auto* q = static_cast<char*>(heap_.realloc(p, 10));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q[i], 'z');
  EXPECT_EQ(heap_.size_of(q), 10u);
  heap_.free(q);
}

TEST_F(CallocReallocTest, StaleAliasAfterReallocTraps) {
  // The bug realloc makes easy: keeping a pre-realloc alias around.
  auto* p = static_cast<char*>(heap_.malloc(32, 1));
  auto* q = static_cast<char*>(heap_.realloc(p, 64, 2));
  ASSERT_NE(p, q);  // moved: new shadow page
  const auto report = catch_dangling([&] {
    volatile char c = *p;  // stale alias
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->free_site, 2u);
  heap_.free(q);
}

TEST_F(CallocReallocTest, ReallocNullBehavesLikeMalloc) {
  auto* p = static_cast<char*>(heap_.realloc(nullptr, 40));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(heap_.size_of(p), 40u);
  heap_.free(p);
}

TEST_F(CallocReallocTest, ReallocZeroBehavesLikeFree) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  EXPECT_EQ(heap_.realloc(p, 0), nullptr);
  const auto report = catch_dangling([&] { heap_.free(p); });
  EXPECT_TRUE(report.has_value());  // already freed by realloc(p, 0)
}

TEST_F(CallocReallocTest, ReallocOfFreedPointerReported) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  heap_.free(p);
  const auto report = catch_dangling([&] { (void)heap_.realloc(p, 32); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
}

// realloc takes the old size from whichever source has it: the guarded
// record (above) or the fast path's ledger, on the sampled rung or the
// bottom one. Any other pointer is an error.
TEST_F(CallocReallocTest, ReallocMovesSampledFastPathPointer) {
  gov_.force_mode(GuardMode::kSampled);
  // The first allocation after arming is guarded; the next ones take the
  // ledgered fast path (canonical pointer, no record).
  std::vector<void*> guarded;
  char* p = nullptr;
  for (int i = 0; i < 8 && p == nullptr; ++i) {
    auto* q = static_cast<char*>(heap_.malloc(24, /*site=*/1));
    if (ShardedHeap::record_of(q) == nullptr) {
      p = q;
    } else {
      guarded.push_back(q);
    }
  }
  ASSERT_NE(p, nullptr) << "no fast-path allocation on the sampled rung";
  std::strcpy(p, "fast path");
  auto* q = static_cast<char*>(heap_.realloc(p, 4000, /*site=*/2));
  ASSERT_NE(q, nullptr);
  EXPECT_STREQ(q, "fast path");
  // The realloc was the old pointer's first free; the ledger catches this
  // second one with the object's attribution.
  const auto report = catch_dangling([&] { heap_.free(p, /*site=*/3); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
  EXPECT_EQ(report->object_base, vm::addr(p));
  EXPECT_EQ(report->object_size, 24u);
  EXPECT_EQ(report->alloc_site, 1u);
  EXPECT_EQ(report->free_site, 2u);
  heap_.free(q);
  for (void* g : guarded) heap_.free(g);
}

TEST_F(CallocReallocTest, ReallocMovesDegradedPointer) {
  gov_.force_mode(GuardMode::kQuarantineOnly);
  auto* p = static_cast<char*>(heap_.malloc(40));
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(ShardedHeap::record_of(p), nullptr);  // canonical pointer
  std::strcpy(p, "degraded");
  auto* q = static_cast<char*>(heap_.realloc(p, 3000));
  ASSERT_NE(q, nullptr);
  EXPECT_STREQ(q, "degraded");
  const GuardStats s = heap_.stats();
  EXPECT_EQ(s.degraded_allocs, 2u);
  EXPECT_EQ(s.sampled_frees, 1u);  // the old block left through the ledger
  heap_.free(q);
}

// The bottom rung keeps the fast path's ledger: a second free is an exact
// double free naming the first free, and an interior pointer misses both
// the ledger and the registry.
TEST_F(CallocReallocTest, BottomRungFreesAreExact) {
  gov_.force_mode(GuardMode::kQuarantineOnly);
  auto* p = static_cast<char*>(heap_.malloc(48, /*site=*/1));
  auto* q = static_cast<char*>(heap_.malloc(48, /*site=*/1));
  ASSERT_EQ(ShardedHeap::record_of(p), nullptr);  // canonical pointer
  heap_.free(p, /*site=*/2);
  auto report = catch_dangling([&] { heap_.free(p, /*site=*/3); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
  EXPECT_EQ(report->object_base, vm::addr(p));
  EXPECT_EQ(report->object_size, 48u);
  EXPECT_EQ(report->alloc_site, 1u);
  EXPECT_EQ(report->free_site, 2u);

  report = catch_dangling([&] { heap_.free(q + 8); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(report->fault_address, vm::addr(q + 8));
  const GuardStats s = heap_.stats();
  EXPECT_EQ(s.double_frees, 1u);
  EXPECT_EQ(s.invalid_frees, 1u);
  heap_.free(q);  // the object itself is still live
}

TEST_F(CallocReallocTest, ReallocOfInteriorPointerIsInvalidFree) {
  auto* p = static_cast<char*>(heap_.malloc(64));
  const auto report =
      catch_dangling([&] { (void)heap_.realloc(p + 16, 128); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(report->fault_address, vm::addr(p + 16));
  EXPECT_EQ(heap_.stats().allocations, 1u) << "nothing was moved";
  heap_.free(p);  // the object itself is still live
}

TEST_F(CallocReallocTest, DropInEntryPoints) {
  auto* p = static_cast<unsigned char*>(dpg_calloc(8, 8));
  for (int i = 0; i < 64; ++i) ASSERT_EQ(p[i], 0u);
  auto* q = static_cast<unsigned char*>(dpg_realloc(p, 128));
  dpg_free(q);
}

}  // namespace
}  // namespace dpg::core
