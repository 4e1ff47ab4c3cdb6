// Tests for fault handling: the abort path (death tests), the callback hook,
// probe recovery, detection counting, and non-dpguard faults crashing as
// usual.
#include <gtest/gtest.h>

#include <csignal>

#include "core/fault_manager.h"
#include "core/guarded_heap.h"
#include "core/runtime.h"

namespace dpg::core {
namespace {

using GuardedDeathTest = ::testing::Test;

// A deliberate store through a null pointer: the foreign fault the handler
// must hand back. Exempt from UBSan's null check, which would otherwise
// report it before the MMU can.
__attribute__((no_sanitize("null"), noinline)) void store_through_null() {
  volatile int* null_ptr = nullptr;
  asm volatile("" : "+r"(null_ptr));  // keep the optimizer from folding it
  *null_ptr = 1;
}

TEST(GuardedDeathTest, UnhandledDanglingUseAbortsWithReport) {
  EXPECT_DEATH(
      {
        vm::PhysArena arena(1u << 24);
        ShardedHeap heap(arena, {}, 1);
        auto* p = static_cast<volatile char*>(heap.malloc(16, 41));
        heap.free(const_cast<char*>(p), 42);
        (void)p[0];  // production disposition: report + abort
      },
      "dangling pointer (read|access) detected");
}

TEST(GuardedDeathTest, ReportNamesSites) {
  EXPECT_DEATH(
      {
        vm::PhysArena arena(1u << 24);
        ShardedHeap heap(arena, {}, 1);
        auto* p = static_cast<volatile char*>(heap.malloc(16, 41));
        heap.free(const_cast<char*>(p), 42);
        (void)p[0];
      },
      "alloc site: 41[^0-9]*[\r\n]+[^0-9]*free site:  42");
}

TEST(GuardedDeathTest, DoubleFreeAbortsWithReport) {
  EXPECT_DEATH(
      {
        vm::PhysArena arena(1u << 24);
        ShardedHeap heap(arena, {}, 1);
        void* p = heap.malloc(16);
        heap.free(p);
        heap.free(p);
      },
      "double-free detected");
}

TEST(GuardedDeathTest, ForeignSegfaultStillCrashes) {
  EXPECT_DEATH(
      {
        FaultManager::instance().install();
        store_through_null();  // not a guarded page: handler must re-raise
      },
      "");
}

TEST(FaultManagerTest, ProbeRecoversAndCapturesReport) {
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {}, 1);
  auto* p = static_cast<char*>(heap.malloc(8, 5));
  heap.free(p, 6);
  bool reached_after_fault = false;
  const auto report = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
    reached_after_fault = true;  // never: the fault unwinds
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(reached_after_fault);
  EXPECT_EQ(report->alloc_site, 5u);
}

TEST(FaultManagerTest, ProbeReturnsNulloptOnCleanBody) {
  const auto report = catch_dangling([] {});
  EXPECT_FALSE(report.has_value());
}

TEST(FaultManagerTest, DetectionsCounterIncrements) {
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {}, 1);
  const std::uint64_t before = FaultManager::instance().detections();
  auto* p = static_cast<char*>(heap.malloc(8));
  heap.free(p);
  for (int i = 0; i < 3; ++i) {
    (void)catch_dangling([&] {
      volatile char c = *p;
      (void)c;
    });
  }
  EXPECT_EQ(FaultManager::instance().detections(), before + 3);
}

TEST(FaultManagerTest, SequentialProbesAreIndependent) {
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {}, 1);
  auto* a = static_cast<char*>(heap.malloc(8, 1));
  auto* b = static_cast<char*>(heap.malloc(8, 2));
  heap.free(a);
  heap.free(b);
  const auto ra = catch_dangling([&] {
    volatile char c = *a;
    (void)c;
  });
  const auto rb = catch_dangling([&] {
    volatile char c = *b;
    (void)c;
  });
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->alloc_site, 1u);
  EXPECT_EQ(rb->alloc_site, 2u);
}

TEST(FaultManagerTest, DescribeFormatsReport) {
  DanglingReport report;
  report.kind = AccessKind::kWrite;
  report.fault_address = 0x1234;
  report.object_base = 0x1230;
  report.object_size = 64;
  report.alloc_site = 3;
  report.free_site = 9;
  const std::string text = report.describe();
  EXPECT_NE(text.find("write"), std::string::npos);
  EXPECT_NE(text.find("64"), std::string::npos);
  EXPECT_NE(text.find("site 3"), std::string::npos);
}

TEST(FaultManagerTest, AccessKindNames) {
  EXPECT_STREQ(to_string(AccessKind::kRead), "read");
  EXPECT_STREQ(to_string(AccessKind::kWrite), "write");
  EXPECT_STREQ(to_string(AccessKind::kFree), "double-free");
  EXPECT_STREQ(to_string(AccessKind::kInvalidFree), "invalid-free");
  EXPECT_STREQ(to_string(AccessKind::kUnknown), "access");
}

}  // namespace
}  // namespace dpg::core
