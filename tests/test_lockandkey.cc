// Tests for the lock-and-key detection lane (core/lockandkey.h): tag
// round-trip, stale access/free reports, interior-pointer frees, and the
// generation-wrap reuse window the fuzz oracle mirrors.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <cstring>

#include "alloc/alloc_iface.h"
#include "alloc/heap.h"
#include "core/fault_manager.h"
#include "core/lockandkey.h"
#include "core/stats.h"
#include "vm/page.h"

namespace dpg::core {
namespace {

// Fresh allocator stack per test; the lane borrows the engine-style counters.
struct LaneFixture {
  explicit LaneFixture(unsigned tag_bits = LockAndKeyLane::kDefaultTagBits)
      : heap(source), lane(heap, counters, tag_bits) {}
  alloc::MmapSource source;
  alloc::SegregatedHeap heap;
  GuardCounters counters;
  LockAndKeyLane lane;
};

std::uint64_t addr_of(void* p) { return reinterpret_cast<std::uint64_t>(p); }

TEST(LockAndKey, TaggedPointerRoundTrips) {
  LaneFixture fx;
  void* p = fx.lane.alloc(24, /*site=*/7);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(LockAndKeyLane::is_tagged(addr_of(p)));
  // check_access strips the key and hands back the payload for the real
  // load/store — a live pointer must pass without a report.
  void* payload = LockAndKeyLane::check_access(addr_of(p));
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload, LockAndKeyLane::strip(addr_of(p)));
  std::memset(payload, 0xAB, 24);
  EXPECT_EQ(static_cast<unsigned char*>(payload)[23], 0xAB);
  fx.lane.free(p, /*site=*/8);
  const GuardStats st = fx.counters.snapshot();
  EXPECT_EQ(st.tagged_allocs, 1u);
  EXPECT_EQ(st.tagged_frees, 1u);
  EXPECT_EQ(st.tag_mismatches, 0u);
}

TEST(LockAndKey, StaleAccessReportsTagMismatch) {
  LaneFixture fx;
  void* p = fx.lane.alloc(16, 1);
  ASSERT_NE(p, nullptr);
  fx.lane.free(p, 2);
  const std::uint64_t before = LockAndKeyLane::access_mismatches();
  const auto report = catch_dangling([&] {
    (void)LockAndKeyLane::check_access(addr_of(p));
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kTagMismatch);
  // The stale pointer is the report's identity; the slot header belongs to
  // the *current* generation's owner, so sites stay unattributed.
  EXPECT_EQ(report->fault_address, reinterpret_cast<std::uintptr_t>(p));
  EXPECT_EQ(report->object_size, 16u);
  EXPECT_EQ(report->alloc_site, 0u);
  EXPECT_EQ(LockAndKeyLane::access_mismatches(), before + 1);
}

TEST(LockAndKey, StaleFreeReportsTagMismatch) {
  LaneFixture fx;
  void* p = fx.lane.alloc(16, 1);
  ASSERT_NE(p, nullptr);
  fx.lane.free(p, 2);
  const auto report = catch_dangling([&] { fx.lane.free(p, 3); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kTagMismatch);
  EXPECT_EQ(report->free_site, 3u);
  const GuardStats st = fx.counters.snapshot();
  EXPECT_EQ(st.tag_mismatches, 1u);
  EXPECT_EQ(st.tagged_frees, 1u) << "the stale free must not recycle again";
}

TEST(LockAndKey, InteriorPointerFreeIsInvalidFree) {
  LaneFixture fx;
  void* p = fx.lane.alloc(64, 1);
  ASSERT_NE(p, nullptr);
  // An interior pointer keeps the (valid) key but is not one of the lane's
  // slots.
  const std::uint64_t interior = addr_of(p) + 8;
  const auto report = catch_dangling([&] {
    fx.lane.free(reinterpret_cast<void*>(interior), 9);
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(fx.counters.snapshot().invalid_frees, 1u);
}

TEST(LockAndKey, MisalignedForeignTaggedFreeIsInvalidFree) {
  LaneFixture fx;
  // A nonzero key on an odd address whose would-be header lies on an
  // unmapped page: free must reject it before reading any header word.
  void* hole = mmap(nullptr, 2 * vm::kPageSize, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(hole, MAP_FAILED);
  const std::uint64_t foreign =
      (addr_of(hole) + vm::kPageSize + 3) |
      (std::uint64_t{5} << LockAndKeyLane::kTagShift);
  const auto report = catch_dangling([&] {
    fx.lane.free(reinterpret_cast<void*>(foreign), 4);
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(report->fault_address, foreign);
  // An aligned foreign pointer on the same unmapped page is rejected too.
  const std::uint64_t aligned =
      (addr_of(hole) + vm::kPageSize + 64) |
      (std::uint64_t{5} << LockAndKeyLane::kTagShift);
  EXPECT_TRUE(catch_dangling([&] {
                fx.lane.free(reinterpret_cast<void*>(aligned), 4);
              }).has_value());
  const GuardStats st = fx.counters.snapshot();
  EXPECT_EQ(st.invalid_frees, 2u);
  EXPECT_EQ(st.tagged_frees, 0u);
  munmap(hole, 2 * vm::kPageSize);
}

TEST(LockAndKey, GenerationWrapOpensTheReuseWindow) {
  // 2-bit generations cycle 1 -> 2 -> 3 -> 1 (0 is never a valid key): after
  // max_gen frees of one slot, the first generation's stale pointer carries
  // a matching key again — the documented precision hole the scheme chooser
  // prices in and the fuzz oracle mirrors via tag_matches().
  LaneFixture fx(/*tag_bits=*/2);
  void* gen1 = fx.lane.alloc(16, 1);
  ASSERT_NE(gen1, nullptr);
  fx.lane.free(gen1, 2);  // lock -> 2
  EXPECT_FALSE(LockAndKeyLane::tag_matches(addr_of(gen1)));

  void* gen2 = fx.lane.alloc(16, 1);  // same slot, key 2
  ASSERT_EQ(LockAndKeyLane::strip(addr_of(gen2)),
            LockAndKeyLane::strip(addr_of(gen1)));
  fx.lane.free(gen2, 2);              // lock -> 3
  void* gen3 = fx.lane.alloc(16, 1);
  fx.lane.free(gen3, 2);              // lock wraps -> 1

  // gen1's key matches the wrapped lock: inside the reuse window the stale
  // pointer is indistinguishable from live — no report, no value promise.
  EXPECT_TRUE(LockAndKeyLane::tag_matches(addr_of(gen1)));
  EXPECT_EQ(LockAndKeyLane::check_access(addr_of(gen1)),
            LockAndKeyLane::strip(addr_of(gen1)));
  // The intermediate generation still mismatches exactly.
  EXPECT_FALSE(LockAndKeyLane::tag_matches(addr_of(gen2)));
}

TEST(LockAndKey, SlotsStayInLaneAcrossReuse) {
  // Per-capacity freelists keep slots (and their locks) inside the lane for
  // its lifetime: every recycle of the slot bumps the generation, and every
  // prior generation's pointer keeps a live lock to disagree with.
  LaneFixture fx;
  void* first = fx.lane.alloc(32, 1);
  ASSERT_NE(first, nullptr);
  fx.lane.free(first, 2);
  for (int i = 0; i < 8; ++i) {
    void* p = fx.lane.alloc(32, 1);
    ASSERT_EQ(LockAndKeyLane::strip(addr_of(p)),
              LockAndKeyLane::strip(addr_of(first)));
    EXPECT_FALSE(LockAndKeyLane::tag_matches(addr_of(first)));
    fx.lane.free(p, 2);
  }
  const GuardStats st = fx.counters.snapshot();
  EXPECT_EQ(st.tagged_allocs, 9u);
  EXPECT_EQ(st.tagged_frees, 9u);
}

}  // namespace
}  // namespace dpg::core
