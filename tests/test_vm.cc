// Unit tests for the virtual-memory substrate: page math, the memfd arena,
// physical aliasing, page protection, MAP_FIXED reuse, the paper's mremap
// alias trick, and the VA free list.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "vm/page.h"
#include "vm/phys_arena.h"
#include "vm/revoke.h"
#include "vm/sys.h"
#include "vm/va_freelist.h"
#include "vm/vm_stats.h"

namespace dpg::vm {
namespace {

TEST(PageMath, RoundingAndOffsets) {
  EXPECT_EQ(page_down(0x1234), 0x1000u);
  EXPECT_EQ(page_down(0x1000), 0x1000u);
  EXPECT_EQ(page_up(0x1001), 0x2000u);
  EXPECT_EQ(page_up(0x1000), 0x1000u);
  EXPECT_EQ(page_up(0), 0u);
  EXPECT_EQ(page_offset(0x1234), 0x234u);
  EXPECT_EQ(pages_for(1), 1u);
  EXPECT_EQ(pages_for(4096), 1u);
  EXPECT_EQ(pages_for(4097), 2u);
  EXPECT_EQ(pages_for(0), 0u);
}

TEST(PageRange, ContainsAndEnd) {
  const PageRange r{0x10000, 2 * kPageSize};
  EXPECT_EQ(r.end(), 0x10000u + 2 * kPageSize);
  EXPECT_EQ(r.pages(), 2u);
  EXPECT_TRUE(r.contains(0x10000));
  EXPECT_TRUE(r.contains(0x10000 + 2 * kPageSize - 1));
  EXPECT_FALSE(r.contains(0x10000 + 2 * kPageSize));
  EXPECT_FALSE(r.contains(0xFFFF));
}

TEST(PhysArena, ExtendGrowsPhysicalBytes) {
  PhysArena arena(1u << 24);
  EXPECT_EQ(arena.physical_bytes(), 0u);
  void* a = arena.extend(100);
  EXPECT_EQ(arena.physical_bytes(), kPageSize);
  void* b = arena.extend(2 * kPageSize);
  EXPECT_EQ(arena.physical_bytes(), 3 * kPageSize);
  EXPECT_NE(a, b);
  EXPECT_TRUE(arena.contains_canonical(a));
  EXPECT_TRUE(arena.contains_canonical(b));
}

TEST(PhysArena, ExtentsAreContiguousAndWritable) {
  PhysArena arena(1u << 24);
  auto* a = static_cast<std::byte*>(arena.extend(kPageSize));
  auto* b = static_cast<std::byte*>(arena.extend(kPageSize));
  EXPECT_EQ(a + kPageSize, b);
  std::memset(a, 0x5A, kPageSize);
  std::memset(b, 0xA5, kPageSize);
  EXPECT_EQ(static_cast<unsigned char>(a[kPageSize - 1]), 0x5A);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xA5);
}

TEST(PhysArena, OffsetOfMatchesExtensionOrder) {
  PhysArena arena(1u << 24);
  void* a = arena.extend(kPageSize);
  void* b = arena.extend(kPageSize);
  EXPECT_EQ(arena.offset_of(a), 0u);
  EXPECT_EQ(arena.offset_of(b), kPageSize);
}

TEST(PhysArena, ShadowAliasesPhysicalMemory) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, kPageSize));
  ASSERT_NE(shadow, nullptr);
  EXPECT_NE(shadow, canonical);

  // Writes through one view are visible through the other: one physical page.
  std::strcpy(canonical, "via canonical");
  EXPECT_STREQ(shadow, "via canonical");
  std::strcpy(shadow + 100, "via shadow");
  EXPECT_STREQ(canonical + 100, "via shadow");
  arena.unmap(shadow, kPageSize);
}

TEST(PhysArena, MultiPageShadowSpan) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(3 * kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, 3 * kPageSize));
  canonical[3 * kPageSize - 1] = 'z';
  EXPECT_EQ(shadow[3 * kPageSize - 1], 'z');
  arena.unmap(shadow, 3 * kPageSize);
}

TEST(PhysArena, ProtectNoneBlocksShadowButNotCanonical) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, kPageSize));
  canonical[0] = 'x';
  PhysArena::protect_none(shadow, kPageSize);
  // The canonical view still works even though the shadow is protected.
  canonical[0] = 'y';
  EXPECT_EQ(canonical[0], 'y');
  PhysArena::protect_rw(shadow, kPageSize);
  EXPECT_EQ(shadow[0], 'y');
  arena.unmap(shadow, kPageSize);
}

TEST(PhysArena, MapFixedReplacesOldMapping) {
  PhysArena arena(1u << 24);
  auto* c1 = static_cast<char*>(arena.extend(kPageSize));
  auto* c2 = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(c1, kPageSize));
  c1[0] = '1';
  c2[0] = '2';
  EXPECT_EQ(shadow[0], '1');
  // Protect, then reuse the same VA for a different canonical page.
  PhysArena::protect_none(shadow, kPageSize);
  auto* again = static_cast<char*>(arena.map_shadow(c2, kPageSize, shadow));
  EXPECT_EQ(again, shadow);
  EXPECT_EQ(shadow[0], '2');  // now aliases c2, and is RW again
  arena.unmap(shadow, kPageSize);
}

TEST(PhysArena, ExhaustionThrowsBadAlloc) {
  PhysArena arena(4 * kPageSize);
  (void)arena.extend(3 * kPageSize);
  EXPECT_THROW((void)arena.extend(2 * kPageSize), std::bad_alloc);
}

TEST(RemapDup, DuplicatesTheCanonicalView) {
  // The paper's §3.2 trick: mremap(old_size = 0) on a MAP_SHARED mapping
  // yields a second virtual page over the same physical page.
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  const auto mremaps_before =
      syscall_counters().mremap.load(std::memory_order_relaxed);
  const sys::MapResult dup = sys::remap_dup(canonical, kPageSize);
  EXPECT_GT(syscall_counters().mremap.load(std::memory_order_relaxed),
            mremaps_before);
  if (!dup.ok()) {
    GTEST_SKIP() << "kernel rejects mremap(old_size=0) duplication";
  }
  auto* shadow = static_cast<char*>(dup.ptr);
  EXPECT_NE(shadow, canonical);
  canonical[3] = 'm';
  EXPECT_EQ(shadow[3], 'm');
  shadow[5] = 's';
  EXPECT_EQ(canonical[5], 's');
  arena.unmap(shadow, kPageSize);
}

TEST(VaFreeList, PutTakeExact) {
  VaFreeList list;
  list.put(PageRange{0x100000, kPageSize});
  EXPECT_EQ(list.bytes(), kPageSize);
  EXPECT_EQ(list.ranges(), 1u);
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.base, 0x100000u);
  EXPECT_EQ(taken->range.length, kPageSize);
  EXPECT_EQ(list.bytes(), 0u);
}

TEST(VaFreeList, TakeEmptyReturnsNullopt) {
  VaFreeList list;
  EXPECT_FALSE(list.take(kPageSize).has_value());
}

TEST(VaFreeList, SplitsLargerRange) {
  VaFreeList list;
  list.put(PageRange{0x200000, 4 * kPageSize});
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.length, kPageSize);
  EXPECT_EQ(list.bytes(), 3 * kPageSize);
  // The remainder is still usable.
  const auto rest = list.take(3 * kPageSize);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->range.length, 3 * kPageSize);
}

TEST(VaFreeList, PrefersExactBucket) {
  VaFreeList list;
  list.put(PageRange{0x300000, 4 * kPageSize});
  list.put(PageRange{0x400000, kPageSize});
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.base, 0x400000u);  // exact match, not a split
}

TEST(VaFreeList, TakeTooLargeFails) {
  VaFreeList list;
  list.put(PageRange{0x500000, 2 * kPageSize});
  EXPECT_FALSE(list.take(3 * kPageSize).has_value());
  EXPECT_EQ(list.bytes(), 2 * kPageSize);
}

TEST(VaFreeList, RoundsRequestsUpToPages) {
  VaFreeList list;
  list.put(PageRange{0x600000, 2 * kPageSize});
  const auto taken = list.take(100);  // rounds to one page
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.length, kPageSize);
}

TEST(VaFreeList, DrainVisitsEverything) {
  VaFreeList list;
  list.put(PageRange{0x700000, kPageSize});
  list.put(PageRange{0x800000, 2 * kPageSize});
  std::size_t drained = 0;
  list.drain([&](PageRange r) { drained += r.length; });
  EXPECT_EQ(drained, 3 * kPageSize);
  EXPECT_EQ(list.bytes(), 0u);
  EXPECT_EQ(list.ranges(), 0u);
}

TEST(VaFreeList, ZeroLengthPutIgnored) {
  VaFreeList list;
  list.put(PageRange{0x900000, 0});
  EXPECT_EQ(list.ranges(), 0u);
}

TEST(VaFreeList, HighWaterTrimDrainsOnFirstCrossing) {
  // Real mappings: the trim munmaps what it drains.
  constexpr std::size_t kPages = 4;
  void* region = ::mmap(nullptr, kPages * kPageSize, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  const std::uintptr_t base = addr(region);
  VaFreeList list;
  list.set_trim_limit(kPages);
  for (std::size_t i = 0; i + 1 < kPages; ++i) {
    list.put(PageRange{base + i * kPageSize, kPageSize});
  }
  EXPECT_EQ(list.trims(), 0u);
  EXPECT_EQ(list.ranges(), kPages - 1);
  list.put(PageRange{base + (kPages - 1) * kPageSize, kPageSize});
  EXPECT_EQ(list.trims(), 1u) << "the first put at the limit drains the list";
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
}

// A bound take returns a range bound to the wanted offset first; without
// one, an unbound range of the size, then a range bound elsewhere.
TEST(VaFreeList, BoundTakePrefersTheBindingThenAnyRangeOfTheSize) {
  VaFreeList list;
  list.put(PageRange{0xa00000, kPageSize}, 7 * kPageSize);
  list.put(PageRange{0xb00000, kPageSize});
  list.put(PageRange{0xc00000, kPageSize}, 3 * kPageSize);
  list.put(PageRange{0xd00000, 2 * kPageSize}, 3 * kPageSize);
  auto taken = list.take(kPageSize, 3 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range, (PageRange{0xc00000, kPageSize}));
  EXPECT_EQ(taken->offset, 3 * kPageSize);
  taken = list.take(kPageSize, 3 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.base, 0xb00000u) << "unbound before bound elsewhere";
  EXPECT_EQ(taken->offset, VaFreeList::kUnbound);
  taken = list.take(kPageSize, 3 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.base, 0xa00000u) << "any range of the size";
  EXPECT_EQ(taken->offset, 7 * kPageSize);
  // Only the two-page range is left: a split keeps its binding, the piece
  // where the donor was bound and the remainder one piece further.
  taken = list.take(kPageSize, 9 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range, (PageRange{0xd00000, kPageSize}));
  EXPECT_EQ(taken->offset, 3 * kPageSize);
  taken = list.take(kPageSize, 4 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range, (PageRange{0xd00000 + kPageSize, kPageSize}));
  EXPECT_EQ(taken->offset, 4 * kPageSize);
  EXPECT_FALSE(list.take(kPageSize).has_value());
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
}

// Without a range of the size bound to the wanted offset or unbound, a take
// splits a larger unbound range before it spends a range bound elsewhere.
TEST(VaFreeList, SplitsUnboundBeforeSpendingABinding) {
  VaFreeList list;
  list.put(PageRange{0xa00000, kPageSize}, 7 * kPageSize);
  list.put(PageRange{0xb00000, 2 * kPageSize}, 3 * kPageSize);
  list.put(PageRange{0xe00000, 4 * kPageSize});
  auto taken = list.take(kPageSize, 5 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range, (PageRange{0xe00000, kPageSize}));
  EXPECT_EQ(taken->offset, VaFreeList::kUnbound);
  taken = list.take(2 * kPageSize, 5 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range, (PageRange{0xe00000 + kPageSize, 2 * kPageSize}))
      << "the unbound remainder before the bound range of the size";
  EXPECT_EQ(taken->offset, VaFreeList::kUnbound);
  // The unbound page left is the smallest range; a two-page request takes
  // the bound range of its size, not a split.
  taken = list.take(2 * kPageSize, 5 * kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->range.base, 0xb00000u);
  EXPECT_EQ(taken->offset, 3 * kPageSize);
  EXPECT_EQ(list.ranges(), 2u);
  EXPECT_EQ(list.bytes(), 2 * kPageSize);
}

// True when no page of [base, base + len) is mapped.
bool unmapped(std::uintptr_t base, std::size_t len) {
  unsigned char vec[8];
  for (std::size_t off = 0; off < len; off += kPageSize) {
    if (::mincore(reinterpret_cast<void*>(base + off), kPageSize, vec) == 0 ||
        errno != ENOMEM) {
      return false;
    }
  }
  return true;
}

// The trim and release_all hand bound ranges back to the kernel like any
// other, and the release hook counts them as ranges.
TEST(VaFreeList, TrimAndReleaseAllUnmapBoundRanges) {
  constexpr std::size_t kPages = 4;
  std::size_t hooked = 0;
  const VaFreeList::ReleaseHook count = [](void* ctx, std::size_t ranges) {
    *static_cast<std::size_t*>(ctx) += ranges;
  };
  for (const bool trim : {true, false}) {
    SCOPED_TRACE(trim ? "trim" : "release_all");
    void* region = ::mmap(nullptr, kPages * kPageSize, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(region, MAP_FAILED);
    const std::uintptr_t base = addr(region);
    VaFreeList list;
    list.set_release_hook(count, &hooked);
    list.set_trim_limit(kPages);
    hooked = 0;
    for (std::size_t i = 0; i + 1 < kPages; ++i) {
      list.put(PageRange{base + i * kPageSize, kPageSize},
               i % 2 == 0 ? i * kPageSize : VaFreeList::kUnbound);
    }
    EXPECT_EQ(list.ranges(), kPages - 1);
    if (trim) {
      list.put(PageRange{base + (kPages - 1) * kPageSize, kPageSize},
               42 * kPageSize);
      EXPECT_EQ(list.trims(), 1u);
      EXPECT_EQ(hooked, kPages);
      EXPECT_TRUE(unmapped(base, kPages * kPageSize));
    } else {
      EXPECT_EQ(list.release_all(), (kPages - 1) * kPageSize);
      EXPECT_EQ(hooked, kPages - 1);
      EXPECT_TRUE(unmapped(base, (kPages - 1) * kPageSize));
      ::munmap(reinterpret_cast<void*>(base + (kPages - 1) * kPageSize),
               kPageSize);
    }
    EXPECT_EQ(list.ranges(), 0u);
    EXPECT_EQ(list.bytes(), 0u);
  }
}

TEST(SyscallCounters, TotalSumsComponents) {
  SyscallCounters counters;
  counters.mmap = 2;
  counters.mprotect = 3;
  counters.mremap = 4;
  counters.munmap = 1;
  counters.ftruncate = 5;
  counters.madvise = 6;
  EXPECT_EQ(counters.total(), 21u);
  counters.reset();
  EXPECT_EQ(counters.total(), 0u);
}

TEST(SyscallCounters, ArenaOperationsAreCounted) {
  auto& counters = syscall_counters();
  const auto mmap_before = counters.mmap.load(std::memory_order_relaxed);
  const auto ftruncate_before = counters.ftruncate.load(std::memory_order_relaxed);
  PhysArena arena(1u << 22);
  (void)arena.extend(kPageSize);
  EXPECT_GT(counters.mmap.load(std::memory_order_relaxed), mmap_before);
  EXPECT_GT(counters.ftruncate.load(std::memory_order_relaxed), ftruncate_before);
}

TEST(RevokeBackend, ParsesExactlyTheThreeNames) {
  for (const RevokeBackend b : {RevokeBackend::kAuto, RevokeBackend::kMprotect,
                                RevokeBackend::kGuard}) {
    RevokeBackend parsed = RevokeBackend::kAuto;
    ASSERT_TRUE(parse_backend(backend_name(b), &parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
  RevokeBackend untouched = RevokeBackend::kGuard;
  for (const char* bad : {"", "mpk", "Guard", "guards", "madvise"}) {
    EXPECT_FALSE(parse_backend(bad, &untouched)) << bad;
  }
  EXPECT_FALSE(parse_backend(nullptr, &untouched));
  EXPECT_EQ(untouched, RevokeBackend::kGuard);
}

TEST(RevokeBackend, GuardRequestResolvesToWhatTheProbeFound) {
  Revoker r;
  r.init(RevokeBackend::kGuard);
  EXPECT_EQ(r.active(), Revoker::guard_supported() ? RevokeBackend::kGuard
                                                    : RevokeBackend::kMprotect);
  r.init(RevokeBackend::kMprotect);
  EXPECT_EQ(r.active(), RevokeBackend::kMprotect);
}

// Property sweep: put/take round trips preserve total bytes for varied sizes.
class VaFreeListSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VaFreeListSweep, SplitConservesBytes) {
  const std::size_t donor_pages = GetParam();
  VaFreeList list;
  list.put(PageRange{0x10000000, donor_pages * kPageSize});
  std::size_t taken_total = 0;
  while (auto taken = list.take(kPageSize)) {
    taken_total += taken->range.length;
  }
  EXPECT_EQ(taken_total, donor_pages * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(Donors, VaFreeListSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64, 257));

}  // namespace
}  // namespace dpg::vm
