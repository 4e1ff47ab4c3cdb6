// Tests for the policy layer itself: handle semantics, scope routing,
// global-pool routing, and the canonical-source plumbing under it.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "alloc/alloc_iface.h"
#include "baseline/policies.h"
#include "core/fault_manager.h"
#include "obs/metrics.h"
#include "workloads/common.h"

namespace dpg {
namespace {

// --- ArenaSource / MmapSource ------------------------------------------------

TEST(ArenaSource, PrefersRecycledExtents) {
  vm::PhysArena arena(1u << 24);
  alloc::ArenaSource source(arena);
  const vm::PageRange a = source.obtain(4 * vm::kPageSize);
  source.recycle(a);
  EXPECT_EQ(source.recyclable_bytes(), 4 * vm::kPageSize);
  const vm::PageRange b = source.obtain(4 * vm::kPageSize);
  EXPECT_EQ(b.base, a.base);
  EXPECT_EQ(source.recyclable_bytes(), 0u);
}

TEST(ArenaSource, GrowsArenaOnlyWhenFreelistEmpty) {
  vm::PhysArena arena(1u << 24);
  alloc::ArenaSource source(arena);
  const vm::PageRange a = source.obtain(vm::kPageSize);
  const std::size_t phys = arena.physical_bytes();
  source.recycle(a);
  (void)source.obtain(vm::kPageSize);
  EXPECT_EQ(arena.physical_bytes(), phys);  // reused, no growth
  (void)source.obtain(vm::kPageSize);
  EXPECT_GT(arena.physical_bytes(), phys);  // freelist empty: grew
}

// Canonical extents must never be munmapped: recycling as many extents as a
// shadow list's trim limit leaves every one on the source's list, mapped.
TEST(ArenaSource, RecycledExtentsAreNeverTrimmed) {
  auto trims = [] {
    for (std::size_t i = 0; i < obs::counter_count(); ++i) {
      const char* name = obs::counter_name(i);
      if (name != nullptr && std::strcmp(name, "dpg_va_trims") == 0) {
        return obs::counter_value_at(i);
      }
    }
    return std::uint64_t{0};
  };
  vm::PhysArena arena(std::size_t{1} << 28);
  alloc::ArenaSource source(arena);
  constexpr std::size_t kExtents = vm::VaFreeList::kDefaultTrimLimit;
  std::vector<vm::PageRange> extents;
  for (std::size_t i = 0; i < kExtents; ++i) {
    extents.push_back(source.obtain(vm::kPageSize));
  }
  const std::uint64_t trims_before = trims();
  for (const vm::PageRange& r : extents) source.recycle(r);
  EXPECT_EQ(source.recyclable_bytes(), kExtents * vm::kPageSize);
  EXPECT_EQ(trims(), trims_before);
  unsigned char resident = 0;
  EXPECT_EQ(mincore(reinterpret_cast<void*>(extents.front().base),
                    vm::kPageSize, &resident),
            0)
      << "the first extent is still mapped";
}

// --- policy handle semantics ---------------------------------------------------

template <typename P>
void exercise_policy() {
  struct Node {
    std::uint64_t value;
    typename P::template ptr<Node> next;
  };
  // Build a 3-node list, sum it, tear it down.
  auto a = P::template make<Node>();
  auto b = P::template make<Node>();
  auto c = P::template make<Node>();
  a->value = 1;
  b->value = 2;
  c->value = 3;
  a->next = b;
  b->next = c;
  c->next = typename P::template ptr<Node>{};
  std::uint64_t sum = 0;
  for (auto it = a; it != nullptr; it = it->next) sum += it->value;
  EXPECT_EQ(sum, 6u);

  // Array handles.
  auto arr = P::template alloc_array<std::uint64_t>(64);
  for (std::size_t i = 0; i < 64; ++i) arr[i] = i * i;
  EXPECT_EQ(arr[63], 63u * 63u);

  P::dispose(arr);
  P::dispose(c);
  P::dispose(b);
  P::dispose(a);
}

TEST(Policies, NativeHandles) { exercise_policy<baseline::NativePolicy>(); }
TEST(Policies, PaHandles) { exercise_policy<baseline::PaPolicy>(); }
TEST(Policies, PaDummyHandles) {
  exercise_policy<baseline::PaDummySyscallPolicy>();
}
TEST(Policies, GuardedHandles) { exercise_policy<baseline::GuardedPolicy>(); }
TEST(Policies, GuardedNoPoolHandles) {
  exercise_policy<baseline::GuardedNoPoolPolicy>();
}
TEST(Policies, EfenceHandles) { exercise_policy<baseline::EfencePolicy>(); }
TEST(Policies, CapabilityHandles) {
  exercise_policy<baseline::CapabilityPolicy>();
}
TEST(Policies, MemcheckHandles) { exercise_policy<baseline::MemcheckPolicy>(); }

// --- scope routing -------------------------------------------------------------

TEST(Policies, GuardedScopeRoutesToInnermostPool) {
  using P = baseline::GuardedPolicy;
  typename P::Scope outer;
  core::PoolScope* outer_scope = core::PoolScope::current();
  ASSERT_NE(outer_scope, nullptr);
  {
    typename P::Scope inner;
    EXPECT_NE(core::PoolScope::current(), outer_scope);
    auto* p = P::make<int>();
    *p = 42;
    P::dispose(p);
  }
  EXPECT_EQ(core::PoolScope::current(), outer_scope);
}

TEST(Policies, GuardedGlobalAllocationsOutliveScopes) {
  using P = baseline::GuardedPolicy;
  struct Entry {
    std::uint64_t tag;
  };
  Entry* global = nullptr;
  {
    typename P::Scope connection;
    global = workloads::make_global<P, Entry>();
    global->tag = 1;
  }
  // The scope died, but the global-pool object is still live and usable.
  global->tag = 0xABCD;
  EXPECT_EQ(global->tag, 0xABCDu);
  workloads::dispose_global<P>(global);
  // ... and now it is a detectable dangling pointer.
  const auto report = core::catch_dangling([&] {
    volatile std::uint64_t v = global->tag;
    (void)v;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(Policies, GuardedScopeFreesDetectDangling) {
  using P = baseline::GuardedPolicy;
  typename P::Scope scope;
  auto* p = P::make<long>();
  *p = 5;
  P::dispose(p);
  const auto report = core::catch_dangling([&] {
    volatile long v = *p;
    (void)v;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(Policies, PaScopeRecyclesThroughSharedSource) {
  using P = baseline::PaPolicy;
  // Two sequential scopes: the second reuses the first's extents (shared
  // MmapSource free list), so this mustn't crash or leak unbounded memory.
  void* first = nullptr;
  {
    typename P::Scope s;
    first = P::alloc_array<char>(100);
    static_cast<char*>(first)[0] = 'x';
  }
  {
    typename P::Scope s;
    void* second = P::alloc_array<char>(100);
    static_cast<char*>(second)[0] = 'y';
    EXPECT_EQ(second, first);  // same recycled extent, same bump offset
  }
}

TEST(Policies, PolicyCopyRawUsesMemcpySemantics) {
  char dst[16];
  workloads::policy_copy(static_cast<char*>(dst), "hello", 6);
  EXPECT_STREQ(dst, "hello");
}

TEST(Policies, PolicyCopyCheckedPointerChecksEveryByte) {
  using P = baseline::MemcheckPolicy;
  auto buf = P::alloc_array<char>(8);
  const std::uint64_t checks_before =
      baseline::MemcheckContext::global().stats().checks;
  workloads::policy_copy(buf, "abcdefg", 8);
  EXPECT_GE(baseline::MemcheckContext::global().stats().checks,
            checks_before + 8);
  P::dispose(buf);
}

}  // namespace
}  // namespace dpg
