// Tests for the §3.4 conservative scanner: reclaim freed shadow spans whose
// addresses are no longer stored anywhere, keep the ones still referenced.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/fault_manager.h"
#include "core/gc_scan.h"
#include "core/sharded_heap.h"

namespace dpg::core {
namespace {

class GcScanTest : public ::testing::Test {
 protected:
  vm::PhysArena arena_{1u << 26};
  ShardedHeap heap_{arena_, {}, 1};
  ConservativeScanner scanner_;

  ShadowEngine* engines_[1] = {&heap_.engine(0)};
};

TEST_F(GcScanTest, UnreferencedFreedSpanIsReclaimed) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  heap_.free(p);
  p = nullptr;  // no root holds it
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.freed_candidates, 1u);
  EXPECT_EQ(result.reclaimed, 1u);
  EXPECT_EQ(result.retained, 0u);
  EXPECT_GT(result.bytes_reclaimed, 0u);
}

TEST_F(GcScanTest, RootReferencedSpanIsRetainedAndStillTraps) {
  static char* dangling;  // a "global" root
  dangling = static_cast<char*>(heap_.malloc(16));
  heap_.free(dangling);
  scanner_.add_root(&dangling, sizeof(dangling));
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.retained, 1u);
  EXPECT_EQ(result.reclaimed, 0u);
  // Detection preserved for exactly the pointer that might still be used.
  const auto report = catch_dangling([&] {
    volatile char c = *dangling;
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  dangling = nullptr;
  (void)scanner_.collect(engines_);  // now reclaimable
}

TEST_F(GcScanTest, InteriorPointerRetains) {
  static char* mid;
  auto* p = static_cast<char*>(heap_.malloc(100));
  mid = p + 50;
  heap_.free(p);
  scanner_.add_root(&mid, sizeof(mid));
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.retained, 1u);
  mid = nullptr;
}

TEST_F(GcScanTest, PointerInsideLiveObjectRetains) {
  struct Holder {
    char* stale;
  };
  auto* holder = static_cast<Holder*>(heap_.malloc(sizeof(Holder)));
  auto* victim = static_cast<char*>(heap_.malloc(16));
  holder->stale = victim;
  heap_.free(victim);
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.retained, 1u);
  EXPECT_EQ(result.reclaimed, 0u);
  holder->stale = nullptr;
  const auto again = scanner_.collect(engines_);
  EXPECT_EQ(again.reclaimed, 1u);
  heap_.free(holder);
}

TEST_F(GcScanTest, MixedReclaimAndRetain) {
  static std::uintptr_t keep_word;
  std::vector<char*> victims;
  for (int i = 0; i < 10; ++i) {
    victims.push_back(static_cast<char*>(heap_.malloc(16)));
  }
  for (char* v : victims) heap_.free(v);
  keep_word = vm::addr(victims[3]);
  scanner_.add_root(&keep_word, sizeof(keep_word));
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.freed_candidates, 10u);
  EXPECT_EQ(result.retained, 1u);
  EXPECT_EQ(result.reclaimed, 9u);
  keep_word = 0;
}

TEST_F(GcScanTest, CollectOnEmptyEnginesIsNoop) {
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.freed_candidates, 0u);
  EXPECT_EQ(result.reclaimed, 0u);
}

TEST_F(GcScanTest, LiveObjectsAreNeverReclaimed) {
  auto* live = static_cast<char*>(heap_.malloc(16));
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.freed_candidates, 0u);
  live[0] = 'x';  // still usable
  heap_.free(live);
}

// A reclaimed span leaves the registry at once. A per-object span re-enters
// the free list then; a window-carved span's VA stays mapped with its
// magazine generation and re-enters the free list with the whole window once
// that generation retires and holds no record.
TEST_F(GcScanTest, ReclaimedSpansReenterTheFreeList) {
  const std::size_t before = heap_.shadow_freelist().bytes();
  auto* p = static_cast<char*>(heap_.malloc(16));
  heap_.free(p);
  (void)scanner_.collect(engines_);
  EXPECT_EQ(ShadowEngine::record_of(p), nullptr);
  EXPECT_GT(heap_.stats().va_reclaimed_pages, 0u);
  heap_.engine(0).release_all();
  const std::size_t returned_pages =
      std::max<std::size_t>(ShadowEngine::magazine_window({}), 1);
  EXPECT_GE(heap_.shadow_freelist().bytes(),
            before + returned_pages * vm::kPageSize);
}

TEST_F(GcScanTest, ClearRootsForgetsRegistrations) {
  static char* root_ptr;
  root_ptr = static_cast<char*>(heap_.malloc(16));
  heap_.free(root_ptr);
  scanner_.add_root(&root_ptr, sizeof(root_ptr));
  scanner_.clear_roots();
  const auto result = scanner_.collect(engines_);
  EXPECT_EQ(result.reclaimed, 1u);
  root_ptr = nullptr;
}

}  // namespace
}  // namespace dpg::core
