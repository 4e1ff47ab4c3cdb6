// Unit tests for the async-signal-safe shadow registry.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

std::unique_ptr<ObjectRecord> make_record(std::uintptr_t base,
                                           std::size_t pages) {
  auto rec = std::make_unique<ObjectRecord>();
  rec->shadow_base = base;
  rec->span_length = pages * vm::kPageSize;
  rec->user_shadow = base + 8;
  rec->user_size = 24;
  return rec;
}

TEST(Registry, InsertAndLookupSinglePage) {
  ShadowRegistry reg;
  auto rec = make_record(0x7000000000, 1);
  reg.insert(*rec);
  EXPECT_EQ(reg.lookup(0x7000000000), rec.get());
  EXPECT_EQ(reg.lookup(0x7000000FFF), rec.get());  // interior address, same page
  EXPECT_EQ(reg.lookup(0x7000001000), nullptr);
  // Bits at or above 2^48 never alias the page underneath them.
  EXPECT_EQ(reg.lookup((std::uintptr_t{3} << 48) | 0x7000000010), nullptr);
  EXPECT_EQ(reg.lookup((std::uintptr_t{1} << 63) | 0x7000000010), nullptr);
  EXPECT_EQ(reg.entries(), 1u);
  reg.erase(*rec);
}

TEST(Registry, MultiPageSpanMapsEveryPage) {
  ShadowRegistry reg;
  auto rec = make_record(0x7000010000, 3);
  reg.insert(*rec);
  EXPECT_EQ(reg.lookup(0x7000010000), rec.get());
  EXPECT_EQ(reg.lookup(0x7000011800), rec.get());
  EXPECT_EQ(reg.lookup(0x7000012FFF), rec.get());
  EXPECT_EQ(reg.lookup(0x7000013000), nullptr);
  EXPECT_EQ(reg.entries(), 3u);
  reg.erase(*rec);
  EXPECT_EQ(reg.entries(), 0u);
}

TEST(Registry, EraseRemovesOnlyTargetSpan) {
  ShadowRegistry reg;
  auto a = make_record(0x7000020000, 1);
  auto b = make_record(0x7000021000, 1);
  reg.insert(*a);
  reg.insert(*b);
  reg.erase(*a);
  EXPECT_EQ(reg.lookup(0x7000020000), nullptr);
  EXPECT_EQ(reg.lookup(0x7000021000), b.get());
  reg.erase(*b);
}

TEST(Registry, EraseIsIdempotent) {
  ShadowRegistry reg;
  auto rec = make_record(0x7000030000, 1);
  reg.insert(*rec);
  reg.erase(*rec);
  EXPECT_NO_FATAL_FAILURE(reg.erase(*rec));
  EXPECT_EQ(reg.lookup(0x7000030000), nullptr);
}

TEST(Registry, ReinsertAfterEraseWorks) {
  ShadowRegistry reg;
  auto a = make_record(0x7000040000, 1);
  reg.insert(*a);
  reg.erase(*a);
  auto b = make_record(0x7000040000, 1);  // same page, new record
  reg.insert(*b);
  EXPECT_EQ(reg.lookup(0x7000040000), b.get());
  reg.erase(*b);
}

TEST(Registry, UpdateExistingKeyReplacesValue) {
  ShadowRegistry reg;
  auto a = make_record(0x7000050000, 1);
  auto b = make_record(0x7000050000, 1);
  reg.insert(*a);
  reg.insert(*b);  // same page: value replaced
  EXPECT_EQ(reg.lookup(0x7000050000), b.get());
  reg.erase(*b);
}

TEST(Registry, GrowthPreservesAllEntries) {
  // 5000 pages span two leaves and keep every entry reachable as the map
  // grows nodes underneath earlier inserts.
  ShadowRegistry reg;
  std::vector<std::unique_ptr<ObjectRecord>> records;
  for (std::uintptr_t i = 0; i < 5000; ++i) {
    auto rec = make_record(0x7100000000 + i * vm::kPageSize, 1);
    reg.insert(*rec);
    records.push_back(std::move(rec));
  }
  EXPECT_EQ(reg.entries(), 5000u);
  for (std::uintptr_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(reg.lookup(0x7100000000 + i * vm::kPageSize),
              records[static_cast<std::size_t>(i)].get())
        << i;
  }
  for (auto& rec : records) reg.erase(*rec);
  EXPECT_EQ(reg.entries(), 0u);
}

TEST(Registry, TombstoneChurnDoesNotLoseEntries) {
  ShadowRegistry reg;
  workloads::Rng rng(99);
  std::vector<std::unique_ptr<ObjectRecord>> live;
  for (int round = 0; round < 4000; ++round) {
    if (live.size() < 20 || rng.below(2) == 0) {
      auto rec = make_record(
          0x7200000000 + rng.below(1u << 20) * vm::kPageSize, 1);
      // Avoid duplicate pages in this test.
      if (reg.lookup(rec->shadow_base) != nullptr) continue;
      reg.insert(*rec);
      live.push_back(std::move(rec));
    } else {
      const std::size_t pick = rng.below(live.size());
      reg.erase(*live[pick]);
      EXPECT_EQ(reg.lookup(live[pick]->shadow_base), nullptr);
      live[pick] = std::move(live.back());
      live.pop_back();
    }
  }
  for (auto& rec : live) {
    EXPECT_EQ(reg.lookup(rec->shadow_base), rec.get());
    reg.erase(*rec);
  }
}

TEST(Registry, CompactionUnderConcurrentReadersStaysCorrect) {
  // Fresh-page insert/erase churn walks across new leaves while readers
  // resolve a fixed hit and a fixed miss: node installs racing lookups must
  // keep resolving both exactly.
  ShadowRegistry reg;
  auto anchor = make_record(0x7400000000, 1);
  reg.insert(*anchor);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_EQ(reg.lookup(0x7400000000), anchor.get());
        EXPECT_EQ(reg.lookup(0x7F00000000), nullptr);
      }
    });
  }
  // Every insert uses a never-seen page, so the writer keeps installing
  // leaves underneath the readers.
  std::uintptr_t next = 0x7500000000;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::unique_ptr<ObjectRecord>> batch;
    for (int i = 0; i < 64; ++i) {
      auto rec = make_record(next += vm::kPageSize, 1);
      reg.insert(*rec);
      batch.push_back(std::move(rec));
    }
    for (auto& rec : batch) {
      EXPECT_EQ(reg.lookup(rec->shadow_base), rec.get());
      reg.erase(*rec);
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reg.entries(), 1u);
  reg.erase(*anchor);
}

TEST(Registry, LookupMissOnEmptyRegistry) {
  ShadowRegistry reg;
  EXPECT_EQ(reg.lookup(0xDEADBEEF000), nullptr);
  EXPECT_EQ(reg.lookup(0), nullptr);
  // Addresses at or above 2^48 lie outside the map and must miss rather
  // than alias a low page: a non-canonical address with bits 48..62 set, a
  // kernel-half si_addr, and the extremes.
  EXPECT_EQ(reg.lookup(std::uintptr_t{1} << 48), nullptr);
  EXPECT_EQ(reg.lookup(0x0005'7000'0000'0000 | 0xDEADBEEF000), nullptr);
  EXPECT_EQ(reg.lookup(0xFFFF'FFFF'8100'0000), nullptr);
  EXPECT_EQ(reg.lookup(~std::uintptr_t{0}), nullptr);
}

TEST(Registry, NodeBytesGrowOnlyWithNewRegions) {
  ShadowRegistry reg;
  EXPECT_EQ(reg.node_bytes(), 0u);
  auto a = make_record(0x7000080000, 1);
  reg.insert(*a);
  const std::size_t first = reg.node_bytes();  // one mid + one leaf
  EXPECT_GT(first, 0u);
  auto b = make_record(0x7000081000, 2);  // same leaf: no new node
  reg.insert(*b);
  EXPECT_EQ(reg.node_bytes(), first);
  reg.erase(*a);
  reg.erase(*b);
  EXPECT_EQ(reg.node_bytes(), first);  // nodes are never freed
}

TEST(Registry, GlobalSingletonIsStable) {
  ShadowRegistry& a = ShadowRegistry::global();
  ShadowRegistry& b = ShadowRegistry::global();
  EXPECT_EQ(&a, &b);
}

TEST(Registry, StateTransitionsVisibleThroughLookup) {
  ShadowRegistry reg;
  auto rec = make_record(0x7000060000, 1);
  reg.insert(*rec);
  const ObjectRecord* found = reg.lookup(0x7000060100);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->state.load(), ObjectState::kLive);
  rec->state.store(ObjectState::kFreed);
  EXPECT_EQ(found->state.load(), ObjectState::kFreed);
  reg.erase(*rec);
}

}  // namespace
}  // namespace dpg::core
