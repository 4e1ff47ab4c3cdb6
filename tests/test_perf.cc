// Correctness of the performance layers (DESIGN.md §11): thread-sharded
// engines with cross-shard remote frees, slot magazines, and batched
// revocation. Everything here is about *detection guarantees surviving the
// fast paths* — throughput itself is bench_mt's job.
//
// Labelled `perf` so the TSan preset exercises the remote-free MPSC list and
// the shard routing under the race detector (see CMakePresets.json).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/degrade.h"
#include "core/fault_manager.h"
#include "core/guarded_heap.h"
#include "core/sharded_heap.h"
#include "vm/phys_arena.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

namespace dpg::core {
namespace {

// A worker thread that frees `p` through the heap. With >= 2 shards a fresh
// thread's home shard often differs from the allocator's, making the free a
// remote one; the tests that *require* the remote path spawn two workers so
// at least one takes it (consecutive round-robin tokens cannot both match
// the same single home shard when shards == 2).
void free_on_other_thread(ShardedHeap& heap, void* p, SiteId site = 0) {
  std::thread t([&heap, p, site] { heap.free(p, site); });
  t.join();
}

TEST(ShardedHeap, CrossThreadFreeTrapsAfterDrain) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 8;
  ShardedHeap heap(arena, cfg, 2);

  char* p = static_cast<char*>(heap.malloc(256, /*site=*/11));
  ASSERT_NE(p, nullptr);
  p[0] = 'x';
  free_on_other_thread(heap, p, /*site=*/22);
  // Whether the free was routed remotely or hit the owner directly, after a
  // full flush the span must be PROT_NONE.
  heap.flush_all();
  auto rep = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  ASSERT_TRUE(rep.has_value()) << "dangling read after cross-thread free";
  EXPECT_EQ(rep->kind, AccessKind::kRead);
  EXPECT_EQ(rep->object_base, vm::addr(p));
  EXPECT_EQ(rep->object_size, 256u);
  EXPECT_EQ(rep->alloc_site, 11u);
  EXPECT_EQ(rep->free_site, 22u);
}

TEST(ShardedHeap, RemoteFreePathIsTakenAndDrained) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  ShardedHeap heap(arena, cfg, 2);

  // Two fresh threads have consecutive home-shard tokens: with two shards,
  // at least one of them differs from this thread's home shard, so at least
  // one of these frees must take free_remote.
  void* a = heap.malloc(128);
  void* b = heap.malloc(128);
  free_on_other_thread(heap, a);
  free_on_other_thread(heap, b);

  GuardStats s = heap.stats();
  EXPECT_GE(s.remote_frees, 1u);
  EXPECT_EQ(s.frees, 2u);

  heap.flush_all();
  for (std::size_t i = 0; i < heap.shards(); ++i) {
    EXPECT_EQ(heap.engine(i).remote_pending(), 0u);
    EXPECT_EQ(heap.engine(i).pending_revocations(), 0u);
  }
  s = heap.stats();
  EXPECT_EQ(s.revoked_spans, 2u) << "every routed free reached PROT_NONE";
}

TEST(ShardedHeap, CrossThreadDoubleFreeIsExact) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 64;  // keep the revocation queued: the CAS must detect
  ShardedHeap heap(arena, cfg, 2);

  void* p = heap.malloc(512, /*site=*/5);
  free_on_other_thread(heap, p, /*site=*/6);

  // Second free (this thread, possibly a different shard than the freer's):
  // must raise an exact double-free report even though the revocation may
  // still sit in the owner's queue or remote list.
  auto rep = catch_dangling([&] { heap.free(p, /*site=*/7); });
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->kind, AccessKind::kFree);
  EXPECT_EQ(rep->object_base, vm::addr(p));
  EXPECT_EQ(rep->alloc_site, 5u);
  EXPECT_EQ(rep->free_site, 6u) << "report carries the first free's site";
  EXPECT_EQ(heap.stats().double_frees, 1u);
}

// A cross-thread free of an interior pointer resolves to the owner by page.
// Whichever path takes it — the owner's locked free or the lock-free remote
// one — admission must reject it as an invalid free and leave the object
// live.
TEST(ShardedHeap, CrossThreadInteriorFreeIsInvalid) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  ShardedHeap heap(arena, cfg, 2);

  char* p = static_cast<char*>(heap.malloc(512, /*site=*/5));
  const ObjectRecord* rec = ShardedHeap::record_of(p);
  ASSERT_NE(rec, nullptr);
  // Two fresh threads: with two shards at least one of them has a home shard
  // other than the owner, so at least one free takes free_remote.
  int remote = 0;
  for (int t = 0; t < 2; ++t) {
    std::thread th([&] {
      if (&heap.home_engine() != rec->engine) ++remote;
      auto rep = catch_dangling([&] { heap.free(p + 8, /*site=*/6); });
      ASSERT_TRUE(rep.has_value());
      EXPECT_EQ(rep->kind, AccessKind::kInvalidFree);
      EXPECT_EQ(rep->fault_address, vm::addr(p + 8));
    });
    th.join();
  }
  EXPECT_GE(remote, 1);
  GuardStats s = heap.stats();
  EXPECT_EQ(s.invalid_frees, 2u);
  EXPECT_EQ(s.frees, 0u);
  EXPECT_EQ(s.remote_frees, 0u);

  heap.free(p);  // the object itself is still live
  heap.flush_all();
  s = heap.stats();
  EXPECT_EQ(s.frees, 1u);
  EXPECT_EQ(s.revoked_spans, 1u);
}

TEST(ShardedHeap, RacingFreesProduceExactlyOneDoubleFreeReport) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 64;
  ShardedHeap heap(arena, cfg, 2);

  constexpr int kRounds = 64;
  for (int round = 0; round < kRounds; ++round) {
    void* p = heap.malloc(64);
    ASSERT_NE(p, nullptr);
    std::atomic<int> reports{0};
    std::atomic<bool> go{false};
    auto racer = [&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      auto rep = catch_dangling([&] { heap.free(p); });
      if (rep.has_value()) {
        EXPECT_EQ(rep->kind, AccessKind::kFree);
        reports.fetch_add(1);
      }
    };
    std::thread t1(racer), t2(racer);
    go.store(true, std::memory_order_release);
    t1.join();
    t2.join();
    // The kLive->kFreed CAS admits exactly one winner; the loser reports.
    EXPECT_EQ(reports.load(), 1) << "round " << round;
  }
  EXPECT_EQ(heap.stats().double_frees, static_cast<std::uint64_t>(kRounds));
  heap.flush_all();
  EXPECT_EQ(heap.stats().revoked_spans, static_cast<std::uint64_t>(kRounds));
}

// TSan target: four threads hammer the heap while handing half their frees
// to a sibling thread. Checks the MPSC remote list drains completely and no
// free is lost, under concurrent allocation on every shard.
TEST(ShardedHeap, RemoteQueueDrainsUnderConcurrentChurn) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 16;
  ShardedHeap heap(arena, cfg, 4);

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::vector<void*>> handoff(kThreads);
  for (auto& v : handoff) v.resize(kIters, nullptr);
  std::vector<std::atomic<int>> published(kThreads);
  for (auto& c : published) c.store(0);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      FaultManager::ensure_altstack();
      const int sibling = (t + 1) % kThreads;
      int consumed = 0;
      for (int i = 0; i < kIters; ++i) {
        void* p = heap.malloc(64 + (i % 7) * 256);
        ASSERT_NE(p, nullptr);
        std::memset(p, t, 64);
        if ((i & 1) != 0) {
          heap.free(p);
        } else {
          handoff[t][i] = p;
          published[t].store(i + 1, std::memory_order_release);
        }
        // Consume whatever the sibling has published so far. Consumed slots
        // are nulled (single consumer per producer) so the post-join sweep
        // below can free what this thread never got to.
        const int avail = published[sibling].load(std::memory_order_acquire);
        for (; consumed < avail; ++consumed) {
          if (void* q = handoff[sibling][consumed]) {
            handoff[sibling][consumed] = nullptr;
            heap.free(q);  // cross-thread: owner is the sibling's home shard
          }
        }
      }
      const int avail = published[sibling].load(std::memory_order_acquire);
      for (; consumed < avail; ++consumed) {
        if (void* q = handoff[sibling][consumed]) {
          handoff[sibling][consumed] = nullptr;
          heap.free(q);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // A producer can publish after its consumer's final drain; join ordered
  // those writes before these reads, so the leftovers are freed here.
  for (auto& v : handoff) {
    for (void*& q : v) {
      if (q != nullptr) heap.free(q);
    }
  }

  heap.flush_all();
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.allocations, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.frees, s.allocations) << "every allocation was freed";
  EXPECT_EQ(s.double_frees, 0u);
  EXPECT_EQ(s.invalid_frees, 0u);
  EXPECT_EQ(s.guard_failures, 0u);
  EXPECT_EQ(s.revoked_spans, s.frees) << "no revocation was lost";
  for (std::size_t i = 0; i < heap.shards(); ++i) {
    EXPECT_EQ(heap.engine(i).remote_pending(), 0u);
    EXPECT_EQ(heap.engine(i).pending_revocations(), 0u);
  }
}

// The batching window is real but bounded: a freed-not-yet-flushed object
// reads stale data undetected (documented trade), a double free is caught
// immediately, and the flush closes the window. protect_batch=0 shrinks the
// window to zero (the paper's immediate mode).
TEST(BatchedRevocation, WindowSemanticsMidBatchAndPostFlush) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 1024;  // nothing flushes on its own in this test
  ShardedHeap heap(arena, cfg, 1);

  char* p = static_cast<char*>(heap.malloc(64));
  p[0] = 'a';
  heap.free(p);
  EXPECT_EQ(heap.engine(0).pending_revocations(), 1u);

  // Mid-batch: the span is still readable (bounded detection delay)...
  auto rep = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  EXPECT_FALSE(rep.has_value()) << "mid-batch reads are the documented window";
  // ...but the canonical block was NOT handed back to the allocator, so the
  // stale read above saw stale-but-unreused memory, never a new owner's data.

  // Double free mid-batch: exact, via the record state.
  rep = catch_dangling([&] { heap.free(p); });
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->kind, AccessKind::kFree);

  heap.engine(0).flush_protections();
  rep = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  ASSERT_TRUE(rep.has_value()) << "flush closes the window";
  EXPECT_EQ(rep->kind, AccessKind::kRead);

  // Immediate mode: batch disabled, the free itself revokes.
  GuardConfig imm;
  imm.governor = &gov;
  ShardedHeap heap2(arena, imm, 1);
  char* q = static_cast<char*>(heap2.malloc(64));
  heap2.free(q);
  rep = catch_dangling([&] {
    volatile char c = *q;
    (void)c;
  });
  ASSERT_TRUE(rep.has_value()) << "protect_batch=0 keeps detection immediate";
}

// A batch in flight when the governor demotes to quarantine-only: the queued
// revocations still land (no false positives on live objects, the freed span
// still traps after flush), and a double free of the queued object stays
// exact. This is the degradation-ladder interaction the revocation queue
// must not break.
TEST(BatchedRevocation, SurvivesGovernorDemotionMidBatch) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 256;
  ShardedHeap heap(arena, cfg, 2);

  char* freed = static_cast<char*>(heap.malloc(256));
  char* live = static_cast<char*>(heap.malloc(256));
  heap.free(freed);  // queued, not yet protected

  gov.force_mode(GuardMode::kQuarantineOnly);

  // New allocations are degraded (canonical pointers) but must still work.
  char* degraded = static_cast<char*>(heap.malloc(256));
  ASSERT_NE(degraded, nullptr);
  auto rep = catch_dangling([&] {
    live[0] = 'l';
    degraded[0] = 'd';
  });
  EXPECT_FALSE(rep.has_value()) << "no false positive on live objects";

  rep = catch_dangling([&] { heap.free(freed); });
  ASSERT_TRUE(rep.has_value()) << "double free stays exact mid-demotion";
  EXPECT_EQ(rep->kind, AccessKind::kFree);

  heap.flush_all();
  rep = catch_dangling([&] {
    volatile char c = *freed;
    (void)c;
  });
  ASSERT_TRUE(rep.has_value()) << "queued revocation landed despite demotion";

  // Bottom-rung pointers free through the fast path's ledger — no
  // invalid-free report, and the quarantine parks the block.
  rep = catch_dangling([&] { heap.free(degraded); });
  EXPECT_FALSE(rep.has_value());
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.invalid_frees, 0u);
  EXPECT_GE(s.sampled_frees, 1u);

  gov.force_mode(GuardMode::kFullGuard);
  rep = catch_dangling([&] {
    live[0] = 'm';
  });
  EXPECT_FALSE(rep.has_value());
  heap.free(live);
}

// Magazines: with batched revocation, allocations carve shadow pages from
// bulk-aliased 256-page windows on either backend, and detection after the
// flush is byte-for-byte identical to the per-object path — across
// generations, canonical reuse, and aliases placed over recycled VA.
TEST(Magazines, DetectionAcrossGenerationsAndReuse) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 16;
  ShardedHeap heap(arena, cfg, 1);

  const auto expect_traps = [](const std::vector<char*>& ptrs) {
    for (char* p : ptrs) {
      auto rep = catch_dangling([&] {
        volatile char c = *p;
        (void)c;
      });
      ASSERT_TRUE(rep.has_value())
          << "magazine-carved span must trap after the flush";
      EXPECT_EQ(rep->object_base, vm::addr(p));
    }
  };
  constexpr int kRounds = 6;
  constexpr int kPerRound = 12;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<char*> ptrs;
    for (int i = 0; i < kPerRound; ++i) {
      char* p = static_cast<char*>(heap.malloc(4096));
      ASSERT_NE(p, nullptr);
      std::memset(p, round, 4096);
      ptrs.push_back(p);
    }
    for (char* p : ptrs) heap.free(p);
    heap.flush_all();
    expect_traps(ptrs);
  }
  GuardStats s = heap.stats();
  EXPECT_GT(s.magazine_hits, 0u) << "the magazine path was exercised";
  EXPECT_GT(s.magazine_maps, 0u);

  // Every window goes back to the shared list; the next aliases reuse it,
  // and a dangling read over recycled VA traps like any other.
  heap.engine(0).release_all();
  const std::uint64_t reused = s.shadow_pages_reused;
  std::vector<char*> small;
  for (int i = 0; i < 16; ++i) {
    small.push_back(static_cast<char*>(heap.malloc(1000)));
    ASSERT_NE(small.back(), nullptr);
    small.back()[0] = 'x';
    heap.free(small.back());
    heap.flush_all();
  }
  s = heap.stats();
  EXPECT_GT(s.shadow_pages_reused, reused) << "an alias reused recycled VA";
  expect_traps(small);
  EXPECT_EQ(s.frees, s.revoked_spans);
  EXPECT_EQ(s.guard_failures, 0u);
}

// A generation retires at release_all and, once its last record goes,
// returns its window to the shared list as one run: the list then holds
// whole windows and no slot-sized fragment.
TEST(Magazines, SlotsRecycledOnRetirement) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 16;
  ShardedHeap heap(arena, cfg, 1);
  // Sub-page objects pack several to a canonical page, so their reuse
  // collides with claimed slots and leaves generations partly claimed.
  for (int i = 0; i < 200; ++i) {
    void* p = heap.malloc(504);
    ASSERT_NE(p, nullptr);
    heap.free(p);
  }
  heap.flush_all();
  ASSERT_GT(heap.engine(0).magazine_count(), 0u);
  heap.engine(0).release_all();
  const GuardStats s = heap.stats();
  ASSERT_EQ(s.allocations, s.magazine_hits + s.magazine_maps)
      << "every object carved from a window";
  EXPECT_GT(s.magazine_slots_recycled, 0u)
      << "retired generations count their never-claimed slots";
  EXPECT_EQ(heap.engine(0).magazine_count(), 0u);
  const vm::VaFreeList& list = heap.shadow_freelist();
  EXPECT_EQ(list.bytes(), s.shadow_pages_mapped * vm::kPageSize)
      << "every freshly mapped window page is back on the list";
  EXPECT_EQ(list.bytes(), list.ranges() * ShadowEngine::kWindowBytes)
      << "every range is a whole window";
  EXPECT_EQ(s.frees, s.revoked_spans);
}

// Immediate-revocation windows need guard markers: under mprotect every
// revoked slot would split its window's VMA, and the engine takes the
// per-object alias instead. Pins the backend; false when the host cannot
// install guard markers on the arena's aliases.
bool pin_guard_markers(GuardConfig& cfg) {
  cfg.revoke_backend = vm::RevokeBackend::kGuard;
  return vm::Revoker::guard_supported();
}

#define REQUIRE_GUARD_MARKERS(cfg)                                    \
  if (!pin_guard_markers(cfg)) {                                      \
    GTEST_SKIP() << "no guard markers: immediate revocation maps no " \
                    "windows on this host";                           \
  }

// The window cells: guard markers, immediate and at batch 16, and mprotect at
// batch 16 (immediate mprotect revocation takes per-object aliases). Hosts
// without guard markers run only the mprotect cell.
struct WindowCell {
  const char* name;
  vm::RevokeBackend backend;
  std::size_t protect_batch;
};
constexpr WindowCell kWindowCells[] = {
    {"guard", vm::RevokeBackend::kGuard, 0},
    {"guard+batch16", vm::RevokeBackend::kGuard, 16},
    {"mprotect+batch16", vm::RevokeBackend::kMprotect, 16},
};

bool cell_runs_here(const WindowCell& cell) {
  return cell.backend != vm::RevokeBackend::kGuard ||
         vm::Revoker::guard_supported();
}

// Under mprotect immediate revocation keeps the paper's per-object alias:
// no window, no reuse FIFO, and every released span reaches the shared list.
TEST(Magazines, ImmediateRevocationUnderMprotectMapsNone) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.revoke_backend = vm::RevokeBackend::kMprotect;
  ASSERT_EQ(ShadowEngine::magazine_window(cfg), 0u);
  ShardedHeap heap(arena, cfg, 2);
  for (int i = 0; i < 300; ++i) {
    void* p = heap.malloc(i % 2 == 0 ? 4096 : 96);
    ASSERT_NE(p, nullptr);
    heap.free(p);
  }
  for (std::size_t i = 0; i < heap.shards(); ++i) {
    EXPECT_EQ(heap.engine(i).reuse_delay_bytes(), 0u);
    for (ObjectRecord* rec : heap.engine(i).freed_records()) {
      heap.engine(i).reclaim(rec);
    }
  }
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.magazine_maps, 0u);
  EXPECT_EQ(s.magazine_hits, 0u);
  EXPECT_EQ(s.va_reclaimed_pages * vm::kPageSize,
            heap.shadow_freelist().bytes());
  EXPECT_EQ(s.frees, s.revoked_spans);
}

// Past kMaxGenerations live generations one retires; with a live record in
// every generation, the fullest.
// Its records keep their slots: a freed object from a retired generation
// still traps.
TEST(Magazines, PopulationCapRetiresTheFullestGeneration) {
  constexpr std::size_t kSpan = alloc::SegregatedHeap::kSpanPages;
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  REQUIRE_GUARD_MARKERS(cfg);
  ShardedHeap heap(arena, cfg, 1);
  // 8-byte objects put 128 on a canonical page, and the heap hands a span's
  // blocks out one page after another, so one span of them takes 128
  // generations of its window, each claiming one slot per page. A buffer a
  // window wide pushes the second span into another window, whose
  // generations exceed the cap.
  std::vector<char*> live;
  for (int group = 0; group < 2; ++group) {
    for (std::size_t i = 0; i < kSpan * 128; ++i) {
      live.push_back(static_cast<char*>(heap.malloc(8)));
      ASSERT_NE(live.back(), nullptr);
    }
    live.push_back(static_cast<char*>(
        heap.malloc(ShadowEngine::kWindowBytes)));
    ASSERT_NE(live.back(), nullptr);
  }
  GuardStats s = heap.stats();
  EXPECT_GT(s.magazine_maps, ShadowEngine::kMaxGenerations);
  EXPECT_EQ(heap.engine(0).magazine_count(),
            ShadowEngine::kMaxGenerations);
  EXPECT_GT(s.magazine_slots_recycled, 0u);
  for (char* p : live) heap.free(p);
  for (char* p : {live.front(), live[live.size() / 2], live[live.size() - 2]}) {
    auto rep = catch_dangling([&] {
      volatile char c = *p;
      (void)c;
    });
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->object_base, vm::addr(p));
  }
  s = heap.stats();
  EXPECT_EQ(s.frees, s.revoked_spans);
}

// Over the cap, a generation whose records are all freed retires before an
// equally full one that holds live objects: released, its freed records then
// hand the whole window back, where a retired generation with a live record
// would stay mapped for that object's lifetime.
TEST(Magazines, PopulationCapRetiresAGenerationNoLiveRecordHolds) {
  constexpr std::size_t kSpan = alloc::SegregatedHeap::kSpanPages;
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  REQUIRE_GUARD_MARKERS(cfg);
  ShardedHeap heap(arena, cfg, 1);
  // As above: one span of 8-byte objects fills the cap with generations of
  // one window, each claiming one slot per span page.
  std::vector<char*> objs;
  for (std::size_t i = 0; i < kSpan * 128; ++i) {
    objs.push_back(static_cast<char*>(heap.malloc(8)));
    ASSERT_NE(objs.back(), nullptr);
  }
  ASSERT_EQ(heap.engine(0).magazine_count(), ShadowEngine::kMaxGenerations);
  // Free every object of the newest generation; the others stay live.
  const void* newest = ShadowEngine::record_of(objs.back())->magazine;
  std::vector<char*> live;
  for (char* p : objs) {
    if (ShadowEngine::record_of(p)->magazine == newest) {
      heap.free(p);
    } else {
      live.push_back(p);
    }
  }
  // A window-wide buffer moves the next object to another window, whose new
  // generation crosses the cap.
  char* buffer = static_cast<char*>(heap.malloc(ShadowEngine::kWindowBytes));
  char* next = static_cast<char*>(heap.malloc(8));
  ASSERT_NE(next, nullptr);
  const std::size_t before = heap.shadow_freelist().bytes();
  for (ObjectRecord* rec : heap.engine(0).freed_records()) {
    heap.engine(0).reclaim(rec);
  }
  EXPECT_EQ(heap.shadow_freelist().bytes(),
            before + ShadowEngine::kWindowBytes)
      << "the retired generation held no live record";
  for (char* p : live) heap.free(p);
  heap.free(buffer);
  heap.free(next);
}

// VMAs of this process that overlap [lo, hi).
std::size_t vmas_overlapping(std::uintptr_t lo, std::uintptr_t hi) {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  std::string line;
  while (std::getline(maps, line)) {
    const std::uintptr_t start = std::stoull(line, nullptr, 16);
    const std::uintptr_t end =
        std::stoull(line.substr(line.find('-') + 1), nullptr, 16);
    if (start < hi && end > lo) ++n;
  }
  return n;
}

// Under mprotect a generation that retires with live records seals its
// never-claimed slots, so once its records are freed its whole window is one
// PROT_NONE VMA instead of a revoked run beside a readable remainder.
TEST(Magazines, RetiredGenerationUnderMprotectSealsItsUnclaimedSlots) {
  constexpr std::size_t kSpan = alloc::SegregatedHeap::kSpanPages;
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.revoke_backend = vm::RevokeBackend::kMprotect;
  cfg.protect_batch = 16;
  ShardedHeap heap(arena, cfg, 1);
  // As above: one span of 8-byte objects fills the cap with generations of
  // one window, each claiming the span's pages; a window-wide buffer and one
  // more object cross it, and the oldest generation, as full and as live as
  // the rest, retires.
  std::vector<char*> objs;
  for (std::size_t i = 0; i < kSpan * 128; ++i) {
    objs.push_back(static_cast<char*>(heap.malloc(8)));
    ASSERT_NE(objs.back(), nullptr);
  }
  const ObjectRecord* first = ShadowEngine::record_of(objs.front());
  const void* oldest = first->magazine;
  char* buffer = static_cast<char*>(heap.malloc(ShadowEngine::kWindowBytes));
  char* next = static_cast<char*>(heap.malloc(8));
  ASSERT_NE(next, nullptr);
  ASSERT_EQ(heap.engine(0).magazine_count(), ShadowEngine::kMaxGenerations);
  // The generation's window: the shadow page of a slot sits as far into it
  // as the slot's canonical page sits into its arena window.
  const std::uintptr_t window =
      vm::page_down(first->shadow_base) -
      vm::page_down(arena.offset_of(reinterpret_cast<void*>(
          first->canonical))) % ShadowEngine::kWindowBytes;
  std::vector<char*> rest;
  for (char* p : objs) {
    if (ShadowEngine::record_of(p)->magazine == oldest) {
      heap.free(p);
    } else {
      rest.push_back(p);
    }
  }
  heap.flush_all();
  ASSERT_EQ(rest.size(), objs.size() - kSpan);
  EXPECT_EQ(vmas_overlapping(window, window + ShadowEngine::kWindowBytes), 1u);
  for (char* p : rest) heap.free(p);
  heap.free(buffer);
  heap.free(next);
}

// (a) Immediate revocation carves from windows too, and every free revokes
// before it returns: a sub-page and a page-run object report the revocation
// right after free, with no flush, and a read through either traps.
TEST(Magazines, ImmediateRevocationRevokesWindowCarvedSpansAtFree) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 0;
  REQUIRE_GUARD_MARKERS(cfg);
  ShardedHeap heap(arena, cfg, 1);
  auto* sub = static_cast<char*>(heap.malloc(96));
  auto* run = static_cast<char*>(heap.malloc(4096));
  ASSERT_NE(sub, nullptr);
  ASSERT_NE(run, nullptr);
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.magazine_maps + s.magazine_hits, 2u)
      << "both objects carved from a window";
  for (char* p : {sub, run}) {
    std::memset(p, 'x', 96);
    heap.free(p);
    EXPECT_TRUE(heap.revocation_applied(p));
    auto rep = catch_dangling([&] {
      volatile char c = *p;
      (void)c;
    });
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->object_base, vm::addr(p));
  }
}

// (b) k objects on one canonical page get k distinct shadow pages (one per
// generation); freeing one revokes only its own page.
TEST(Magazines, ObjectsSharingACanonicalPageGetDistinctShadowPages) {
  for (const WindowCell& cell : kWindowCells) {
    if (!cell_runs_here(cell)) continue;
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    ShardedHeap heap(arena, cfg, 1);
    std::vector<char*> all;
    for (int i = 0; i < 64; ++i) {
      all.push_back(static_cast<char*>(heap.malloc(64)));
      ASSERT_NE(all.back(), nullptr);
    }
    const GuardStats s = heap.stats();
    EXPECT_EQ(s.magazine_maps + s.magazine_hits, all.size())
        << "an object took a per-object alias";
    // The objects on the first object's canonical page.
    const std::uintptr_t page =
        vm::page_down(ShadowEngine::record_of(all[0])->canonical);
    std::vector<char*> k;
    std::vector<std::uintptr_t> shadow_pages;
    for (char* p : all) {
      if (vm::page_down(ShadowEngine::record_of(p)->canonical) != page) {
        continue;
      }
      k.push_back(p);
      shadow_pages.push_back(vm::page_down(vm::addr(p)));
    }
    ASSERT_GE(k.size(), 4u);
    std::sort(shadow_pages.begin(), shadow_pages.end());
    EXPECT_EQ(std::adjacent_find(shadow_pages.begin(), shadow_pages.end()),
              shadow_pages.end())
        << "two objects share a shadow page";
    for (std::size_t i = 0; i < k.size(); ++i) {
      std::memset(k[i], static_cast<int>('a' + i), 64);
    }
    heap.free(k[0]);
    heap.flush_all();
    auto rep = catch_dangling([&] {
      volatile char c = *k[0];
      (void)c;
    });
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->object_base, vm::addr(k[0]));
    for (std::size_t i = 1; i < k.size(); ++i) {
      rep = catch_dangling([&] {
        EXPECT_EQ(k[i][63], static_cast<char>('a' + i));
        k[i][0] = 'z';
        EXPECT_EQ(k[i][0], 'z');
      });
      EXPECT_FALSE(rep.has_value()) << "sibling " << i << " trapped";
    }
    for (char* p : all) {
      if (p != k[0]) heap.free(p);
    }
  }
}

// (c) Windows amortize the alias map: a 1-shard churn of mixed sub-page and
// page-run pairs maps at most one generation per twenty pairs under
// immediate guard markers (51 maps for 4000 pairs) and at most one per
// sixteen under batching (207 at batch 16, 36 at batch 576; 1,238 and 72
// when a batched window held one generation and sent collisions to the
// per-object alias). Engines without windows (immediate mprotect) map none.
// One shard and a fixed size sequence make the counts deterministic.
TEST(Magazines, OneShardChurnMapsAtMostOneGenerationPerTwentyPairs) {
  constexpr std::size_t kSizes[] = {24,  48,  64,   96,   128, 200,  256,
                                    384, 512, 1024, 2048, 4096, 8192};
  constexpr std::uint64_t kPairs = 4000;
  constexpr std::size_t kBatches[] = {0, 16, 576};
  for (const vm::RevokeBackend backend :
       {vm::RevokeBackend::kGuard, vm::RevokeBackend::kMprotect}) {
    if (backend == vm::RevokeBackend::kGuard &&
        !vm::Revoker::guard_supported()) {
      continue;
    }
    for (const std::size_t batch : kBatches) {
      SCOPED_TRACE(std::string(vm::backend_name(backend)) + " batch " +
                   std::to_string(batch));
      vm::PhysArena arena;
      DegradationGovernor gov;
      GuardConfig cfg;
      cfg.governor = &gov;
      cfg.revoke_backend = backend;
      cfg.protect_batch = batch;
      ShardedHeap heap(arena, cfg, 1);
      std::uint64_t x = 0x9E3779B97F4A7C15ULL;
      for (std::uint64_t i = 0; i < kPairs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        void* p = heap.malloc(kSizes[x % std::size(kSizes)]);
        ASSERT_NE(p, nullptr);
        heap.free(p);
      }
      heap.flush_all();
      const GuardStats s = heap.stats();
      if (ShadowEngine::magazine_window(cfg) == 0) {
        EXPECT_EQ(s.magazine_maps, 0u);
      } else if (batch == 0) {
        EXPECT_LE(s.magazine_maps, kPairs / 20)
            << "hits " << s.magazine_hits << " per " << s.magazine_maps
            << " maps";
      } else {
        EXPECT_LE(s.magazine_maps, kPairs / 16)
            << "hits " << s.magazine_hits << " per " << s.magazine_maps
            << " maps";
      }
      EXPECT_EQ(s.frees, s.revoked_spans);
      if (batch == 0) {
        EXPECT_EQ(s.protect_calls, s.frees) << "one revocation per free";
      }
    }
  }
}

// (d) The reuse FIFO holds canonical memory back, so exhaustion must hand it
// to the allocator before reporting out-of-memory: with a 64-page arena the
// FIFO's 64-page distance would otherwise wedge every allocation.
TEST(Magazines, ExhaustionDrainsTheReuseFifo) {
  vm::PhysArena arena(64 * vm::kPageSize);
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  REQUIRE_GUARD_MARKERS(cfg);
  ShardedHeap heap(arena, cfg, 1);
  for (int i = 0; i < 200; ++i) {
    void* p = heap.malloc(4096);
    ASSERT_NE(p, nullptr) << "allocation " << i;
    ASSERT_NE(ShadowEngine::record_of(p), nullptr) << "allocation " << i;
    heap.free(p);
  }
  EXPECT_GT(gov.counters().arena_failures.load(), 0u)
      << "the arena ran out at least once";
  EXPECT_LT(heap.engine(0).reuse_delay_bytes(),
            ShadowEngine::kReuseDistancePages * vm::kPageSize);
}

// The freed-VA budget releases windows whole. Eight windows, charged once
// each, fill the budget with frees that interleave in allocation order; one
// free in a ninth window crosses it. The budget drops the five windows whose
// freed records are oldest, and every freed object of the other three still
// traps. Released record by record, oldest first, the walk would have
// emptied those three too before five charges dropped.
TEST(Magazines, FreedVaBudgetReleasesWholeWindows) {
  constexpr std::size_t kWindowBytes = ShadowEngine::kWindowBytes;
  // Nine size classes. A window-wide buffer after each class's first object
  // puts the next class's span in the next window, and a class's first 16
  // objects sit one per span page: one generation per class.
  constexpr std::size_t kSizes[] = {100, 150, 200, 300, 400,
                                    600, 900, 1400, 2000};
  constexpr std::size_t kClasses = std::size(kSizes);
  constexpr std::size_t kPerClass = 16;
  for (const WindowCell& cell : kWindowCells) {
    if (!cell_runs_here(cell)) continue;
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.freed_va_budget = 8 * kWindowBytes;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    ShardedHeap heap(arena, cfg, 1);
    std::vector<std::vector<char*>> objs(kClasses);
    std::vector<char*> buffers;
    for (std::size_t c = 0; c < kClasses; ++c) {
      objs[c].push_back(static_cast<char*>(heap.malloc(kSizes[c])));
      buffers.push_back(static_cast<char*>(heap.malloc(kWindowBytes)));
    }
    for (std::size_t r = 1; r < kPerClass; ++r) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        objs[c].push_back(static_cast<char*>(heap.malloc(kSizes[c])));
      }
    }
    const GuardStats s = heap.stats();
    ASSERT_EQ(s.magazine_maps + s.magazine_hits, kClasses * kPerClass)
        << "an object took a per-object alias";
    std::vector<const void*> gens;
    for (const std::vector<char*>& cls : objs) {
      const void* m = ShadowEngine::record_of(cls[0])->magazine;
      for (char* p : cls) ASSERT_EQ(ShadowEngine::record_of(p)->magazine, m);
      gens.push_back(m);
    }
    std::sort(gens.begin(), gens.end());
    ASSERT_EQ(std::unique(gens.begin(), gens.end()), gens.end());

    for (std::size_t r = 0; r < kPerClass; ++r) {
      for (std::size_t c = 0; c < 8; ++c) heap.free(objs[c][r]);
    }
    heap.flush_all();
    for (std::size_t c = 0; c < 8; ++c) {
      for (char* p : objs[c]) {
        ASSERT_NE(ShadowEngine::record_of(p), nullptr) << "within budget";
      }
    }
    heap.free(objs[8][0]);
    heap.flush_all();
    for (std::size_t c = 0; c < 5; ++c) {
      for (char* p : objs[c]) {
        EXPECT_EQ(ShadowEngine::record_of(p), nullptr) << "class " << c;
      }
    }
    std::vector<char*> guarded(objs[5].begin(), objs[5].end());
    guarded.insert(guarded.end(), objs[6].begin(), objs[6].end());
    guarded.insert(guarded.end(), objs[7].begin(), objs[7].end());
    guarded.push_back(objs[8][0]);
    for (char* p : guarded) {
      const auto rep = catch_dangling([&] {
        volatile char c = *p;
        (void)c;
      });
      ASSERT_TRUE(rep.has_value()) << "a freed object lost its guard";
      EXPECT_EQ(rep->object_base, vm::addr(p));
    }
    for (std::size_t r = 1; r < kPerClass; ++r) heap.free(objs[8][r]);
    for (char* p : buffers) heap.free(p);
  }
}

// The freed-VA budget keeps the newest free guarded: owners go in the order
// of their newest revocation, not of allocation. Five objects in five owners
// (five windows, or five per-object aliases under immediate mprotect), a
// budget of four owners' bytes: objects 2-5 are freed, then object 1, whose
// charge crosses the budget. Down to half budget, the three owners freed
// longest ago go; object 1, allocated first, stays guarded.
TEST(Magazines, FreedVaBudgetKeepsTheNewestFree) {
  constexpr std::size_t kSizes[] = {100, 150, 200, 300, 400};
  constexpr std::size_t kObjects = std::size(kSizes);
  std::vector<WindowCell> cells(std::begin(kWindowCells),
                                std::end(kWindowCells));
  cells.push_back({"mprotect", vm::RevokeBackend::kMprotect, 0});
  for (const WindowCell& cell : cells) {
    if (!cell_runs_here(cell)) continue;
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    const bool windows = ShadowEngine::magazine_window(cfg) != 0;
    cfg.freed_va_budget =
        4 * (windows ? ShadowEngine::kWindowBytes : vm::kPageSize);
    ShardedHeap heap(arena, cfg, 1);
    // As in FreedVaBudgetReleasesWholeWindows, a window-wide buffer after
    // each object puts the next size class in the next window.
    std::vector<char*> objs;
    std::vector<char*> buffers;
    for (std::size_t i = 0; i < kObjects; ++i) {
      objs.push_back(static_cast<char*>(heap.malloc(windows ? kSizes[i] : 16)));
      ASSERT_NE(ShadowEngine::record_of(objs.back()), nullptr);
      if (windows) {
        buffers.push_back(
            static_cast<char*>(heap.malloc(ShadowEngine::kWindowBytes)));
      }
    }
    std::vector<const void*> owners;
    for (char* p : objs) owners.push_back(ShadowEngine::record_of(p)->magazine);
    std::sort(owners.begin(), owners.end());
    ASSERT_EQ(std::unique(owners.begin(), owners.end()), owners.end());

    for (std::size_t i = 1; i < kObjects; ++i) heap.free(objs[i]);
    heap.flush_all();
    heap.free(objs[0]);
    heap.flush_all();
    for (std::size_t i = 1; i + 1 < kObjects; ++i) {
      EXPECT_EQ(ShadowEngine::record_of(objs[i]), nullptr) << "object " << i;
    }
    EXPECT_NE(ShadowEngine::record_of(objs.back()), nullptr);
    ASSERT_NE(ShadowEngine::record_of(objs[0]), nullptr)
        << "the newest free lost its guard";
    const auto rep = catch_dangling([&] {
      volatile char c = *objs[0];
      (void)c;
    });
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->object_base, vm::addr(objs[0]));
    for (char* p : buffers) heap.free(p);
  }
}

// A window generation the budget releases goes back to the shared list bound
// to its canonical window, and that window's next generation restores it in
// place: the same VA, no mmap. One generation fills canonical window 0 (256
// one-page objects on the first 256 pages of a fresh arena), all of it is
// freed, and one freed object in window 1 (another size class, so the next
// span) crosses a one-window budget and releases it.
struct WindowZero {
  std::vector<char*> objs;        // the 256 objects of window 0's generation
  std::uintptr_t shadow = 0;      // the generation's window VA
  char* neighbour = nullptr;      // freed, guarded, in window 1
};

WindowZero release_window_zero(ShardedHeap& heap, vm::PhysArena& arena) {
  WindowZero w;
  for (std::size_t i = 0; i < ShadowEngine::kWindowPages; ++i) {
    w.objs.push_back(static_cast<char*>(heap.malloc(4000)));
    EXPECT_NE(w.objs.back(), nullptr);
    std::memset(w.objs.back(), 'a', 4000);
  }
  const ObjectRecord* first = ShadowEngine::record_of(w.objs.front());
  EXPECT_EQ(arena.offset_of(reinterpret_cast<void*>(first->canonical)) /
                ShadowEngine::kWindowBytes,
            0u);
  for (char* p : w.objs) {
    EXPECT_EQ(ShadowEngine::record_of(p)->magazine, first->magazine)
        << "window 0 took more than one generation";
  }
  w.shadow = vm::page_down(first->shadow_base) -
             vm::page_down(arena.offset_of(
                 reinterpret_cast<void*>(first->canonical)));
  for (char* p : w.objs) heap.free(p);
  heap.flush_all();
  w.neighbour = static_cast<char*>(heap.malloc(2000));
  EXPECT_NE(ShadowEngine::record_of(w.neighbour)->magazine, first->magazine);
  heap.free(w.neighbour);
  heap.flush_all();
  for (char* p : w.objs) {
    EXPECT_EQ(ShadowEngine::record_of(p), nullptr) << "window 0 was kept";
  }
  return w;
}

TEST(Magazines, ReleasedWindowComesBackAtTheSameVaWithNoMmap) {
  for (const WindowCell& cell : kWindowCells) {
    if (!cell_runs_here(cell)) continue;
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.freed_va_budget = ShadowEngine::kWindowBytes;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    ShardedHeap heap(arena, cfg, 1);
    const WindowZero w = release_window_zero(heap, arena);
    ASSERT_EQ(heap.stats().shadow_restores, 0u);

    // The next objects on window 0's pages take its next generation: every
    // page of the restored window must be readable and writable again.
    const std::uint64_t mmaps = vm::syscall_counters().mmap.load();
    std::vector<char*> again;
    for (int i = 0; i < 64; ++i) {
      again.push_back(static_cast<char*>(heap.malloc(4000)));
      ASSERT_NE(again.back(), nullptr);
      const std::uintptr_t sb = ShadowEngine::record_of(again.back())->shadow_base;
      ASSERT_GE(sb, w.shadow);
      ASSERT_LT(sb, w.shadow + ShadowEngine::kWindowBytes)
          << "window 0's next generation is not at its old VA";
    }
    for (char* p : again) {
      const auto rep = catch_dangling([&] {
        std::memset(p, 'b', 4000);
        EXPECT_EQ(p[3999], 'b');
      });
      EXPECT_FALSE(rep.has_value()) << "a restored page trapped";
    }
    EXPECT_EQ(vm::syscall_counters().mmap.load(), mmaps);
    EXPECT_EQ(heap.stats().shadow_restores, 1u);

    // The neighbour's window was never released: it still traps, exactly.
    const auto rep = catch_dangling([&] {
      volatile char c = *w.neighbour;
      (void)c;
    });
    ASSERT_TRUE(rep.has_value()) << "the freed neighbour lost its guard";
    EXPECT_EQ(rep->object_base, vm::addr(w.neighbour));
    for (char* p : again) heap.free(p);
    heap.flush_all();
    const GuardStats s = heap.stats();
    EXPECT_EQ(s.frees, s.revoked_spans);
    EXPECT_EQ(s.guard_failures, 0u);
  }
}

// A revocation that fell back to PROT_NONE under guard markers (EINVAL, as
// on a VM_LOCKED alias) leaves pages a marker removal alone cannot lift.
// The window still comes back in place, and the restore lifts both: every
// page of the next generation is read-write, and a free in it traps again.
// Only the guard cells run: under mprotect every revocation is PROT_NONE,
// and the test above covers its restore.
TEST(Magazines, FallbackRevokedWindowIsRestoredReadWrite) {
  for (const WindowCell& cell : kWindowCells) {
    if (cell.backend != vm::RevokeBackend::kGuard || !cell_runs_here(cell)) {
      continue;
    }
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.freed_va_budget = ShadowEngine::kWindowBytes;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    ShardedHeap heap(arena, cfg, 1);
    ASSERT_FALSE(arena.revoked_prot_none());
    ASSERT_TRUE(vm::sys::set_fault_plan("madvise:errno=EINVAL"));
    const WindowZero w = release_window_zero(heap, arena);
    vm::sys::clear_fault_plan();
    ASSERT_GT(heap.stats().revoked_spans, 0u);
    ASSERT_TRUE(arena.revoked_prot_none());

    const std::uint64_t mmaps = vm::syscall_counters().mmap.load();
    const std::uint64_t mprotects = vm::syscall_counters().mprotect.load();
    std::vector<char*> again;
    for (int i = 0; i < 64; ++i) {
      again.push_back(static_cast<char*>(heap.malloc(4000)));
      ASSERT_NE(again.back(), nullptr);
      const std::uintptr_t sb = ShadowEngine::record_of(again.back())->shadow_base;
      ASSERT_GE(sb, w.shadow);
      ASSERT_LT(sb, w.shadow + ShadowEngine::kWindowBytes)
          << "window 0's next generation is not at its old VA";
    }
    for (char* p : again) {
      const auto rep = catch_dangling([&] {
        std::memset(p, 'b', 4000);
        EXPECT_EQ(p[3999], 'b');
      });
      EXPECT_FALSE(rep.has_value()) << "a PROT_NONE page survived the restore";
    }
    EXPECT_EQ(heap.stats().shadow_restores, 1u);
    EXPECT_EQ(vm::syscall_counters().mmap.load(), mmaps);
    EXPECT_GT(vm::syscall_counters().mprotect.load(), mprotects)
        << "the restore lifted the markers only";

    char* last = again.back();
    again.pop_back();
    heap.free(last);
    heap.flush_all();
    const auto rep = catch_dangling([&] {
      volatile char c = *last;
      (void)c;
    });
    ASSERT_TRUE(rep.has_value()) << "a free in the restored window is unguarded";
    EXPECT_EQ(rep->object_base, vm::addr(last));
    for (char* p : again) heap.free(p);
    heap.flush_all();
    EXPECT_EQ(heap.stats().guard_failures, 0u);
  }
}

// The owner of the newest revocation stays registered at any budget, however
// small. 2 MiB over two shards is one window's bytes per engine: one free in
// each of two windows on one shard crosses it, and only the older window may
// go.
TEST(Magazines, FreedVaBudgetNeverReleasesTheNewestOwner) {
  constexpr std::size_t kWindowBytes = ShadowEngine::kWindowBytes;
  for (const WindowCell& cell : kWindowCells) {
    if (!cell_runs_here(cell)) continue;
    SCOPED_TRACE(cell.name);
    vm::PhysArena arena;
    DegradationGovernor gov;
    GuardConfig cfg;
    cfg.governor = &gov;
    cfg.freed_va_budget = 2 * kWindowBytes;
    cfg.revoke_backend = cell.backend;
    cfg.protect_batch = cell.protect_batch;
    ShardedHeap heap(arena, cfg, 2);
    // As in FreedVaBudgetReleasesWholeWindows, a window-wide buffer puts the
    // second size class in the next window.
    char* older = static_cast<char*>(heap.malloc(100));
    char* buffer = static_cast<char*>(heap.malloc(kWindowBytes));
    char* newest = static_cast<char*>(heap.malloc(150));
    ASSERT_NE(ShadowEngine::record_of(older)->magazine,
              ShadowEngine::record_of(newest)->magazine);

    heap.free(older);
    heap.flush_all();
    heap.free(newest);
    heap.flush_all();
    EXPECT_EQ(ShadowEngine::record_of(older), nullptr) << "nothing released";
    ASSERT_NE(ShadowEngine::record_of(newest), nullptr)
        << "the newest free lost its guard";
    const auto rep = catch_dangling([&] {
      volatile char c = *newest;
      (void)c;
    });
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->object_base, vm::addr(newest));
    heap.free(buffer);
  }
}

TEST(ShardedHeap, ReallocAndCallocRouteAcrossShards) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  ShardedHeap heap(arena, cfg, 2);

  char* p = static_cast<char*>(heap.calloc(4, 64));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(p[i], 0) << "calloc zeroes";
  std::memset(p, 7, 256);

  // realloc from another thread: the whole call routes to the owner shard.
  char* grown = nullptr;
  std::thread t([&] { grown = static_cast<char*>(heap.realloc(p, 1024)); });
  t.join();
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(grown[255], 7) << "contents moved";
  heap.flush_all();
  auto rep = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  ASSERT_TRUE(rep.has_value()) << "stale pre-realloc pointer traps";
  heap.free(grown);
}

TEST(ShardedHeap, StatsRollupIsCoherentAfterFlush) {
  vm::PhysArena arena;
  DegradationGovernor gov;
  GuardConfig cfg;
  cfg.governor = &gov;
  cfg.protect_batch = 8;
  ShardedHeap heap(arena, cfg, 3);

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        void* p = heap.malloc(512);
        ASSERT_NE(p, nullptr);
        heap.free(p);
      }
    });
  }
  for (auto& w : workers) w.join();
  heap.flush_all();

  const GuardStats s = heap.stats();
  EXPECT_EQ(s.allocations, 300u);
  EXPECT_EQ(s.frees, 300u);
  EXPECT_EQ(s.revoked_spans, 300u);
  EXPECT_EQ(s.protect_calls + s.protect_calls_saved, 300u)
      << "every free either issued or amortized exactly one mprotect";
}

}  // namespace
}  // namespace dpg::core
