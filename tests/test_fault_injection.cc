// Robustness suite (ctest label: robustness): the syscall fault-injection
// shim (vm/sys.h) driving the degradation governor (core/degrade.h) and the
// hardened fault manager. The contract under test is ISSUE/DESIGN.md §10:
// when the kernel refuses guard syscalls, the host application keeps running
// — detection is suspended, never falsified — and the ladder climbs back up
// once the pressure clears.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/degrade.h"
#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vm/page.h"
#include "vm/phys_arena.h"
#include "vm/revoke.h"
#include "vm/sys.h"
#include "vm/va_freelist.h"
#include "vm/vm_stats.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPG_TSAN 1
#endif
#endif
#if !defined(DPG_TSAN) && defined(__SANITIZE_THREAD__)
#define DPG_TSAN 1
#endif

namespace dpg::core {
namespace {

// The optimizer may fold a deliberate dangling use; force the pointer
// through a register so the access reaches the MMU.
template <typename T>
T* launder_ptr(T* p) {
  asm volatile("" : "+r"(p));
  return p;
}

// A deliberate store through a null pointer: a fault on no guarded page.
// Exempt from UBSan's null check, which would otherwise report it before the
// MMU can.
__attribute__((no_sanitize("null"), noinline)) void store_through_null() {
  volatile int* wild = nullptr;
  *launder_ptr(const_cast<int*>(wild)) = 1;
}

// A plan that refuses the revocation call of the heap's resolved backend
// with `err`. A guard-marker install refused with EINVAL falls back to
// mprotect, so that plan refuses mprotect too.
std::string refuse_revocation(const ShardedHeap& heap, const char* err) {
  const std::string e = std::string(":errno=") + err;
  if (heap.engine(0).revoke_backend() != vm::RevokeBackend::kGuard) {
    return "mprotect" + e;
  }
  return std::strcmp(err, "EINVAL") == 0 ? "madvise" + e + ",mprotect" + e
                                         : "madvise" + e;
}

// The syscall counter of the backend's revocation call.
std::uint64_t revocation_calls(vm::RevokeBackend b) {
  const vm::SyscallCounters& c = vm::syscall_counters();
  return (b == vm::RevokeBackend::kGuard ? c.madvise : c.mprotect).load();
}

// Every test disarms the global plan on exit so a failing assertion cannot
// leak injected faults into the rest of the binary.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { vm::sys::clear_fault_plan(); }
};

// --- plan grammar ----------------------------------------------------------

TEST_F(FaultInjectionTest, SpecGrammarAcceptsValidPlans) {
  EXPECT_TRUE(vm::sys::set_fault_plan("mmap"));
  EXPECT_TRUE(vm::sys::fault_plan_active());
  EXPECT_TRUE(vm::sys::set_fault_plan("mmap:errno=ENOMEM:after=40"));
  EXPECT_TRUE(vm::sys::set_fault_plan("mprotect:errno=EACCES:nth=3"));
  EXPECT_TRUE(vm::sys::set_fault_plan("ftruncate:errno=12:every=2:count=5"));
  EXPECT_TRUE(vm::sys::set_fault_plan("mmap:prob=0.25:seed=7,munmap:nth=1"));
  EXPECT_TRUE(vm::sys::set_fault_plan("memfd:errno=EMFILE"));
  EXPECT_TRUE(vm::sys::set_fault_plan("madvise:errno=EINVAL:nth=1"));
  EXPECT_TRUE(vm::sys::set_fault_plan("madvise:errno=ENOSYS,mprotect:every=3"));
  EXPECT_TRUE(vm::sys::set_fault_plan(""));  // empty spec = disarm
  EXPECT_FALSE(vm::sys::fault_plan_active());
}

TEST_F(FaultInjectionTest, SpecGrammarRejectsMalformedPlansAtomically) {
  EXPECT_FALSE(vm::sys::set_fault_plan("open:errno=ENOMEM"));   // unknown call
  EXPECT_FALSE(vm::sys::set_fault_plan("mmap:errno=EBOGUS"));   // unknown errno
  EXPECT_FALSE(vm::sys::set_fault_plan("mmap:nth=0"));          // nth is 1-based
  EXPECT_FALSE(vm::sys::set_fault_plan("mmap:prob=2.0"));       // p > 1
  EXPECT_FALSE(vm::sys::set_fault_plan("mmap:bogus=1"));        // unknown option
  // A plan is all-or-nothing: the valid clause before the bad one must not
  // have armed anything.
  EXPECT_FALSE(vm::sys::set_fault_plan("mmap:errno=ENOMEM,junk"));
  EXPECT_FALSE(vm::sys::fault_plan_active());
}

// --- shim-level behaviour --------------------------------------------------

TEST_F(FaultInjectionTest, InjectedEintrIsRetriedTransparently) {
  vm::PhysArena arena(1u << 24);
  const std::uint64_t retries_before = vm::sys::eintr_retries();
  ASSERT_TRUE(vm::sys::set_fault_plan("ftruncate:errno=EINTR:nth=1"));
  void* p = nullptr;
  EXPECT_NO_THROW(p = arena.extend(vm::kPageSize));  // retried inside the shim
  EXPECT_NE(p, nullptr);
  EXPECT_GE(vm::sys::eintr_retries(), retries_before + 1);
}

TEST_F(FaultInjectionTest, ExtendSurvivesEnomemWhenReliefFreesSpans) {
  vm::PhysArena arena(1u << 24);
  // Park a recyclable shadow span in a registered relief list: the ENOMEM
  // retry only runs when relief actually handed something back (retrying an
  // identical call against a genuinely exhausted kernel would be pointless).
  void* canon = arena.extend(vm::kPageSize);
  void* shadow = arena.map_shadow(canon, vm::kPageSize);
  vm::VaFreeList relief;
  relief.put(vm::PageRange{vm::addr(shadow), vm::kPageSize});
  arena.add_relief_source(&relief);
  const std::uint64_t injected_before =
      vm::sys::injected_failures(vm::sys::Call::kFtruncate);
  ASSERT_TRUE(vm::sys::set_fault_plan("ftruncate:errno=ENOMEM:nth=1"));
  void* p = nullptr;
  EXPECT_NO_THROW(p = arena.extend(vm::kPageSize));  // relief + single retry
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(relief.bytes(), 0u);  // the span was released to the kernel
  EXPECT_GE(vm::sys::injected_failures(vm::sys::Call::kFtruncate),
            injected_before + 1);
  arena.remove_relief_source(&relief);
}

TEST_F(FaultInjectionTest, FreelistReleaseCoalescesAdjacentRanges) {
  vm::PhysArena arena(1u << 24);
  void* canon = arena.extend(2 * vm::kPageSize);
  void* shadow = arena.map_shadow(canon, 2 * vm::kPageSize);
  vm::VaFreeList fl;
  // Donate the span as two touching single-page ranges: release must merge
  // them back into one munmap.
  fl.put(vm::PageRange{vm::addr(shadow), vm::kPageSize});
  fl.put(vm::PageRange{vm::addr(shadow) + vm::kPageSize, vm::kPageSize});
  const std::uint64_t munmaps_before = vm::syscall_counters().munmap.load();
  EXPECT_EQ(fl.release_all(), 2 * vm::kPageSize);
  EXPECT_EQ(fl.bytes(), 0u);
  EXPECT_EQ(vm::syscall_counters().munmap.load(), munmaps_before + 1);
}

// --- governor state machine (unit) ----------------------------------------

TEST_F(FaultInjectionTest, GovernorVmaPressureDemotesAndRecoversWithBackoff) {
  GovernorConfig cfg;
  cfg.vma_budget = 100;  // high mark 85, low mark 50
  cfg.recover_after = 4;
  DegradationGovernor gov(cfg);
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);

  gov.add_vmas(90);
  // The first rung off full guarding is sampled, at the base rate.
  EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);  // pressure demotion
  EXPECT_EQ(gov.counters().transitions.load(), 1u);
  EXPECT_EQ(gov.sample_rate(), cfg.sample_rate);

  gov.add_vmas(-60);  // estimate 30, below the low-water mark
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);  // streak 1..3
  }
  // N is already at the base rate, so the streak promotes a real rung.
  EXPECT_EQ(gov.on_alloc(), GuardMode::kFullGuard);  // streak 4 => promote
  EXPECT_EQ(gov.counters().recoveries.load(), 1u);

  // A relapse doubles the required streak (exponential backoff).
  gov.on_syscall_failure("test", ENOMEM);
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);  // streak 1..7 < 8
  }
  EXPECT_EQ(gov.on_alloc(), GuardMode::kFullGuard);  // streak 8 == 4 * 2
  EXPECT_EQ(gov.counters().recoveries.load(), 2u);
}

TEST_F(FaultInjectionTest, GovernorSampledRungWidensUnderPressureAndRetightens) {
  GovernorConfig cfg;
  cfg.vma_budget = 100;
  cfg.recover_after = 1;    // every clean+low-water alloc is a relief step
  cfg.sample_rate = 4;      // base 1-in-4
  cfg.sample_rate_max = 16; // two doublings of headroom
  DegradationGovernor gov(cfg);

  gov.add_vmas(90);
  EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);
  EXPECT_EQ(gov.sample_rate(), 4u);

  // Sustained pressure on the sampled rung widens N one doubling per
  // pressure interval instead of conceding the rung.
  for (int i = 0; i < 64; ++i) (void)gov.on_alloc();
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  EXPECT_EQ(gov.sample_rate(), 8u);
  EXPECT_EQ(gov.counters().sample_widens.load(), 1u);
  for (int i = 0; i < 64; ++i) (void)gov.on_alloc();
  EXPECT_EQ(gov.sample_rate(), 16u);

  // At the ceiling the next full interval demotes past the rung.
  for (int i = 0; i < 64; ++i) (void)gov.on_alloc();
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);

  // Relief: promote back onto the sampled rung (the widened N survives the
  // promotion), then re-tighten step by step before full guarding returns.
  gov.add_vmas(-80);  // estimate 10, below the low-water mark
  (void)gov.on_alloc();
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  EXPECT_EQ(gov.sample_rate(), 16u);
  (void)gov.on_alloc();
  EXPECT_EQ(gov.sample_rate(), 8u);
  (void)gov.on_alloc();
  EXPECT_EQ(gov.sample_rate(), 4u);
  EXPECT_EQ(gov.counters().sample_tightens.load(), 2u);
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);  // N back at base, rung held
  (void)gov.on_alloc();                        // next relief step: promote
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);
}

TEST_F(FaultInjectionTest, GovernorDialStepsAreMirrored) {
  // One dial of guard rates: pressure and relief walk the same notches in
  // opposite order. The ceiling here is not a doubling of the base, so the
  // last sampled notch is clamped and the walk back must leave it by the
  // doubling below it, not by halving it.
  GovernorConfig cfg;
  cfg.vma_budget = 100;
  cfg.recover_after = 1;
  cfg.sample_rate = 3;
  cfg.sample_rate_max = 20;
  DegradationGovernor gov(cfg);
  const std::size_t sampled[] = {3, 6, 12, 20};

  gov.add_vmas(90);  // above the high-water mark
  EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);  // off full guard at once
  EXPECT_EQ(gov.sample_rate(), sampled[0]);
  for (std::size_t i = 1; i < std::size(sampled); ++i) {
    for (int j = 0; j < 64; ++j) (void)gov.on_alloc();
    EXPECT_EQ(gov.mode(), GuardMode::kSampled);
    EXPECT_EQ(gov.sample_rate(), sampled[i]);
  }
  for (int j = 0; j < 64; ++j) (void)gov.on_alloc();
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);
  EXPECT_EQ(gov.sample_rate(), sampled[3]);
  EXPECT_EQ(gov.counters().sample_widens.load(), 3u);

  gov.add_vmas(-80);  // below the low-water mark: one notch per clean alloc
  for (std::size_t i = std::size(sampled); i-- > 0;) {
    EXPECT_EQ(gov.on_alloc(), GuardMode::kSampled);
    EXPECT_EQ(gov.sample_rate(), sampled[i]);
  }
  EXPECT_EQ(gov.on_alloc(), GuardMode::kFullGuard);
  EXPECT_EQ(gov.counters().sample_tightens.load(), 3u);
  EXPECT_EQ(gov.counters().transitions.load(), 4u);
  EXPECT_EQ(gov.counters().recoveries.load(), 2u);
}

TEST_F(FaultInjectionTest, GovernorRungResidencyIsMonotone) {
  GovernorConfig cfg;
  cfg.vma_budget = 100;
  cfg.recover_after = 0;
  DegradationGovernor gov(cfg);
  const std::uint64_t full0 = gov.residency_ns(GuardMode::kFullGuard);
  gov.on_syscall_failure("test", ENOMEM);  // full -> sampled
  const std::uint64_t full1 = gov.residency_ns(GuardMode::kFullGuard);
  EXPECT_GE(full1, full0);
  const std::uint64_t samp0 = gov.residency_ns(GuardMode::kSampled);
  // The in-progress stay accrues without further transitions, and a settled
  // rung's clock never runs backwards.
  const std::uint64_t samp1 = gov.residency_ns(GuardMode::kSampled);
  EXPECT_GE(samp1, samp0);
  EXPECT_GE(gov.residency_ns(GuardMode::kFullGuard), full1);
  EXPECT_EQ(gov.residency_ns(GuardMode::kQuarantineOnly), 0u);  // not visited
}

TEST_F(FaultInjectionTest, GovernorForceModeAndStickyDegradation) {
  GovernorConfig cfg;
  cfg.vma_budget = 100;
  cfg.recover_after = 0;  // recovery disabled: demotions are sticky
  DegradationGovernor gov(cfg);
  gov.on_syscall_failure("test", ENOMEM);
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  for (int i = 0; i < 10000; ++i) (void)gov.on_alloc();
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  EXPECT_EQ(gov.counters().recoveries.load(), 0u);
  EXPECT_EQ(gov.counters().sample_tightens.load(), 0u);

  gov.force_mode(GuardMode::kQuarantineOnly);
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);
  // The bottom rung has nowhere lower to go: a refusal there moves nothing.
  const std::uint64_t moves = gov.counters().transitions.load();
  gov.on_syscall_failure("test", ENOMEM);
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);
  EXPECT_EQ(gov.counters().transitions.load(), moves);
  // A rung index off the ladder is ignored, not stored.
  gov.force_mode(static_cast<GuardMode>(kRungCount));
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);
  EXPECT_EQ(gov.counters().transitions.load(), moves);
  EXPECT_EQ(gov.residency_ns(static_cast<GuardMode>(kRungCount)), 0u);
  gov.force_mode(GuardMode::kFullGuard);
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);
}

// --- engine integration ----------------------------------------------------

TEST_F(FaultInjectionTest, ShadowAliasEnomemDegradesButServesAllocation) {
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  ASSERT_TRUE(vm::sys::set_fault_plan("mmap:errno=ENOMEM"));
  auto* p = static_cast<char*>(heap.malloc(100));
  ASSERT_NE(p, nullptr);  // never fail the host for a guard-layer refusal
  p[0] = 'x';
  p[99] = 'y';  // the unguarded pointer is fully usable
  // One refusal moves one rung: full-guard -> sampled. The refused
  // allocation re-serves on the sampled fast path (ledgered, no VMA).
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  EXPECT_GE(gov.counters().transitions.load(), 1u);
  EXPECT_GE(gov.counters().syscall_failures.load(), 1u);
  EXPECT_GE(heap.stats().sampled_allocs, 1u);
  vm::sys::clear_fault_plan();
  heap.free(p);  // ledgered free: quarantined, no report, no crash
  EXPECT_GE(heap.stats().sampled_frees, 1u);
}

TEST_F(FaultInjectionTest, RevocationRefusalQuarantinesButKeepsDoubleFreeExact) {
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  auto* p = static_cast<char*>(heap.malloc(64));
  p[0] = 'a';
  ASSERT_TRUE(
      vm::sys::set_fault_plan(refuse_revocation(heap, "EACCES").c_str()));
  EXPECT_NO_THROW(heap.free(p));  // revocation refused: park, don't throw
  EXPECT_GE(heap.stats().guard_failures, 1u);
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);  // one refusal, one rung
  vm::sys::clear_fault_plan();
  // The record stays registered, so the second free is still an exact
  // double-free report — degradation suspended revocation, not bookkeeping.
  const auto report = catch_dangling([&] { heap.free(p); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
}

TEST_F(FaultInjectionTest, MidBatchDemotionQuarantinesQueuedRevocations) {
  // The degradation-ladder x batched-revocation corner: frees sitting in the
  // revocation queue when the governor demotes must land in quarantine, never
  // be revoked-then-reused. A queued free has NOT protected its shadow span
  // yet, so recycling its canonical block would leak the next owner's bytes
  // through the stale alias — the one interleaving where batching could
  // silently weaken the ladder's "suspended, never falsified" contract.
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.protect_batch = 8, .governor = &gov}, 1);

  constexpr int kObjs = 4;  // strictly mid-batch: 4 queued frees < batch of 8
  constexpr std::size_t kSize = 96;
  char* objs[kObjs];
  for (int i = 0; i < kObjs; ++i) {
    objs[i] = static_cast<char*>(heap.malloc(kSize));
    std::memset(objs[i], 'A' + i, kSize);
  }
  for (char* p : objs) heap.free(p);
  ASSERT_GE(heap.engine(0).pending_revocations(),
            static_cast<std::size_t>(kObjs));

  // The kernel refuses revocation exactly when the queue drains: the batched
  // call and every per-record fallback fail, and the governor demotes.
  ASSERT_TRUE(
      vm::sys::set_fault_plan(refuse_revocation(heap, "EACCES").c_str()));
  EXPECT_NO_THROW(heap.engine(0).flush_protections());
  vm::sys::clear_fault_plan();
  EXPECT_EQ(heap.engine(0).pending_revocations(), 0u);
  EXPECT_GE(heap.stats().guard_failures, static_cast<std::uint64_t>(kObjs));
  // One governor notice per failed merged run: the first leaves full
  // guarding, later ones widen the sampled rate. The quarantine contract
  // below is the same on every rung below full guard.
  EXPECT_NE(gov.mode(), GuardMode::kFullGuard);

  // Same-size churn in the demoted mode: if any parked canonical block were
  // recycled, one of these fills would shine through a stale alias below.
  std::vector<char*> churn;
  for (int i = 0; i < 64; ++i) {
    auto* p = static_cast<char*>(heap.malloc(kSize));
    ASSERT_NE(p, nullptr);
    std::memset(p, 'z', kSize);
    churn.push_back(p);
  }

  // Every queued-then-demoted pointer reads its own fill or traps — it never
  // observes another owner's bytes.
  for (int i = 0; i < kObjs; ++i) {
    char* p = objs[i];
    char v = 0;
    const auto report = catch_dangling([&] { v = *launder_ptr(p); });
    if (!report.has_value()) {
      EXPECT_EQ(v, static_cast<char>('A' + i))
          << "object " << i << " was reused while its alias stayed readable";
    }
  }

  // The records stayed registered, so a second free is still an exact
  // double-free report — mid-batch demotion suspended revocation only.
  const auto report = catch_dangling([&] { heap.free(launder_ptr(objs[0])); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);

  for (char* p : churn) heap.free(p);
}

TEST_F(FaultInjectionTest, LadderWalksToBottomRungUnderPersistentRefusal) {
  // No widening headroom (max == base) and N == 1, so every sampled-rung
  // allocation attempts a guard and every refusal costs a whole rung: the
  // shortest path that walks every rung of the 3-step ladder.
  GovernorConfig cfg;
  cfg.sample_rate = 1;
  cfg.sample_rate_max = 1;
  DegradationGovernor gov(cfg);
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  auto* a = static_cast<char*>(heap.malloc(32));  // guarded while healthy
  ASSERT_TRUE(vm::sys::set_fault_plan(
      ("mmap:errno=ENOMEM," + refuse_revocation(heap, "EINVAL")).c_str()));
  // Wider than a magazine window, so each needs an alias of its own instead
  // of a slot in a live generation.
  constexpr std::size_t kOwnAlias = 2u << 20;
  auto* b = static_cast<char*>(heap.malloc(kOwnAlias));  // rung 1 down
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(gov.mode(), GuardMode::kSampled);
  auto* c = static_cast<char*>(heap.malloc(kOwnAlias));  // rung 2 down
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);  // rung 2 down
  heap.free(a);  // revocation refused: parked, and no rung left to drop
  EXPECT_EQ(gov.mode(), GuardMode::kQuarantineOnly);
  EXPECT_EQ(gov.counters().transitions.load(), 2u);
  EXPECT_GE(heap.stats().guard_failures, 3u);  // two aliases, one revocation
  heap.free(b);  // the ledgered fast path still frees exactly
  heap.free(c);
  const auto report = catch_dangling([&] { heap.free(launder_ptr(c)); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
  vm::sys::clear_fault_plan();
}

TEST_F(FaultInjectionTest, HysteresisRecoveryRestoresDetection) {
  GovernorConfig cfg;
  cfg.recover_after = 8;
  DegradationGovernor gov(cfg);
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  // One failure credit per alias the first allocation tries: its window
  // (when immediate revocation maps windows, under guard markers) and its
  // per-object fallback both fail (the freelist is empty so no relief retry
  // happens) and the refusal then clears — transient pressure, exactly what
  // hysteresis recovery exists for.
  const int credits =
      heap.engine(0).revoke_backend() == vm::RevokeBackend::kGuard ? 2 : 1;
  ASSERT_TRUE(vm::sys::set_fault_plan(
      ("mmap:errno=ENOMEM:count=" + std::to_string(credits)).c_str()));
  auto* p = static_cast<char*>(heap.malloc(40));
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(gov.mode(), GuardMode::kSampled);
  void* scratch[10] = {};
  for (auto*& s : scratch) s = heap.malloc(16);  // clean streak, 10 >= 8
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);
  EXPECT_EQ(gov.counters().recoveries.load(), 1u);
  // Post-recovery allocations are guarded again: detection is live.
  auto* g = static_cast<char*>(heap.malloc(24));
  heap.free(g);
  const auto report = catch_dangling([&] {
    volatile char c = *launder_ptr(g);
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  for (auto* s : scratch) heap.free(s);
  heap.free(p);
}

TEST_F(FaultInjectionTest, DegradedFreeNeverRaisesAFalsePositive) {
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  ASSERT_TRUE(vm::sys::set_fault_plan("mmap:errno=ENOMEM"));
  auto* p = static_cast<char*>(heap.malloc(80));  // refusal: lands on sampled
  ASSERT_NE(p, nullptr);
  // Force the ladder to the bottom rung: q is a canonical pointer with a
  // ledger entry and no registry record.
  gov.force_mode(GuardMode::kQuarantineOnly);
  auto* q = static_cast<char*>(heap.malloc(48));
  ASSERT_NE(q, nullptr);
  vm::sys::clear_fault_plan();
  // Freeing fast-path (canonical) pointers must not be mistaken for invalid
  // frees: detection in degraded modes is suspended, never wrong. Both
  // resolve through the ledger, whichever rung served them.
  const auto r1 = catch_dangling([&] { heap.free(launder_ptr(p)); });
  EXPECT_FALSE(r1.has_value());
  const auto r2 = catch_dangling([&] { heap.free(launder_ptr(q)); });
  EXPECT_FALSE(r2.has_value());
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.sampled_frees, 2u);
  EXPECT_EQ(s.invalid_frees, 0u);
}

// --- revocation backends (DESIGN.md §16) ----------------------------------

// A refused probe is not an error: kAuto and an explicit kGuard request both
// come up on mprotect, and detection stays exact. The body runs in a fresh
// child process (threadsafe death-test style re-executes the binary),
// because the probe runs once per process. Returns 0 when every check
// holds, else prints the failed check and returns 1.
int refused_probe_child() {
  auto failed = [](const char* what) {
    std::fprintf(stderr, "refused probe check failed: %s\n", what);
    return 1;
  };
  if (!vm::sys::set_fault_plan("madvise:errno=EINVAL:nth=1")) {
    return failed("plan rejected");
  }
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  ShardedHeap pinned(
      arena, {.governor = &gov, .revoke_backend = vm::RevokeBackend::kGuard},
      1);
  vm::sys::clear_fault_plan();
  if (vm::Revoker::guard_supported()) return failed("probe result not cached");
  for (ShardedHeap* h : {&heap, &pinned}) {
    if (h->engine(0).revoke_backend() != vm::RevokeBackend::kMprotect) {
      return failed("backend did not resolve to mprotect");
    }
  }
  if (gov.mode() != GuardMode::kFullGuard) return failed("ladder moved");
  const std::uint64_t madvise_before = vm::syscall_counters().madvise.load();
  auto* p = static_cast<char*>(heap.malloc(48));
  if (p == nullptr) return failed("malloc");
  std::memset(p, 'k', 48);
  if (catch_dangling([&] { heap.free(launder_ptr(p)); }).has_value()) {
    return failed("clean free reported");
  }
  const auto report = catch_dangling([&] {
    volatile char c = *launder_ptr(p);
    (void)c;
  });
  if (!report.has_value()) return failed("dangling read did not trap");
  if (heap.stats().guard_failures != 0) return failed("guard failures");
  if (vm::syscall_counters().madvise.load() != madvise_before) {
    return failed("mprotect backend issued madvise");
  }
  return 0;
}

TEST_F(FaultInjectionTest, RefusedGuardProbeResolvesToMprotect) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::_Exit(refused_probe_child()), ::testing::ExitedWithCode(0),
              "");
}

TEST_F(FaultInjectionTest, GuardBackendRevokesWithOneMadvisePerFree) {
  if (!vm::Revoker::guard_supported()) {
    GTEST_SKIP() << "no guard markers on this kernel; kGuard runs mprotect";
  }
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(
      arena, {.governor = &gov, .revoke_backend = vm::RevokeBackend::kGuard},
      1);
  ASSERT_EQ(heap.engine(0).revoke_backend(), vm::RevokeBackend::kGuard);
  auto* p = static_cast<char*>(heap.malloc(64));
  const std::uint64_t madvise_before = vm::syscall_counters().madvise.load();
  const std::uint64_t mprotect_before = vm::syscall_counters().mprotect.load();
  heap.free(p);
  EXPECT_EQ(vm::syscall_counters().madvise.load(), madvise_before + 1);
  EXPECT_EQ(vm::syscall_counters().mprotect.load(), mprotect_before);
  const auto report = catch_dangling([&] {
    volatile char c = *launder_ptr(p);
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->object_base, vm::addr(p));
}

// The kernel refuses guard markers on a VM_LOCKED alias with EINVAL. That
// run is revoked through mprotect, so an mlocked object still traps.
TEST_F(FaultInjectionTest, MlockedObjectFreeStillTraps) {
  DegradationGovernor gov;
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {.governor = &gov}, 1);
  auto* p = static_cast<char*>(heap.malloc(64));
  ASSERT_NE(p, nullptr);
  void* page = reinterpret_cast<void*>(vm::addr(p) & ~(vm::kPageSize - 1));
  // The raw syscall: sanitizer runtimes intercept mlock() as a no-op.
  if (syscall(SYS_mlock, page, vm::kPageSize) != 0) {
    GTEST_SKIP() << "mlock refused (RLIMIT_MEMLOCK)";
  }
  const std::uint64_t mprotect_before = vm::syscall_counters().mprotect.load();
  heap.free(p);
  EXPECT_EQ(heap.stats().guard_failures, 0u);
  EXPECT_EQ(heap.stats().revoked_spans, 1u);
  EXPECT_EQ(vm::syscall_counters().mprotect.load(), mprotect_before + 1);
  const auto report = catch_dangling([&] {
    volatile char c = *launder_ptr(p);
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);
}

// A child forked after a free traps on the freed span: PROT_NONE and guard
// markers are both inherited across fork.
TEST_F(FaultInjectionTest, ForkedChildTrapsOnSpanRevokedBeforeFork) {
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {}, 1);
  auto* p = static_cast<char*>(heap.malloc(64));
  std::memset(p, 'f', 64);
  const std::uint64_t calls_before =
      revocation_calls(heap.engine(0).revoke_backend());
  heap.free(p);
  ASSERT_EQ(revocation_calls(heap.engine(0).revoke_backend()),
            calls_before + 1);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto report = catch_dangling([&] {
      volatile char c = *launder_ptr(p);
      (void)c;
    });
    _exit(report.has_value() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died with status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child read the freed span";
}

// --- fault-manager hardening ----------------------------------------------

ShardedHeap* g_alt_heap = nullptr;
char* g_alt_stack_low = nullptr;
bool g_alt_survived = false;

__attribute__((noinline)) void trap_near_stack_edge() {
  auto* p = static_cast<char*>(g_alt_heap->malloc(24, 91));
  g_alt_heap->free(p, 92);
  const auto report = catch_dangling([&] {
    volatile char c = *launder_ptr(p);
    (void)c;
  });
  g_alt_survived = report.has_value() && report->alloc_site == 91;
}

// Recurses until less than `leave` bytes of the thread stack remain, then
// takes a guarded trap there. Without SA_ONSTACK + sigaltstack the handler's
// ~12 KiB of report/metrics frames would not reliably fit.
__attribute__((noinline)) void burn_stack_then_trap(std::size_t leave) {
  volatile char pad[2048];
  pad[0] = 1;
  pad[sizeof pad - 1] = 1;
  char probe;
  if (static_cast<std::size_t>(&probe - g_alt_stack_low) > leave) {
    burn_stack_then_trap(leave);
  } else {
    trap_near_stack_edge();
  }
  asm volatile("" : : "r"(&pad[0]) : "memory");
}

void* altstack_thread_main(void*) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return nullptr;
  void* low = nullptr;
  std::size_t size = 0;
  pthread_attr_getstack(&attr, &low, &size);
  pthread_attr_destroy(&attr);
  g_alt_stack_low = static_cast<char*>(low);
  burn_stack_then_trap(20 * 1024);
  return nullptr;
}

TEST_F(FaultInjectionTest, HandlerSurvivesNearExhaustedThreadStack) {
  vm::PhysArena arena(1u << 24);
  ShardedHeap heap(arena, {}, 1);
  g_alt_heap = &heap;
  g_alt_survived = false;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t tid;
  ASSERT_EQ(pthread_create(&tid, &attr, altstack_thread_main, nullptr), 0);
  pthread_attr_destroy(&attr);
  pthread_join(tid, nullptr);
  g_alt_heap = nullptr;
  EXPECT_TRUE(g_alt_survived);
}

TEST_F(FaultInjectionTest, NestedFaultInHandlerExitsWithMinimalReport) {
#ifdef DPG_TSAN
  // TSan's signal interception owns nested-SIGSEGV delivery inside a handler,
  // so the reentrancy bail-out never runs; the plain build covers this path.
  GTEST_SKIP() << "signal-in-signal delivery differs under TSan interception";
#endif
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // A user callback that itself faults: the reentrancy guard must turn
        // the would-be recursion into a minimal report and _exit(134).
        FaultManager::instance().set_callback(
            +[](const DanglingReport&) { store_through_null(); });
        vm::PhysArena arena(1u << 24);
        ShardedHeap heap(arena, {}, 1);
        auto* p = static_cast<char*>(heap.malloc(16));
        heap.free(p);
        volatile char c = *launder_ptr(p);
        (void)c;
      },
      ::testing::ExitedWithCode(134), "fault inside the fault handler");
}

void previous_owner_handler(int) {
  static const char msg[] = "previous-owner-handler\n";
  [[maybe_unused]] ssize_t rc = write(STDERR_FILENO, msg, sizeof msg - 1);
  _exit(7);
}

TEST_F(FaultInjectionTest, ForeignFaultChainsToPreviousHandler) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // Install a classic handler, then put ours back on top: a fault on a
        // non-guarded address must be handed to the previous owner, not
        // swallowed or force-crashed.
        struct sigaction sa{};
        sa.sa_handler = previous_owner_handler;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGSEGV, &sa, nullptr);
        FaultManager::instance().reinstall_for_testing();
        store_through_null();
      },
      ::testing::ExitedWithCode(7), "previous-owner-handler");
}

}  // namespace
}  // namespace dpg::core
