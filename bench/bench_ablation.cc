// Ablation bench for the design choices DESIGN.md calls out plus the §6
// extensions: VA reuse on/off, batched protection sweep, and the
// trailing-guard-page cost. Every row runs on the resolved revocation
// backend; DPG_REVOKE_BACKEND=mprotect|guard pins it.
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/degrade.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "core/stats.h"
#include "obs/backtrace.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

using namespace dpg;

namespace {

struct Result {
  double ns_per_pair;
  std::uint64_t mm_syscalls;
  std::uint64_t protect_calls;
  std::uint64_t protect_saved;
};

constexpr int kPairs = 20000;

// `trim_limit` is the shadow VA list's high-water range count; 1 munmaps
// every released span at once, the never-reuse scheme of §3.3.
Result churn(const core::GuardConfig& cfg, std::size_t size,
             std::size_t trim_limit = vm::VaFreeList::kDefaultTrimLimit) {
  vm::PhysArena arena(std::size_t{1} << 31);
  core::ShardedHeap heap(arena, cfg, 1);
  heap.shadow_freelist().set_trim_limit(trim_limit);
  // Warm the free list so steady-state reuse (not first-touch mmap) is
  // measured, as in a long-running server.
  for (int i = 0; i < 256; ++i) heap.free(heap.malloc(size));
  heap.engine(0).flush_protections();

  const std::uint64_t sys_before = vm::syscall_counters().total();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPairs; ++i) {
    void* p = heap.malloc(size);
    heap.free(p);
  }
  heap.engine(0).flush_protections();
  const auto t1 = std::chrono::steady_clock::now();
  const auto stats = heap.stats();
  return Result{
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kPairs,
      vm::syscall_counters().total() - sys_before,
      stats.protect_calls,
      stats.protect_calls_saved,
  };
}

// Guard-elision path: what the static UAF analysis buys for a site it proved
// SAFE — canonical heap only, no shadow alias at malloc, no PROT_NONE at
// free. The syscall column should read ~zero in steady state.
Result churn_elided(const core::GuardConfig& cfg, std::size_t size) {
  vm::PhysArena arena(std::size_t{1} << 31);
  core::ShardedHeap heap(arena, cfg, 1);
  auto& engine = heap.engine(0);
  for (int i = 0; i < 256; ++i) {
    engine.free_unguarded(engine.malloc_unguarded(size));
  }
  const std::uint64_t sys_before = vm::syscall_counters().total();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPairs; ++i) {
    void* p = engine.malloc_unguarded(size);
    engine.free_unguarded(p);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto stats = heap.stats();
  return Result{
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kPairs,
      vm::syscall_counters().total() - sys_before,
      stats.protect_calls,
      stats.protect_calls_saved,
  };
}

// Batch mode shines when frees cluster (teardown phases): allocate a wave,
// then free the wave.
Result wave_churn(const core::GuardConfig& cfg, std::size_t size) {
  vm::PhysArena arena(std::size_t{1} << 31);
  core::ShardedHeap heap(arena, cfg, 1);
  constexpr int kWave = 500;
  const std::uint64_t sys_before = vm::syscall_counters().total();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<void*> wave;
  wave.reserve(kWave);
  for (int round = 0; round < kPairs / kWave; ++round) {
    for (int i = 0; i < kWave; ++i) wave.push_back(heap.malloc(size));
    for (void* p : wave) heap.free(p);
    wave.clear();
  }
  heap.engine(0).flush_protections();
  const auto t1 = std::chrono::steady_clock::now();
  const auto stats = heap.stats();
  return Result{
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kPairs,
      vm::syscall_counters().total() - sys_before,
      stats.protect_calls,
      stats.protect_calls_saved,
  };
}

void row(const char* label, const Result& r) {
  std::printf("%-34s %10.0f %12llu %12llu %10llu\n", label, r.ns_per_pair,
              static_cast<unsigned long long>(r.mm_syscalls),
              static_cast<unsigned long long>(r.protect_calls),
              static_cast<unsigned long long>(r.protect_saved));
}

}  // namespace

int main() {
  // Pin the site-backtrace knob so every row except the dedicated section
  // below measures the guard machinery alone (DPG_SITE_DEPTH defaults to 8).
  obs::set_site_depth(0);
  std::printf("================================================================\n");
  std::printf("Ablations: %d malloc/free pairs of 64 B, steady state\n", kPairs);
  std::printf("================================================================\n");
  std::printf("%-34s %10s %12s %12s %10s\n", "configuration", "ns/pair",
              "mm-syscalls", "mprotects", "saved");

  core::GuardConfig base;
  base.freed_va_budget = 32u << 20;
  row("baseline (reuse, no batch)", churn(base, 64));
  row("guards elided (static SAFE site)", churn_elided(base, 64));
  row("VA reuse OFF (munmap each release)", churn(base, 64, 1));

  core::GuardConfig guard = base;
  guard.trailing_guard_page = true;
  row("trailing guard page", churn(guard, 64));

  for (const std::size_t batch : {std::size_t{16}, std::size_t{64},
                                  std::size_t{256}}) {
    core::GuardConfig batched = base;
    batched.protect_batch = batch;
    char label[64];
    std::snprintf(label, sizeof label, "batch=%zu pages, interleaved frees",
                  batch);
    row(label, churn(batched, 64));
  }

  // Site-backtrace cost (obs/backtrace.h): the frame-pointer walk staged at
  // every guarded malloc/free, by captured depth. Depth 0 must read the same
  // as baseline — the capture is a single atomic load and branch when off.
  std::printf("\n--- site backtraces (DPG_SITE_DEPTH; postmortem dumps) ---\n");
  for (const std::size_t depth : {std::size_t{0}, std::size_t{4},
                                  std::size_t{8}}) {
    obs::set_site_depth(depth);
    char label[64];
    std::snprintf(label, sizeof label, "site-depth=%zu", depth);
    row(label, churn(base, 64));
  }
  obs::set_site_depth(0);

  // What each rung of the degradation ladder costs/saves, and what a churn
  // loop looks like while the kernel intermittently refuses mmap. Sticky
  // governors (recover_after = 0) keep the forced rung from healing mid-run.
  std::printf("\n--- degradation ladder (core/degrade.h) ---\n");
  // The sampled rung's overhead-vs-detection dial: 1-in-N allocations pay
  // the full guard, the rest take the ledgered fast path. N=1 must read like
  // full guarding; large N must approach the quarantine-only floor while
  // double frees stay exactly detected (sample_rate_max == N keeps N
  // pinned).
  for (const std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                              std::size_t{512}}) {
    core::DegradationGovernor gov(
        {.recover_after = 0, .sample_rate = n, .sample_rate_max = n});
    gov.force_mode(core::GuardMode::kSampled);
    core::GuardConfig cfg = base;
    cfg.governor = &gov;
    char label[64];
    std::snprintf(label, sizeof label, "forced sampled 1-in-%zu", n);
    row(label, churn(cfg, 64));
  }
  {
    core::DegradationGovernor gov({.recover_after = 0});
    gov.force_mode(core::GuardMode::kQuarantineOnly);
    core::GuardConfig cfg = base;
    cfg.governor = &gov;
    row("forced quarantine-only", churn(cfg, 64));
  }
  {
    core::DegradationGovernor gov;
    core::GuardConfig cfg = base;
    cfg.governor = &gov;
    (void)vm::sys::set_fault_plan("mmap:errno=ENOMEM:every=50");
    const Result r = churn(cfg, 64);
    vm::sys::clear_fault_plan();
    // Which rung this row measures depends on the backend's mmap rate:
    // under mprotect every object maps its own alias, refusals land and the
    // ladder rides the sampled rung; under guard markers windows map about
    // one object in a hundred and it stays at full guard. The label names
    // the rung the row spent the most time on.
    core::GuardMode most = core::GuardMode::kFullGuard;
    for (int m = 1; m < core::kRungCount; ++m) {
      const auto rung = static_cast<core::GuardMode>(m);
      if (gov.residency_ns(rung) > gov.residency_ns(most)) most = rung;
    }
    char label[64];
    std::snprintf(label, sizeof label, "mmap ENOMEM every=50 (%s)",
                  core::to_string(most));
    row(label, r);
  }

  std::printf("\n--- wave frees (teardown-like: adjacent spans merge) ---\n");
  row("no batch, waves", wave_churn(base, 64));
  for (const std::size_t batch : {std::size_t{64}, std::size_t{256}}) {
    core::GuardConfig batched = base;
    batched.protect_batch = batch;
    char label[64];
    std::snprintf(label, sizeof label, "batch=%zu pages, waves", batch);
    row(label, wave_churn(batched, 64));
  }

  std::printf("\nInterpretation: alloc/free cost is syscall-bound; batching\n"
              "pays when frees cluster (adjacent shadow spans merge into one\n"
              "mprotect), at the cost of a bounded detection-delay window.\n"
              "Guard pages add one tail revocation per allocation.\n"
              "The elided row is the static-analysis dividend: a SAFE site\n"
              "skips the shadow alias and the PROT_NONE revocation entirely.\n"
              "Degraded rungs trade detection for survival: quarantine-only\n"
              "drops the per-pair syscalls to ~zero while parking freed\n"
              "memory and keeping double/invalid frees exact. The injected\n"
              "row shows the governor riding out intermittent kernel\n"
              "refusals, on the rung its label names.\n");
  return 0;
}
