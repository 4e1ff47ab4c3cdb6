// Ablation bench for the design choices DESIGN.md calls out plus the §6
// extensions: VA reuse on/off, batched protection sweep, and the
// trailing-guard-page cost. Every row runs on the resolved revocation
// backend; DPG_REVOKE_BACKEND=mprotect|guard pins it. DPG_BENCH_JSON writes
// the rows (ns/pair median and quartiles, and the median rep's counts) to
// BENCH_ablation.json.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
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
  const char* rung = nullptr;  // the ENOMEM row names the rung it rode
};

constexpr int kPairs = 20000;
constexpr std::size_t kSize = 64;

void pairs(core::ShardedHeap& heap, int n) {
  for (int i = 0; i < n; ++i) heap.free(heap.malloc(kSize));
}

// Guard-elision path: what the static UAF analysis buys for a site it proved
// SAFE — canonical heap only, no shadow alias at malloc, no PROT_NONE at
// free. The syscall column should read ~zero in steady state.
void elided_pairs(core::ShardedHeap& heap, int n) {
  auto& engine = heap.engine(0);
  for (int i = 0; i < n; ++i) {
    engine.free_unguarded(engine.malloc_unguarded(kSize));
  }
}

// Batch mode shines when frees cluster (teardown phases): allocate a wave,
// then free the wave.
void waves(core::ShardedHeap& heap, int n) {
  constexpr int kWave = 500;
  std::vector<void*> wave;
  wave.reserve(kWave);
  for (int round = 0; round < n / kWave; ++round) {
    for (int i = 0; i < kWave; ++i) wave.push_back(heap.malloc(kSize));
    for (void* p : wave) heap.free(p);
    wave.clear();
  }
}

// Times body(heap, kPairs) and a final flush on a fresh one-shard heap,
// after body(heap, warm) and a flush so that steady-state reuse (not
// first-touch mmap) is measured, as in a long-running server. Reports ns
// per pair and mm-syscalls of the timed part, and the heap's revocation
// counts, warm-up included. `trim_limit` is the shadow VA list's high-water
// range count; 1 munmaps every released span at once, the never-reuse
// scheme of §3.3.
Result timed_pairs(const core::GuardConfig& cfg, int warm = 256,
                   void (*body)(core::ShardedHeap&, int) = pairs,
                   std::size_t trim_limit = vm::VaFreeList::kDefaultTrimLimit) {
  vm::PhysArena arena(std::size_t{1} << 31);
  core::ShardedHeap heap(arena, cfg, 1);
  heap.shadow_freelist().set_trim_limit(trim_limit);
  body(heap, warm);
  heap.engine(0).flush_protections();
  const std::uint64_t sys_before = vm::syscall_counters().total();
  const auto t0 = std::chrono::steady_clock::now();
  body(heap, kPairs);
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

// Pairs under a governor forced to `mode`; a sticky one (recover_after = 0)
// keeps the rung from healing mid-run.
Result forced(const core::GuardConfig& base, core::GuardMode mode,
              core::GovernorConfig gc) {
  core::DegradationGovernor gov(gc);
  gov.force_mode(mode);
  core::GuardConfig cfg = base;
  cfg.governor = &gov;
  return timed_pairs(cfg);
}

// Pairs while the kernel refuses every 50th mmap. Which rung it measures
// depends on the backend's mmap rate: under mprotect every object maps its
// own alias, refusals land and the ladder rides the sampled rung; under
// guard markers windows map about one object in a hundred and it stays at
// full guard. The row names the rung it spent the most time on.
Result enomem(const core::GuardConfig& base) {
  core::DegradationGovernor gov;
  core::GuardConfig cfg = base;
  cfg.governor = &gov;
  (void)vm::sys::set_fault_plan("mmap:errno=ENOMEM:every=50");
  Result r = timed_pairs(cfg);
  vm::sys::clear_fault_plan();
  core::GuardMode most = core::GuardMode::kFullGuard;
  for (int m = 1; m < core::kRungCount; ++m) {
    const auto rung = static_cast<core::GuardMode>(m);
    if (gov.residency_ns(rung) > gov.residency_ns(most)) most = rung;
  }
  r.rung = core::to_string(most);
  return r;
}

struct Row {
  std::string label;
  std::function<Result()> run;
};

// Times a section's rows through the shared harness (every row once per rep,
// rotated), prints ns/pair as median [q1-q3] with the counts of the median
// rep, and adds each row to `doc`.
void section(const char* title, const std::vector<Row>& rows,
             bench::Doc& doc) {
  if (title != nullptr) std::printf("\n--- %s ---\n", title);
  const auto reps = bench::interleave(
      rows.size(), [&](std::size_t c) { return rows[c].run(); });
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const std::vector<double> ns =
        bench::each(reps[c], [](const Result& r) { return r.ns_per_pair; });
    const Result& r = reps[c][bench::median_rep(ns)];
    const std::string label =
        r.rung == nullptr ? rows[c].label : rows[c].label + " (" + r.rung + ")";
    const auto mm = static_cast<unsigned long long>(r.mm_syscalls);
    const auto calls = static_cast<unsigned long long>(r.protect_calls);
    const auto saved = static_cast<unsigned long long>(r.protect_saved);
    std::printf("%-34s %22s %12llu %12llu %10llu\n", label.c_str(),
                bench::Spread(ns).show(0).c_str(), mm, calls, saved);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"section\":\"%s\",\"row\":\"%s\",\"reps\":%zu,"
                  "\"ns_per_pair\":%s,\"mm_syscalls\":%llu,"
                  "\"protect_calls\":%llu,\"protect_saved\":%llu}",
                  title != nullptr ? title : "", label.c_str(), ns.size(),
                  bench::Spread(ns).json().c_str(), mm, calls, saved);
    doc.rows.emplace_back(buf);
  }
}

}  // namespace

int main() {
  // Pin the site-backtrace knob so every row except the dedicated section
  // below measures the guard machinery alone (DPG_SITE_DEPTH defaults to 8).
  obs::set_site_depth(0);
  bench::print_header(("Ablations: " + std::to_string(kPairs) +
                       " malloc/free pairs of 64 B, steady state").c_str(),
                      "ns/pair: median [q1-q3] over interleaved reps");
  std::printf("%-34s %22s %12s %12s %10s\n", "configuration", "ns/pair",
              "mm-syscalls", "mprotects", "saved");
  bench::Doc doc{"dpg_bench",
                 "  \"bench\": \"ablation\",\n  \"pairs\": " +
                     std::to_string(kPairs) + ",\n  \"size\": " +
                     std::to_string(kSize) + ",\n",
                 {}};

  core::GuardConfig base;
  base.freed_va_budget = 32u << 20;
  auto with = [&](std::size_t batch, bool guard_page = false) {
    core::GuardConfig cfg = base;
    cfg.protect_batch = batch;
    cfg.trailing_guard_page = guard_page;
    return cfg;
  };
  std::vector<Row> rows = {
      {"baseline (reuse, no batch)", [&] { return timed_pairs(base); }},
      {"guards elided (static SAFE site)",
       [&] { return timed_pairs(base, 256, elided_pairs); }},
      {"VA reuse OFF (munmap each release)",
       [&] { return timed_pairs(base, 256, pairs, 1); }},
      {"trailing guard page", [&] { return timed_pairs(with(0, true)); }},
  };
  for (const std::size_t batch : {16, 64, 256}) {
    rows.push_back({"batch=" + std::to_string(batch) +
                        " pages, interleaved frees",
                    [=] { return timed_pairs(with(batch)); }});
  }
  section(nullptr, rows, doc);

  // Site-backtrace cost (obs/backtrace.h): the frame-pointer walk staged at
  // every guarded malloc/free, by captured depth. Depth 0 must read the same
  // as baseline — the capture is a single atomic load and branch when off.
  rows.clear();
  for (const std::size_t depth : {0, 4, 8}) {
    rows.push_back({"site-depth=" + std::to_string(depth), [&, depth] {
                      obs::set_site_depth(depth);
                      const Result r = timed_pairs(base);
                      obs::set_site_depth(0);
                      return r;
                    }});
  }
  section("site backtraces (DPG_SITE_DEPTH; postmortem dumps)", rows, doc);

  // What each rung of the degradation ladder costs/saves, and what a churn
  // loop looks like while the kernel intermittently refuses mmap.
  rows.clear();
  // The sampled rung's overhead-vs-detection dial: 1-in-N allocations pay
  // the full guard, the rest take the ledgered fast path. N=1 must read like
  // full guarding; large N must approach the quarantine-only floor while
  // double frees stay exactly detected (sample_rate_max == N keeps N
  // pinned).
  for (const std::size_t n : {1, 8, 64, 512}) {
    rows.push_back({"forced sampled 1-in-" + std::to_string(n), [&, n] {
                      return forced(base, core::GuardMode::kSampled,
                                    {.recover_after = 0, .sample_rate = n,
                                     .sample_rate_max = n});
                    }});
  }
  rows.push_back({"forced quarantine-only", [&] {
                    return forced(base, core::GuardMode::kQuarantineOnly,
                                  {.recover_after = 0});
                  }});
  rows.push_back({"mmap ENOMEM every=50", [&] { return enomem(base); }});
  section("degradation ladder (core/degrade.h)", rows, doc);

  rows = {{"no batch, waves", [&] { return timed_pairs(base, 0, waves); }}};
  for (const std::size_t batch : {64, 256}) {
    rows.push_back({"batch=" + std::to_string(batch) + " pages, waves",
                    [=] { return timed_pairs(with(batch), 0, waves); }});
  }
  section("wave frees (teardown-like: adjacent spans merge)", rows, doc);
  doc.write("ablation");

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
