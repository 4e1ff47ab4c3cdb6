// bench_mt — multi-thread guarded malloc/free throughput (DESIGN.md §11).
//
// Two workloads over a ShardedHeap:
//
//   churn    every thread runs tight malloc/free pairs over page-run buffer
//            sizes (4/8 KiB — request/response payloads) — the worst case
//            for the guard layer, since each pair costs an alias mmap + a
//            revocation call unless magazines/batching amortize them away.
//   server   request/response style: threads allocate buffers, touch them,
//            and hand every 4th one to the next thread over an SPSC ring;
//            the receiver frees it (cross-shard remote-free path).
//
// Two configurations:
//
//   seed     1 shard, immediate revocation (one revocation call per free)
//            at the library defaults — the single-mutex paper path.
//   tuned    one shard per thread and batched revocation at the default
//            batch (see tuned_config()), on 256-page slot magazines under
//            either backend. DPG_PROTECT_BATCH overrides the batch, and
//            DPG_REVOKE_BACKEND the backend.
//
// Reported per row: pairs/sec, amortized (mmap + revocation)/pair from the
// vm::sys counters (revocation = mprotect + madvise), frees per
// revocation call, and sampled p99 malloc+free latency. With DPG_BENCH_JSON
// set, every row is exported through the shared bench harness.
//
// --smoke: a few-second self-checking mode for CI (ctest label perf-smoke):
// runs the tuned churn (1 thread) + server (2 threads) workloads and a
// 2-shard immediate-revocation server run, then asserts
//   * amortized (mmap + revocation)/pair < 0.2 on the 1-thread churn, whose
//     count does not depend on thread interleaving (server keeps objects
//     live in the rings, scattering frees across magazine generations, so
//     its ratio is reported but not gated — see EXPERIMENTS.md),
//   * the immediate run, on the host's resolved backend, carves from windows
//     under guard markers (at most 0.1 mmap per pair) and maps none under
//     mprotect, revokes every free with exactly one call, and stays under 2%
//     munmap per pair,
//   * no lost revocations in any run (after flush_all, frees == revoked
//     spans),
//   * the t8 server gates, all on counts: tuned (mmap + revocation)/pair
//     below seed's, and no tuned munmap storm — generations that return
//     their windows whole are what buys the second,
//   * a dangling read still traps, a cross-thread double free still raises,
//   * a remotely-freed object's dangling read traps after the drain.
//
// --backends: emits a machine-readable backend x threads baseline document
// (BENCH_baseline.json) on stdout: the server workload at 1/4/8 threads in
// the tuned shape under mprotect and guard markers, each immediate and
// batched, plus the seed-vs-tuned t8 rows. The knob overrides above apply to
// every row but seed. Every row runs 3 times, the rows interleaved (all rows
// once, then again), and reports the median run's values with the quartiles
// of pairs/sec and p99 across the 3. Per row: the resolved knobs, the
// derived magazine window, the backend, pairs/sec, frees per revocation call
// and the split syscall counters (mmap/munmap/mprotect/madvise). On a kernel
// without guard markers the guard rows record backend_resolved ==
// "mprotect" — the fallback is measured, never faked.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/degrade.h"
#include "core/fault_manager.h"
#include "core/sharded_heap.h"
#include "vm/phys_arena.h"
#include "vm/revoke.h"
#include "vm/vm_stats.h"

namespace {

using dpg::core::GuardConfig;
using dpg::core::ShardedHeap;

struct BenchConfig {
  const char* name;
  std::size_t shards_per_thread;  // 0 = always one shard total
  GuardConfig guard;
};

BenchConfig seed_config() {
  return BenchConfig{"seed", 0, GuardConfig{}};
}

std::size_t knob(const char* env, long fallback) {
  return static_cast<std::size_t>(
      dpg::obs::env_long(env, fallback, 0, 1L << 20));
}

BenchConfig tuned_config() {
  GuardConfig g;
  // Flush at 576 pending pages: matches the earlier 256-free / 4 MiB pair on
  // 4/8 KiB traffic (frees per flush and per revocation call); sub-page
  // objects wait ~2x longer (EXPERIMENTS.md § Multi-thread scaling). Any
  // batch carves 256-page windows on either backend (DESIGN.md §11).
  g.protect_batch = knob("DPG_PROTECT_BATCH", 576);
  return BenchConfig{"tuned", 1, g};
}

// Tuned shape pinned to one revocation backend; `batched` keeps tuned's
// page trigger, otherwise every free revokes immediately (under guard
// markers with the canonical reuse FIFO, under mprotect through the
// per-object alias; DESIGN.md §11).
BenchConfig backend_config(const char* name, dpg::vm::RevokeBackend b,
                           bool batched) {
  BenchConfig c = tuned_config();
  c.name = name;
  c.guard.revoke_backend = b;
  if (!batched) c.guard.protect_batch = 0;
  return c;
}

// xorshift64* — deterministic per-thread sizes, no libc rand contention.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

constexpr std::size_t kSizes[] = {4096, 8192};

// SPSC ring for the server workload's cross-thread hand-off.
struct alignas(64) Ring {
  static constexpr std::size_t kCap = 1024;
  std::atomic<std::size_t> head{0};  // consumer position
  std::atomic<std::size_t> tail{0};  // producer position
  void* slots[kCap] = {};

  bool push(void* p) {
    const std::size_t t = tail.load(std::memory_order_relaxed);
    if (t - head.load(std::memory_order_acquire) == kCap) return false;
    slots[t % kCap] = p;
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
  void* pop() {
    const std::size_t h = head.load(std::memory_order_relaxed);
    if (h == tail.load(std::memory_order_acquire)) return nullptr;
    void* p = slots[h % kCap];
    head.store(h + 1, std::memory_order_release);
    return p;
  }
};

// Point-in-time snapshot of the process-wide syscall counters; rows report
// the delta across their run. Split per call so the backend rows can show
// where the syscalls went (under guard markers the revocations move from
// mprotect to madvise, which only a split counter can witness).
struct SysSnap {
  std::uint64_t mmap = 0;
  std::uint64_t munmap = 0;
  std::uint64_t mprotect = 0;
  std::uint64_t madvise = 0;

  static SysSnap now() {
    const auto& c = dpg::vm::syscall_counters();
    SysSnap s;
    s.mmap = c.mmap.load(std::memory_order_relaxed);
    s.munmap = c.munmap.load(std::memory_order_relaxed);
    s.mprotect = c.mprotect.load(std::memory_order_relaxed);
    s.madvise = c.madvise.load(std::memory_order_relaxed);
    return s;
  }
  SysSnap operator-(const SysSnap& o) const {
    return SysSnap{mmap - o.mmap, munmap - o.munmap, mprotect - o.mprotect,
                   madvise - o.madvise};
  }
};

struct RunResult {
  double seconds = 0;
  std::uint64_t pairs = 0;
  std::uint64_t mm_syscalls = 0;  // mmap + mprotect + madvise
  SysSnap sys;                    // per-call split of the same window
  double p99_us = 0;
  dpg::core::GuardStats stats;
  dpg::vm::RevokeBackend resolved = dpg::vm::RevokeBackend::kAuto;

  [[nodiscard]] double frees_per_revoke() const {
    return stats.protect_calls == 0
               ? 0.0
               : static_cast<double>(stats.frees) /
                     static_cast<double>(stats.protect_calls);
  }
};

RunResult run_workload(const BenchConfig& cfg, unsigned threads,
                       bool server_mode, std::uint64_t pairs_per_thread) {
  dpg::vm::PhysArena arena;
  // Per-run governor: the process-wide ladder is one-way-ish (hysteresis),
  // so sharing it across rows would let one row's degradation silently turn
  // later rows into unguarded no-ops. Also cap the freed-VA hold — unlimited
  // PROT_NONE spans accumulate VMAs until the kernel refuses mprotect, which
  // measures the governor, not the guard path.
  dpg::core::DegradationGovernor gov;
  GuardConfig guard = cfg.guard;
  guard.governor = &gov;
  guard.freed_va_budget = std::size_t{64} << 20;
  const std::size_t shards =
      cfg.shards_per_thread == 0 ? 1 : cfg.shards_per_thread * threads;
  ShardedHeap heap(arena, guard, shards);

  std::vector<Ring> rings(threads);
  std::vector<std::vector<double>> samples(threads);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};

  const SysSnap sys_before = SysSnap::now();
  const auto wall0 = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      dpg::core::FaultManager::ensure_altstack();
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (t + 1);
      auto& my_samples = samples[t];
      my_samples.reserve(pairs_per_thread / 64 + 1);
      Ring& outbox = rings[(t + 1) % threads];
      Ring& inbox = rings[t];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < pairs_per_thread; ++i) {
        const bool sampled = (i & 63) == 0;
        const auto s0 = sampled ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
        const std::size_t size = kSizes[next_rand(rng) % std::size(kSizes)];
        void* p = heap.malloc(size);
        if (p == nullptr) break;
        std::memset(p, static_cast<int>(i), size < 128 ? size : 128);
        if (server_mode && threads > 1 && (i & 3) == 0) {
          if (!outbox.push(p)) heap.free(p);  // inbox full: free locally
        } else {
          heap.free(p);
        }
        if (sampled) {
          const auto s1 = std::chrono::steady_clock::now();
          my_samples.push_back(
              std::chrono::duration<double, std::micro>(s1 - s0).count());
        }
        if (server_mode) {
          while (void* q = inbox.pop()) heap.free(q);  // cross-shard frees
        }
      }
      // Drain whatever is still in flight for this thread's inbox.
      if (server_mode) {
        while (void* q = inbox.pop()) heap.free(q);
      }
    });
  }
  while (ready.load() != threads) {
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  // Late producers can leave entries in a ring after its consumer exits.
  for (auto& r : rings) {
    while (void* q = r.pop()) heap.free(q);
  }
  heap.flush_all();

  const auto wall1 = std::chrono::steady_clock::now();
  RunResult res;
  res.seconds = std::chrono::duration<double>(wall1 - wall0).count();
  res.pairs = pairs_per_thread * threads;
  res.sys = SysSnap::now() - sys_before;
  res.mm_syscalls = res.sys.mmap + res.sys.mprotect + res.sys.madvise;
  res.stats = heap.stats();
  res.resolved = heap.engine(0).revoke_backend();
  std::vector<double> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    res.p99_us = all[std::min(all.size() - 1,
                              static_cast<std::size_t>(all.size() * 0.99))];
  }
  return res;
}

void print_row(const char* workload, unsigned threads, const BenchConfig& cfg,
               const RunResult& r) {
  const double pairs_per_sec = r.pairs / r.seconds;
  const double sys_per_pair =
      static_cast<double>(r.mm_syscalls) / static_cast<double>(r.pairs);
  std::printf(
      "%-8s %2u thr  %-14s  %10.0f pairs/s  %6.3f sys/pair  %6.2f "
      "frees/revoke  p99 %7.2f us  "
      "(magazine hits %llu/%llu maps, batches %llu, remote %llu, "
      "mprotect %llu, madvise %llu, munmap %llu, recycled %llu, "
      "reused %llu)\n",
      workload, threads, cfg.name, pairs_per_sec, sys_per_pair,
      r.frees_per_revoke(), r.p99_us,
      static_cast<unsigned long long>(r.stats.magazine_hits),
      static_cast<unsigned long long>(r.stats.magazine_maps),
      static_cast<unsigned long long>(r.stats.revoke_batches),
      static_cast<unsigned long long>(r.stats.remote_frees),
      static_cast<unsigned long long>(r.sys.mprotect),
      static_cast<unsigned long long>(r.sys.madvise),
      static_cast<unsigned long long>(r.sys.munmap),
      static_cast<unsigned long long>(r.stats.magazine_slots_recycled),
      static_cast<unsigned long long>(r.stats.shadow_pages_reused));
  dpg::bench::Sample sample;
  sample.seconds = r.seconds;
  sample.checksum = r.pairs;
  sample.syscalls = r.mm_syscalls;
  char name[64];
  std::snprintf(name, sizeof name, "mt_%s_t%u", workload, threads);
  dpg::bench::maybe_export_sample(name, cfg.name,
                                  static_cast<double>(r.pairs), sample);
}

// --- backend x threads baseline (--backends) -------------------------------

// Quartile q (0.25, 0.5, 0.75) of `v`, linearly interpolated between ranks.
double quartile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// One row from a cell's repeated runs: the counts and seconds of the run
// with the median pairs/sec, plus the quartiles of pairs/sec and p99.
void json_row(std::FILE* f, const char* workload, unsigned threads,
              const BenchConfig& cfg, const std::vector<RunResult>& runs,
              bool last) {
  std::vector<double> rates;
  std::vector<double> p99s;
  for (const RunResult& r : runs) {
    rates.push_back(r.pairs / r.seconds);
    p99s.push_back(r.p99_us);
  }
  std::vector<const RunResult*> order;
  for (const RunResult& r : runs) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const RunResult* a, const RunResult* b) {
              return a->pairs / a->seconds < b->pairs / b->seconds;
            });
  const RunResult& r = *order[order.size() / 2];
  std::fprintf(
      f,
      "    {\"workload\":\"%s\",\"threads\":%u,\"config\":\"%s\","
      "\"backend_requested\":\"%s\",\"backend_resolved\":\"%s\","
      "\"magazine_slots\":%zu,\"protect_batch\":%zu,"
      "\"frees_per_revoke\":%.2f,\"reps\":%zu,"
      "\"seconds\":%.6f,\"pairs\":%llu,\"pairs_per_sec\":%.0f,"
      "\"pairs_per_sec_q1\":%.0f,\"pairs_per_sec_q3\":%.0f,"
      "\"mmap\":%llu,\"munmap\":%llu,\"mprotect\":%llu,\"madvise\":%llu,"
      "\"revoke_batches\":%llu,\"magazine_hits\":%llu,"
      "\"p99_us\":%.2f,\"p99_us_q1\":%.2f,\"p99_us_q3\":%.2f}%s\n",
      workload, threads, cfg.name,
      dpg::vm::backend_name(cfg.guard.revoke_backend),
      dpg::vm::backend_name(r.resolved),
      dpg::core::ShadowEngine::magazine_window(cfg.guard),
      cfg.guard.protect_batch, r.frees_per_revoke(), runs.size(), r.seconds,
      static_cast<unsigned long long>(r.pairs), quartile(rates, 0.5),
      quartile(rates, 0.25), quartile(rates, 0.75),
      static_cast<unsigned long long>(r.sys.mmap),
      static_cast<unsigned long long>(r.sys.munmap),
      static_cast<unsigned long long>(r.sys.mprotect),
      static_cast<unsigned long long>(r.sys.madvise),
      static_cast<unsigned long long>(r.stats.revoke_batches),
      static_cast<unsigned long long>(r.stats.magazine_hits),
      quartile(p99s, 0.5), quartile(p99s, 0.25), quartile(p99s, 0.75),
      last ? "" : ",");
}

// Emits the BENCH_baseline.json document on stdout: the backend matrix at
// 1/4/8 threads plus the seed/tuned t8 rows the smoke gate is calibrated
// against. Progress goes to stderr so `bench_mt --backends > file` is clean.
int backends() {
  constexpr std::size_t kReps = 3;
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 20000, 100, 10'000'000));
  const bool guard = dpg::vm::Revoker::guard_supported();

  std::printf("{\n");
  std::printf("  \"type\": \"dpg_backend_baseline\",\n");
  std::printf("  \"schema\": 5,\n");
  std::printf("  \"workload\": \"server\",\n");
  std::printf("  \"pairs_per_thread\": %llu,\n",
              static_cast<unsigned long long>(pairs));
  std::printf("  \"guard_supported\": %s,\n", guard ? "true" : "false");
  std::printf("  \"rows\": [\n");

  using dpg::vm::RevokeBackend;
  std::vector<std::pair<unsigned, BenchConfig>> cells;
  for (unsigned t : {1u, 4u, 8u}) {
    cells.emplace_back(
        t, backend_config("mprotect", RevokeBackend::kMprotect, false));
    cells.emplace_back(
        t, backend_config("mprotect+batch", RevokeBackend::kMprotect, true));
    cells.emplace_back(t, backend_config("guard", RevokeBackend::kGuard, false));
    cells.emplace_back(
        t, backend_config("guard+batch", RevokeBackend::kGuard, true));
  }
  cells.emplace_back(8, seed_config());
  cells.emplace_back(8, tuned_config());

  std::vector<std::vector<RunResult>> runs(cells.size());
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& [threads, bench] = cells[i];
      std::fprintf(stderr, "backends: rep %zu %s t%u...\n", rep + 1,
                   bench.name, threads);
      runs[i].push_back(run_workload(bench, threads, true, pairs));
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& [threads, bench] = cells[i];
    json_row(stdout, "server", threads, bench, runs[i],
             i + 1 == cells.size());
  }
  std::printf("  ]\n}\n");
  return 0;
}

// --- smoke-mode correctness probes -----------------------------------------

int fail(const char* what) {
  std::fprintf(stderr, "perf-smoke FAILED: %s\n", what);
  return 1;
}

int smoke() {
  const unsigned threads = 2;
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 30000, 100, 10'000'000));
  const BenchConfig cfg = tuned_config();

  // Throughput + syscall amortization on the tuned path. The churn run is
  // single-threaded so its syscall count cannot depend on thread
  // interleaving, which a sanitizer's scheduling shifts.
  const RunResult churn = run_workload(cfg, 1, false, pairs);
  print_row("churn", 1, cfg, churn);
  const RunResult server = run_workload(cfg, threads, true, pairs);
  print_row("server", threads, cfg, server);
  // The immediate path (the preload default) on the host's resolved backend:
  // window-carved aliases under guard markers, per-object aliases under
  // mprotect; one revocation call per free either way.
  const BenchConfig imm =
      backend_config("auto", dpg::vm::RevokeBackend::kAuto, false);
  const bool imm_windows =
      dpg::core::ShadowEngine::magazine_window(imm.guard) != 0;
  const RunResult immediate = run_workload(imm, threads, true, pairs);
  print_row("server", threads, imm, immediate);

  // Amortization gate on the pure pair workload. (The server workload keeps
  // objects live in the rings, which scatters frees across magazine
  // generations and fragments the coalesced runs — its numbers are reported
  // in EXPERIMENTS.md but not gated here.)
  const double churn_sys_per_pair =
      static_cast<double>(churn.mm_syscalls) /
      static_cast<double>(churn.pairs);
  if (churn_sys_per_pair >= 0.2) {
    return fail("amortized syscalls/pair >= 0.2 on 1-thread churn");
  }
  if (imm_windows && immediate.sys.mmap * 10 > immediate.pairs) {
    std::fprintf(stderr, "immediate: mmap %llu over %llu pairs\n",
                 static_cast<unsigned long long>(immediate.sys.mmap),
                 static_cast<unsigned long long>(immediate.pairs));
    return fail("immediate mmap above 0.1 per pair");
  }
  if (!imm_windows && immediate.stats.magazine_maps != 0) {
    return fail("immediate revocation under mprotect mapped a magazine");
  }
  const std::uint64_t revocation_calls =
      immediate.sys.mprotect + immediate.sys.madvise;
  if (revocation_calls != immediate.stats.frees ||
      immediate.stats.frees != immediate.stats.revoked_spans) {
    std::fprintf(
        stderr, "immediate: revocation calls %llu, frees %llu, "
        "revoked spans %llu\n",
        static_cast<unsigned long long>(revocation_calls),
        static_cast<unsigned long long>(immediate.stats.frees),
        static_cast<unsigned long long>(immediate.stats.revoked_spans));
    return fail("immediate revocation calls != frees != revoked spans");
  }
  if (immediate.sys.munmap * 50 >= immediate.pairs) {
    std::fprintf(stderr, "immediate: munmap %llu over %llu pairs\n",
                 static_cast<unsigned long long>(immediate.sys.munmap),
                 static_cast<unsigned long long>(immediate.pairs));
    return fail("immediate munmap storm (>= 2% of pairs)");
  }
  for (const RunResult* r : {&churn, &server, &immediate}) {
    // No lost revocations: after flush_all every free must have reached
    // PROT_NONE (nothing pending, nothing silently dropped). Quarantined and
    // degraded frees would break the equality, so prove there were none.
    if (r->stats.guard_failures != 0) return fail("guard failures in run");
    if (r->stats.degraded_allocs != 0) return fail("degraded allocs in run");
    if (r->stats.frees != r->stats.revoked_spans) {
      std::fprintf(stderr, "frees=%llu revoked=%llu\n",
                   static_cast<unsigned long long>(r->stats.frees),
                   static_cast<unsigned long long>(r->stats.revoked_spans));
      return fail("lost revocations (frees != revoked spans)");
    }
  }

  // t8 server gates. The tuned configuration used to trade throughput for
  // syscalls at 8 threads (167k munmaps to the seed's 73k — the
  // shared-freelist trim storm). Generations now return their windows whole,
  // so no slot-sized fragment reaches the freelist to trim. Every gate is a
  // deterministic count: same-config throughput swings +-20% under a
  // parallel ctest, so the tuned >= 0.6x seed pairs/s ratio is gated by the
  // nightly workflow on serial runs instead:
  //   1. amortization — tuned (mmap + revocation)/pair below seed's (about
  //      0.93 vs 2.0 when measured),
  //   2. absolute storm ceiling — tuned munmap must stay under 2% of pairs
  //      (with slot fragments it was 35-47%; whole windows measure literal
  //      0),
  //   3. comparative — when the seed run itself storms (>=1000 munmaps),
  //      tuned must stay under half of it.
  const std::uint64_t t8_pairs = pairs / 2 < 100 ? 100 : pairs / 2;
  const BenchConfig seed8 = seed_config();
  const BenchConfig tuned8 = tuned_config();
  const RunResult s8 = run_workload(seed8, 8, true, t8_pairs);
  print_row("server", 8, seed8, s8);
  const RunResult u8 = run_workload(tuned8, 8, true, t8_pairs);
  print_row("server", 8, tuned8, u8);
  std::printf("t8 server frees/revoke: seed %.2f, tuned %.2f\n",
              s8.frees_per_revoke(), u8.frees_per_revoke());
  if (u8.mm_syscalls * s8.pairs >= s8.mm_syscalls * u8.pairs) {
    std::fprintf(stderr, "t8 server: tuned %llu vs seed %llu syscalls\n",
                 static_cast<unsigned long long>(u8.mm_syscalls),
                 static_cast<unsigned long long>(s8.mm_syscalls));
    return fail("t8 server tuned (mmap + revocation)/pair not below seed");
  }
  if (u8.sys.munmap * 50 >= u8.pairs) {
    std::fprintf(stderr, "t8 server: tuned munmap %llu over %llu pairs\n",
                 static_cast<unsigned long long>(u8.sys.munmap),
                 static_cast<unsigned long long>(u8.pairs));
    return fail("t8 server tuned munmap storm (>= 2% of pairs)");
  }
  if (s8.sys.munmap >= 1000 && u8.sys.munmap * 2 >= s8.sys.munmap) {
    std::fprintf(stderr, "t8 server: tuned munmap %llu vs seed %llu\n",
                 static_cast<unsigned long long>(u8.sys.munmap),
                 static_cast<unsigned long long>(s8.sys.munmap));
    return fail("t8 server tuned munmap not under 0.5x seed");
  }
  for (const RunResult* r : {&s8, &u8}) {
    if (r->stats.guard_failures != 0) return fail("guard failures in t8 run");
    if (r->stats.frees != r->stats.revoked_spans) {
      return fail("lost revocations in t8 run");
    }
  }

  // The guard-requested configuration keeps full detection accounting
  // whether it lands on guard markers or the mprotect fallback (this is the
  // backend-matrix smoke contract: same frees, same revocations, zero
  // failures).
  {
    const BenchConfig gc =
        backend_config("guard+batch", dpg::vm::RevokeBackend::kGuard, true);
    const RunResult r = run_workload(gc, 2, true, t8_pairs / 4);
    print_row("server", 2, gc, r);
    if (r.stats.guard_failures != 0) return fail("guard run guard failures");
    if (r.stats.frees != r.stats.revoked_spans) {
      return fail("guard run lost revocations");
    }
    if (r.resolved == dpg::vm::RevokeBackend::kGuard) {
      // Every revocation run is one madvise; none falls back to mprotect.
      if (r.sys.mprotect != 0) return fail("guard backend issued mprotect");
      if (r.sys.madvise != r.stats.protect_calls) {
        return fail("guard revocations != madvise calls");
      }
    } else if (dpg::vm::Revoker::guard_supported()) {
      return fail("guard requested on a guard-capable kernel but fell back");
    }
  }

  // Detection still works in the tuned configuration.
  dpg::vm::PhysArena arena;
  dpg::core::DegradationGovernor probe_gov;
  GuardConfig probe_cfg = cfg.guard;
  probe_cfg.governor = &probe_gov;
  ShardedHeap heap(arena, probe_cfg, 2);

  // (a) dangling read after a same-thread free + flush.
  char* p = static_cast<char*>(heap.malloc(128));
  p[0] = 'x';
  heap.free(p);
  heap.flush_all();
  auto rep = dpg::core::catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  if (!rep.has_value()) return fail("dangling read not trapped");

  // (b) cross-thread free: A mallocs, B frees; after the drain the span is
  // revoked and a dangling read traps with the object attributed correctly.
  char* q = static_cast<char*>(heap.malloc(256));
  std::thread freer([&] { heap.free(q, /*site=*/77); });
  freer.join();
  heap.flush_all();
  rep = dpg::core::catch_dangling([&] {
    volatile char c = *q;
    (void)c;
  });
  if (!rep.has_value()) return fail("cross-thread freed read not trapped");
  if (rep->object_base != dpg::vm::addr(q)) {
    return fail("cross-thread report attributes wrong object");
  }

  // (c) double free of a remotely-freed object raises even while the
  // revocation may still be queued (the record CAS, not the page state,
  // detects it).
  char* d = static_cast<char*>(heap.malloc(64));
  std::thread freer2([&] { heap.free(d); });
  freer2.join();
  rep = dpg::core::catch_dangling([&] { heap.free(d); });
  if (!rep.has_value()) return fail("double free after remote free missed");
  if (rep->kind != dpg::core::AccessKind::kFree) {
    return fail("double free misclassified");
  }

  std::printf("perf-smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return smoke();
  if (argc > 1 && std::strcmp(argv[1], "--backends") == 0) return backends();

  const double scale = dpg::bench::env_scale();
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      20000 * scale < 100 ? 100 : 20000 * scale);
  dpg::bench::print_header(
      "bench_mt — thread-sharded engines, magazines, batched revocation",
      "pairs/sec and amortized (mmap + revocation)/pair; see EXPERIMENTS.md");
  for (const char* workload : {"churn", "server"}) {
    const bool server_mode = std::strcmp(workload, "server") == 0;
    for (unsigned threads : {1u, 4u, 8u}) {
      for (const BenchConfig& cfg : {seed_config(), tuned_config()}) {
        const RunResult r = run_workload(cfg, threads, server_mode, pairs);
        print_row(workload, threads, cfg, r);
      }
    }
  }
  return 0;
}
