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
// Reported per row: pairs/sec as median [q1-q3] over DPG_BENCH_REPS
// interleaved reps (bench_common.h) and, from the rep with the median
// pairs/sec, amortized (mmap + revocation)/pair from the vm::sys counters
// (revocation = mprotect + madvise), frees per revocation call, and sampled
// p99 malloc+free latency. DPG_BENCH_JSON writes the rows to BENCH_mt.json.
//
// --smoke: a few-second self-checking mode for CI (ctest label perf-smoke),
// one run per row: the tuned churn (1 thread) and server (2 threads), an
// immediate-revocation server, the t8 seed/tuned servers and a guard-marker
// server, gated on counts only (syscalls per pair, lost revocations, munmap
// storms; see smoke()), then trap probes on the same-thread, cross-thread
// and double-free paths. A failed gate prints the values it compared.
//
// --backends: emits the backend x threads baseline document
// (BENCH_baseline.json) on stdout: the server workload at 1/4/8 threads over
// libc malloc/free (config "raw", at 128x the guarded rows' pairs) and in the
// tuned shape under mprotect and guard markers, each immediate and batched,
// plus the seed-vs-tuned t8 rows
// (the knob overrides above apply to every guarded row but seed). All cells
// are one harness row. Per row: the knobs, the magazine window, the
// backend, pairs/sec and p99 with quartiles, frees per revocation call and
// the split syscall counters. On a kernel without guard markers the guard
// rows record backend_resolved == "mprotect": measured, never faked.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
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
using ull = unsigned long long;

struct BenchConfig {
  const char* name;
  std::size_t shards_per_thread;  // 0 = always one shard total
  GuardConfig guard;
  bool raw = false;  // libc malloc/free, no guard at all
};

BenchConfig seed_config() { return BenchConfig{"seed", 0, GuardConfig{}}; }

BenchConfig raw_config() { return BenchConfig{"raw", 0, GuardConfig{}, true}; }

BenchConfig tuned_config() {
  GuardConfig g;
  // Flush at 576 pending pages: matches the earlier 256-free / 4 MiB pair on
  // 4/8 KiB traffic (frees per flush and per revocation call); sub-page
  // objects wait ~2x longer (EXPERIMENTS.md § Multi-thread scaling). Any
  // batch carves 256-page windows on either backend (DESIGN.md §11).
  g.protect_batch = static_cast<std::size_t>(
      dpg::obs::env_long("DPG_PROTECT_BATCH", 576, 0, 1L << 20));
  return BenchConfig{"tuned", 1, g};
}

// Tuned shape pinned to one revocation backend; `batched` keeps tuned's
// page trigger, otherwise every free revokes immediately (under guard
// markers with the canonical reuse FIFO, under mprotect through the
// per-object alias; DESIGN.md §11).
BenchConfig backend_config(dpg::vm::RevokeBackend b, bool batched) {
  BenchConfig c = tuned_config();
  c.name = !batched ? dpg::vm::backend_name(b)
           : b == dpg::vm::RevokeBackend::kGuard ? "guard+batch"
                                                 : "mprotect+batch";
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
    return {c.mmap.load(), c.munmap.load(), c.mprotect.load(),
            c.madvise.load()};
  }
  SysSnap operator-(const SysSnap& o) const {
    return SysSnap{mmap - o.mmap, munmap - o.munmap, mprotect - o.mprotect,
                   madvise - o.madvise};
  }
};

struct RunResult {
  double seconds = 0;
  std::uint64_t pairs = 0;
  SysSnap sys;
  double p99_us = 0;
  dpg::core::GuardStats stats;
  dpg::core::GuardStats warm;  // stats after the untimed warm-up, if any
  dpg::vm::RevokeBackend resolved = dpg::vm::RevokeBackend::kAuto;

  [[nodiscard]] std::uint64_t mm_syscalls() const {
    return sys.mmap + sys.mprotect + sys.madvise;
  }
  [[nodiscard]] double pairs_per_sec() const { return pairs / seconds; }
  [[nodiscard]] double sys_per_pair() const {
    return static_cast<double>(mm_syscalls()) / static_cast<double>(pairs);
  }
  [[nodiscard]] double frees_per_revoke() const {
    return stats.protect_calls == 0
               ? 0.0
               : static_cast<double>(stats.frees) /
                     static_cast<double>(stats.protect_calls);
  }
};

// libc malloc/free behind the heap's interface, for the raw rows.
struct Libc {
  static void* malloc(std::size_t n) { return std::malloc(n); }
  static void free(void* p) { std::free(p); }
  static void flush_all() {}
};

// Runs the workload over `heap` and times it, flush included.
template <typename Heap>
RunResult drive(Heap& heap, unsigned threads, bool server_mode,
                std::uint64_t pairs_per_thread) {
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
  std::vector<double> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  if (!all.empty()) res.p99_us = dpg::bench::quantile(all, 0.99);
  return res;
}

// `warm_pairs` per thread run untimed on the same heap first; the counts of
// the result then cover the timed run alone, and `warm` holds the stats the
// warm-up left.
RunResult run_workload(const BenchConfig& cfg, unsigned threads,
                       bool server_mode, std::uint64_t pairs_per_thread,
                       std::uint64_t warm_pairs = 0) {
  if (cfg.raw) {
    // Every raw rep starts from trimmed libc arenas, not from whatever the
    // previous cells left: the process's first rep ran on fresh arenas and
    // read 14-16M pairs/s at t1 against 9-12M for the later reps.
    malloc_trim(0);
    Libc libc;
    return drive(libc, threads, server_mode, pairs_per_thread);
  }
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
  dpg::core::GuardStats warm;
  if (warm_pairs != 0) {
    (void)drive(heap, threads, server_mode, warm_pairs);
    warm = heap.stats();
  }
  RunResult res = drive(heap, threads, server_mode, pairs_per_thread);
  res.stats = heap.stats();
  res.warm = warm;
  res.resolved = heap.engine(0).revoke_backend();
  return res;
}

// Prints one row from its reps (pairs/sec and p99 as median and quartiles,
// the counts from the run with the median pairs/sec) to `out` and returns
// the row's JSON object. A raw row has no backend, window or batch.
std::string row(const char* workload, unsigned threads, const BenchConfig& cfg,
                const std::vector<RunResult>& runs, std::FILE* out = stdout) {
  const std::vector<double> rates = dpg::bench::each(
      runs, [](const RunResult& r) { return r.pairs_per_sec(); });
  const dpg::bench::Spread rate(rates);
  const dpg::bench::Spread p99(
      dpg::bench::each(runs, [](const RunResult& r) { return r.p99_us; }));
  const RunResult& r = runs[dpg::bench::median_rep(rates)];
  std::fprintf(
      out, "%-8s %2u thr  %-14s  %28s pairs/s  %6.3f sys/pair  %6.2f "
      "frees/revoke  p99 %7.2f us  "
      "(magazine hits %llu/%llu maps, batches %llu, remote %llu, "
      "mprotect %llu, madvise %llu, munmap %llu, recycled %llu, "
      "reused %llu, restored %llu)\n",
      workload, threads, cfg.name, rate.show(0).c_str(), r.sys_per_pair(),
      r.frees_per_revoke(), p99.median, ull(r.stats.magazine_hits),
      ull(r.stats.magazine_maps), ull(r.stats.revoke_batches),
      ull(r.stats.remote_frees), ull(r.sys.mprotect), ull(r.sys.madvise),
      ull(r.sys.munmap), ull(r.stats.magazine_slots_recycled),
      ull(r.stats.shadow_pages_reused), ull(r.stats.shadow_restores));
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\":\"%s\",\"threads\":%u,\"config\":\"%s\","
      "\"backend_requested\":\"%s\",\"backend_resolved\":\"%s\","
      "\"magazine_slots\":%zu,\"protect_batch\":%zu,"
      "\"frees_per_revoke\":%.2f,\"reps\":%zu,"
      "\"seconds\":%.6f,\"pairs\":%llu,\"pairs_per_sec\":%.0f,"
      "\"pairs_per_sec_q1\":%.0f,\"pairs_per_sec_q3\":%.0f,"
      "\"mmap\":%llu,\"munmap\":%llu,\"mprotect\":%llu,\"madvise\":%llu,"
      "\"revoke_batches\":%llu,\"magazine_hits\":%llu,"
      "\"p99_us\":%.2f,\"p99_us_q1\":%.2f,\"p99_us_q3\":%.2f}",
      workload, threads, cfg.name,
      cfg.raw ? "none" : dpg::vm::backend_name(cfg.guard.revoke_backend),
      cfg.raw ? "none" : dpg::vm::backend_name(r.resolved),
      cfg.raw ? 0 : dpg::core::ShadowEngine::magazine_window(cfg.guard),
      cfg.raw ? 0 : cfg.guard.protect_batch, r.frees_per_revoke(),
      runs.size(), r.seconds, ull(r.pairs), rate.median, rate.q1, rate.q3,
      ull(r.sys.mmap), ull(r.sys.munmap), ull(r.sys.mprotect),
      ull(r.sys.madvise), ull(r.stats.revoke_batches),
      ull(r.stats.magazine_hits), p99.median, p99.q1, p99.q3);
  return buf;
}

// --- backend x threads baseline (--backends) -------------------------------

// Emits the BENCH_baseline.json document on stdout: the backend matrix and
// the raw rows at 1/4/8 threads plus the seed/tuned t8 rows the smoke gate is
// calibrated against. Progress and the readable rows go to stderr so
// `bench_mt --backends > file` is clean.
int backends() {
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 20000, 100, 10'000'000));
  // A raw pair costs about 0.1 us at t1, so the raw rows run 128x the pairs:
  // one rep of the raw t1 row then lasts over 100 ms instead of 2 ms.
  const std::uint64_t raw_pairs = pairs * 128;

  using dpg::vm::RevokeBackend;
  std::vector<std::pair<unsigned, BenchConfig>> cells;
  for (unsigned t : {1u, 4u, 8u}) {
    cells.emplace_back(t, raw_config());
    for (const auto b : {RevokeBackend::kMprotect, RevokeBackend::kGuard}) {
      cells.emplace_back(t, backend_config(b, false));
      cells.emplace_back(t, backend_config(b, true));
    }
  }
  cells.emplace_back(8, seed_config());
  cells.emplace_back(8, tuned_config());

  const auto runs =
      dpg::bench::interleave(cells.size(), [&](std::size_t c) {
        const auto& [threads, bench] = cells[c];
        std::fprintf(stderr, "backends: %s t%u...\n", bench.name, threads);
        return run_workload(bench, threads, true,
                            bench.raw ? raw_pairs : pairs);
      });
  char fields[256];
  std::snprintf(fields, sizeof fields,
                "  \"workload\": \"server\",\n  \"pairs_per_thread\": %llu,\n"
                "  \"raw_pairs_per_thread\": %llu,\n"
                "  \"guard_supported\": %s,\n",
                ull(pairs), ull(raw_pairs),
                dpg::vm::Revoker::guard_supported() ? "true" : "false");
  dpg::bench::Doc doc{"dpg_backend_baseline", fields, {}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    doc.rows.push_back(
        row("server", cells[i].first, cells[i].second, runs[i], stderr));
  }
  doc.write(nullptr);
  return 0;
}

// --- smoke-mode correctness probes -----------------------------------------

[[gnu::format(printf, 1, 2)]] int fail(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("perf-smoke FAILED: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
  return 1;
}

// One run of a smoke row, printed.
RunResult printed_run(const BenchConfig& cfg, unsigned threads,
                      bool server_mode, std::uint64_t pairs) {
  RunResult r = run_workload(cfg, threads, server_mode, pairs);
  (void)row(server_mode ? "server" : "churn", threads, cfg, {r});
  return r;
}

int smoke() {
  const unsigned threads = 2;
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 30000, 100, 10'000'000));
  const BenchConfig cfg = tuned_config();

  // Throughput + syscall amortization on the tuned path. The churn run is
  // single-threaded so its syscall count cannot depend on thread
  // interleaving, which a sanitizer's scheduling shifts.
  const RunResult churn = printed_run(cfg, 1, false, pairs);
  const RunResult server = printed_run(cfg, threads, true, pairs);
  // The immediate path (the preload default) on the host's resolved backend:
  // window-carved aliases under guard markers, per-object aliases under
  // mprotect; one revocation call per free either way.
  const BenchConfig imm = backend_config(dpg::vm::RevokeBackend::kAuto, false);
  const bool imm_windows =
      dpg::core::ShadowEngine::magazine_window(imm.guard) != 0;
  const RunResult immediate = printed_run(imm, threads, true, pairs);

  // Amortization gate on the pure pair workload. (The server workload keeps
  // objects live in the rings, which scatters frees across magazine
  // generations and fragments the coalesced runs — its numbers are reported
  // in EXPERIMENTS.md but not gated here.)
  if (churn.sys_per_pair() >= 0.2) {
    return fail("1-thread churn: %llu syscalls over %llu pairs = %.3f/pair, "
                "not below 0.2",
                ull(churn.mm_syscalls()), ull(churn.pairs),
                churn.sys_per_pair());
  }
  if (imm_windows && immediate.sys.mmap * 10 > immediate.pairs) {
    return fail("immediate: mmap %llu over %llu pairs, above 0.1 per pair",
                ull(immediate.sys.mmap), ull(immediate.pairs));
  }
  if (!imm_windows && immediate.stats.magazine_maps != 0) {
    return fail("immediate revocation under mprotect mapped %llu magazines",
                ull(immediate.stats.magazine_maps));
  }
  // A restore issues calls too (vm/revoke.h): one madvise under guard
  // markers, a madvise and an mprotect under mprotect.
  const std::uint64_t restore_calls =
      immediate.stats.shadow_restores *
      (immediate.resolved == dpg::vm::RevokeBackend::kGuard ? 1 : 2);
  const std::uint64_t revocation_calls =
      immediate.sys.mprotect + immediate.sys.madvise - restore_calls;
  if (revocation_calls != immediate.stats.frees ||
      immediate.stats.frees != immediate.stats.revoked_spans) {
    return fail("immediate: revocation calls %llu, frees %llu, revoked spans "
                "%llu are not all equal",
                ull(revocation_calls), ull(immediate.stats.frees),
                ull(immediate.stats.revoked_spans));
  }
  if (immediate.sys.munmap * 50 >= immediate.pairs) {
    return fail("immediate: munmap %llu over %llu pairs (>= 2%%)",
                ull(immediate.sys.munmap), ull(immediate.pairs));
  }

  // Restore gate, immediate guard markers at t1 (one thread, one shard: the
  // counts are deterministic). The warm-up fills the freed-VA budget; from
  // then on the budget hands windows back bound to their canonical offsets,
  // and a refill of such a window restores a range in place instead of
  // mapping one. Restores must be at least 9 in 10 of the window refills
  // after the warm-up (measured: 582 of 585 at the default 30000 pairs), and
  // the refills' mmaps at most the rest.
  if (dpg::vm::Revoker::guard_supported()) {
    const BenchConfig g1 = backend_config(dpg::vm::RevokeBackend::kGuard, false);
    const RunResult w = run_workload(g1, 1, true, pairs, pairs);
    (void)row("server", 1, g1, {w});
    const std::uint64_t refills =
        w.stats.magazine_maps - w.warm.magazine_maps;
    const std::uint64_t restores =
        w.stats.shadow_restores - w.warm.shadow_restores;
    std::printf("guard t1 after warm-up: %llu window refills, %llu restores, "
                "%llu mmap\n",
                ull(refills), ull(restores), ull(w.sys.mmap));
    if (refills == 0 || restores * 10 < refills * 9 ||
        w.sys.mmap > refills - restores) {
      return fail("guard t1: %llu restores over %llu window refills (want at "
                  "least 9 in 10), %llu mmap (want at most %llu)",
                  ull(restores), ull(refills), ull(w.sys.mmap),
                  ull(refills - restores));
    }
  }

  // t8 server gates, all deterministic counts (same-config throughput swings
  // +-20% under a parallel ctest, so the nightly workflow gates tuned >=
  // 0.6x seed pairs/s on serial runs instead). Tuned used to trade
  // throughput for syscalls at 8 threads (167k munmaps to the seed's 73k,
  // the shared-freelist trim storm); generations now return their windows
  // whole. 1: tuned (mmap + revocation)/pair below seed's (about 0.93 vs
  // 2.0 when measured); 2: tuned munmap under 2% of pairs (35-47% with slot
  // fragments; whole windows measure 0); 3: when seed itself storms (>= 1000
  // munmaps), tuned under half of it.
  const std::uint64_t t8_pairs = pairs / 2 < 100 ? 100 : pairs / 2;
  const RunResult s8 = printed_run(seed_config(), 8, true, t8_pairs);
  const RunResult u8 = printed_run(tuned_config(), 8, true, t8_pairs);
  std::printf("t8 server frees/revoke: seed %.2f, tuned %.2f\n",
              s8.frees_per_revoke(), u8.frees_per_revoke());
  if (u8.mm_syscalls() * s8.pairs >= s8.mm_syscalls() * u8.pairs) {
    return fail("t8 server: tuned %llu syscalls over %llu pairs, not below "
                "seed's %llu over %llu",
                ull(u8.mm_syscalls()), ull(u8.pairs), ull(s8.mm_syscalls()),
                ull(s8.pairs));
  }
  if (u8.sys.munmap * 50 >= u8.pairs) {
    return fail("t8 server: tuned munmap %llu over %llu pairs (>= 2%%)",
                ull(u8.sys.munmap), ull(u8.pairs));
  }
  if (s8.sys.munmap >= 1000 && u8.sys.munmap * 2 >= s8.sys.munmap) {
    return fail("t8 server: tuned munmap %llu not under half of seed's %llu",
                ull(u8.sys.munmap), ull(s8.sys.munmap));
  }

  // The guard-requested configuration keeps full detection accounting
  // whether it lands on guard markers or the mprotect fallback (this is the
  // backend-matrix smoke contract: same frees, same revocations, zero
  // failures).
  const RunResult g2 = printed_run(
      backend_config(dpg::vm::RevokeBackend::kGuard, true), 2, true,
      t8_pairs / 4);
  if (g2.resolved == dpg::vm::RevokeBackend::kGuard) {
    // Every revocation run is one madvise, and so is every restore; none
    // falls back to mprotect.
    if (g2.sys.mprotect != 0 ||
        g2.sys.madvise != g2.stats.protect_calls + g2.stats.shadow_restores) {
      return fail("guard backend: mprotect %llu (want 0), madvise %llu "
                  "(want the %llu revocation calls + %llu restores)",
                  ull(g2.sys.mprotect), ull(g2.sys.madvise),
                  ull(g2.stats.protect_calls), ull(g2.stats.shadow_restores));
    }
  } else if (dpg::vm::Revoker::guard_supported()) {
    return fail("guard requested on a guard-capable kernel, resolved to %s",
                dpg::vm::backend_name(g2.resolved));
  }

  const std::pair<const char*, const RunResult*> runs[] = {
      {"churn t1", &churn}, {"server t2", &server},
      {"immediate t2", &immediate}, {"seed t8", &s8},
      {"tuned t8", &u8}, {"guard+batch t2", &g2}};
  for (const auto& [name, r] : runs) {
    // No lost revocations: after flush_all every free must have reached
    // PROT_NONE (nothing pending, nothing silently dropped). Quarantined and
    // degraded frees would break the equality, so prove there were none.
    if (r->stats.guard_failures != 0 || r->stats.degraded_allocs != 0 ||
        r->stats.frees != r->stats.revoked_spans) {
      return fail("%s: guard failures %llu, degraded allocs %llu (want 0 "
                  "each); frees %llu, revoked spans %llu (want equal)",
                  name, ull(r->stats.guard_failures),
                  ull(r->stats.degraded_allocs), ull(r->stats.frees),
                  ull(r->stats.revoked_spans));
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
  if (!rep.has_value()) return fail("dangling read of %p not trapped", p);

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
  if (!rep.has_value()) {
    return fail("cross-thread freed read of %p not trapped", q);
  }
  if (rep->object_base != dpg::vm::addr(q)) {
    return fail("cross-thread report names object %#llx, want %p",
                ull(rep->object_base), q);
  }

  // (c) double free of a remotely-freed object raises even while the
  // revocation may still be queued (the record CAS, not the page state,
  // detects it).
  char* d = static_cast<char*>(heap.malloc(64));
  std::thread freer2([&] { heap.free(d); });
  freer2.join();
  rep = dpg::core::catch_dangling([&] { heap.free(d); });
  if (!rep.has_value()) {
    return fail("double free of %p after remote free missed", d);
  }
  if (rep->kind != dpg::core::AccessKind::kFree) {
    return fail("double free reported as access kind %d, want kFree (%d)",
                static_cast<int>(rep->kind),
                static_cast<int>(dpg::core::AccessKind::kFree));
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
      "pairs/sec (median [q1-q3]) and amortized (mmap + revocation)/pair; "
      "see EXPERIMENTS.md");
  dpg::bench::Doc doc{"dpg_bench", "  \"bench\": \"mt\",\n", {}};
  const BenchConfig cfgs[] = {seed_config(), tuned_config()};
  for (const char* workload : {"churn", "server"}) {
    const bool server_mode = std::strcmp(workload, "server") == 0;
    for (unsigned threads : {1u, 4u, 8u}) {
      const auto runs =
          dpg::bench::interleave(std::size(cfgs), [&](std::size_t c) {
            return run_workload(cfgs[c], threads, server_mode, pairs);
          });
      for (std::size_t c = 0; c < std::size(cfgs); ++c) {
        doc.rows.push_back(row(workload, threads, cfgs[c], runs[c]));
      }
    }
  }
  doc.write("mt");
  return 0;
}
