// dpgbench_inproc — the `servers` and `olden` workloads of the dpguard
// benchmark, run in-process under baseline::GuardedPolicy exactly as the
// library ships it (no GuardConfig is set here).
//
//   dpgbench_inproc --workload servers|olden --seed N --seconds S
//                   --out result.json [--trace 0|1] [--spans spans.csv]
//                   [--setup-only] [--census 0|1]
//
// servers  the five Table 1 servers; one op is one outermost PoolScope (a
//          connection, session or command).
// olden    health, treeadd, bisort and mst; one op is one guarded allocation.
//
// The seed permutes sub-program order, afresh for every pair of passes (their
// inputs are fixed in src/workloads). Native and dpguard passes alternate, each pair flipping
// which side runs first, and overhead_x is the median ratio of adjacent
// passes. After every dpguard pass, planted probes check that a dangling
// read, a dangling write and a double free each report, and that a read of a
// live control object does not.
//
// With --trace 1 a bench-local wrapper records a span around each op and each
// poolinit, alloc, free and pooldestroy call, and a PoolAllocation-only pass
// (PaPolicy) joins each round as the floor under overhead_x. Spans stay in
// memory and are written out at exit.
//
// The result file holds the raw aggregates; run.py turns them into metrics.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/policies.h"
#include "core/fault_manager.h"
#include "obs/metrics.h"
#include "stats.h"
#include "vm/revoke.h"
#include "vm/vm_stats.h"
#include "workloads/registry.h"

namespace {

using dpg::baseline::GuardedPolicy;
using dpg::baseline::NativePolicy;
using dpg::baseline::PaPolicy;
using dpgbench::now_ns;
using dpgbench::Reservoir;

enum SpanKind : std::uint32_t { kOp, kPoolinit, kAlloc, kFree, kPooldestroy, kKinds };
constexpr const char* kSpanNames[kKinds] = {"op", "poolinit", "alloc", "free",
                                            "pooldestroy"};

// State of the bench-local wrapper. This binary is single-threaded.
struct Recorder {
  bool olden = false;   // op = allocation (else op = outermost scope)
  bool spans = false;   // record guard-call spans (traced dpguard passes)
  bool census = false;  // count VMAs before outermost pooldestroys

  // Per pass.
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t nulls = 0;
  std::vector<std::uint64_t>* op_lat = nullptr;  // op latencies (ns) sink
  dpg::core::GuardStats pool_stats;  // summed at each pooldestroy

  // Scope nesting and the current op (traced waterfall).
  int depth = 0;
  std::uint64_t op_start = 0;
  std::uint64_t op_child_ns = 0;  // sum of guard child span durations
  std::uint32_t op_id = 0;

  // Traced aggregates over all dpguard passes.
  Reservoir layer[kKinds];
  Reservoir app_self;          // op span minus guard child spans (ns)
  double waterfall_span_ns = 0;   // sum of op spans
  double waterfall_parts_ns = 0;  // sum of app self + child spans
  double core_ns = 0;             // sum of guard child spans
  dpgbench::SpanLog log;

  long vma_max = 0;
  std::uint64_t census_every = 1;
};
Recorder g;

void child_span(SpanKind kind, std::uint64_t s, std::uint64_t e) {
  const std::uint64_t d = e - s;
  g.layer[kind].add(d);
  g.core_ns += static_cast<double>(d);
  if (g.depth > 0 || g.olden) g.op_child_ns += d;
  g.log.add(kind, g.op_id, s, e);
}

void op_begin() {
  g.op_start = now_ns();
  g.op_child_ns = 0;
  ++g.op_id;
}

// Closes one waterfall unit: its self time is the span minus its guard child
// spans, reported per op (`ops` ops ran inside the unit).
void unit_end(std::uint64_t end, std::uint64_t ops) {
  const std::uint64_t span = end - g.op_start;
  const std::uint64_t self = span > g.op_child_ns ? span - g.op_child_ns : 0;
  g.app_self.add(self / std::max<std::uint64_t>(ops, 1));
  g.waterfall_span_ns += static_cast<double>(span);
  g.waterfall_parts_ns += static_cast<double>(self + g.op_child_ns);
  g.log.add(kOp, g.op_id, g.op_start, end);
}

void op_end() {
  const std::uint64_t end = now_ns();
  if (g.op_lat != nullptr) g.op_lat->push_back(end - g.op_start);
  if (g.spans) unit_end(end, 1);
}

// Every call into the wrapped policy goes through here. Olden ops are
// allocations: 1 in 16 is timed for op latency (every one when tracing).
template <typename F>
auto alloc_call(F&& f) {
  ++g.allocs;
  const bool is_op = g.olden;
  if (is_op) ++g.ops;
  const bool timed = g.spans || (is_op && g.op_lat != nullptr && (g.allocs & 15) == 0);
  const std::uint64_t s = timed ? now_ns() : 0;
  auto p = f();
  if (timed) {
    const std::uint64_t e = now_ns();
    if (is_op && g.op_lat != nullptr) g.op_lat->push_back(e - s);
    if (g.spans) child_span(kAlloc, s, e);
  }
  if (p == nullptr) ++g.nulls;
  return p;
}

template <typename F>
void free_call(F&& f) {
  if (!g.spans) {
    f();
    return;
  }
  const std::uint64_t s = now_ns();
  f();
  child_span(kFree, s, now_ns());
}

// The bench-local wrapper: forwards to Base, timing the calls.
template <typename Base>
struct Timed {
  template <typename T>
  using ptr = typename Base::template ptr<T>;

  static const char* name() { return Base::name(); }

  template <typename T, typename... Args>
  static ptr<T> make(Args&&... args) {
    return alloc_call([&] { return Base::template make<T>(std::forward<Args>(args)...); });
  }
  template <typename T>
  static ptr<T> alloc_array(std::size_t n) {
    return alloc_call([&] { return Base::template alloc_array<T>(n); });
  }
  template <typename T>
  static void dispose(ptr<T> p) {
    free_call([&] { Base::dispose(p); });
  }
  template <typename T, typename... Args>
  static ptr<T> make_outside_scope(Args&&... args) {
    return alloc_call([&] {
      return dpg::workloads::make_global<Base, T>(std::forward<Args>(args)...);
    });
  }
  template <typename T>
  static void dispose_outside_scope(ptr<T> p) {
    free_call([&] { dpg::workloads::dispose_global<Base>(p); });
  }

  struct Scope {
    explicit Scope(std::size_t hint = 0) {
      if (g.depth++ == 0 && !g.olden) {
        ++g.ops;
        op_begin();
      }
      const std::uint64_t s = g.spans ? now_ns() : 0;
      inner_.emplace(hint);
      if (g.spans) child_span(kPoolinit, s, now_ns());
    }
    ~Scope() {
      const bool outermost = g.depth == 1;
      if constexpr (std::is_same_v<Base, GuardedPolicy>) {
        g.pool_stats += dpg::core::PoolScope::current()->pool().stats();
      }
      if (outermost && g.census && g.ops % g.census_every == 0) {
        g.vma_max = std::max(g.vma_max, dpgbench::count_vmas());
      }
      const std::uint64_t s = g.spans ? now_ns() : 0;
      inner_.reset();
      if (g.spans) child_span(kPooldestroy, s, now_ns());
      if (--g.depth == 0 && !g.olden) op_end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::optional<typename Base::Scope> inner_;
  };

  static void reset() { Base::reset(); }
};

struct Pass {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t nulls = 0;
  std::vector<std::uint64_t> checksums;
};

template <typename P>
Pass run_pass(const std::vector<std::string>& programs, double scale,
              std::vector<std::uint64_t>* op_lat) {
  g.ops = 0;
  g.allocs = 0;
  g.nulls = 0;
  g.op_lat = op_lat;
  Pass r;
  const std::uint64_t t0 = now_ns();
  for (const std::string& name : programs) {
    // Olden's waterfall unit is one program run (its ops are allocations,
    // with the program's own work in between), normalised per op.
    const std::uint64_t ops_before = g.ops;
    if (g.spans && g.olden) op_begin();
    r.checksums.push_back(dpg::workloads::run_workload<Timed<P>>(name, scale));
    if (g.spans && g.olden) unit_end(now_ns(), g.ops - ops_before);
  }
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  r.ops = g.ops;
  r.nulls = g.nulls;
  g.op_lat = nullptr;
  return r;
}

// --- planted probes ----------------------------------------------------------

struct ProbeTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t freed_reports = 0;    // detections counted on freed probes
  std::uint64_t control_reports = 0;  // detections counted on live controls
  Reservoir trap_ns;
};
ProbeTally probes;

// After a guarded pass: free K objects through the same pool API, then a
// dangling read, a dangling write and a double free of each must report,
// and a read of a live control object must not.
void run_probes() {
  using dpg::core::AccessKind;
  using dpg::core::catch_dangling;
  auto& fm = dpg::core::FaultManager::instance();
  constexpr int kObjects = 4;
  GuardedPolicy::Scope scope(64);
  char* objs[kObjects];
  for (int i = 0; i < kObjects; ++i) {
    objs[i] = GuardedPolicy::alloc_array<char>(48 + 40 * static_cast<std::size_t>(i));
    if (objs[i] != nullptr) std::memset(objs[i], 0x5A, 48);
  }
  char* control = GuardedPolicy::alloc_array<char>(64);
  if (control != nullptr) std::memset(control, 0x3C, 64);
  for (char* p : objs) GuardedPolicy::dispose(p);

  const std::uint64_t det0 = fm.detections();
  auto expect = [](const std::optional<dpg::core::DanglingReport>& r,
                   AccessKind want) {
    return r.has_value() &&
           (r->kind == want ||
            (want != AccessKind::kFree && r->kind == AccessKind::kUnknown));
  };
  for (char* p : objs) {
    if (p == nullptr) {
      probes.attempted += 3;
      probes.failed += 3;
      continue;
    }
    volatile char* vp = p;
    std::uint64_t t0 = now_ns();
    auto r = catch_dangling([&] { (void)vp[1]; });
    probes.trap_ns.add(now_ns() - t0);
    probes.failed += expect(r, AccessKind::kRead) ? 0 : 1;
    t0 = now_ns();
    r = catch_dangling([&] { vp[2] = 7; });
    probes.trap_ns.add(now_ns() - t0);
    probes.failed += expect(r, AccessKind::kWrite) ? 0 : 1;
    r = catch_dangling([&] { GuardedPolicy::dispose(p); });
    probes.failed += expect(r, AccessKind::kFree) ? 0 : 1;
    probes.attempted += 3;
  }
  const std::uint64_t det1 = fm.detections();
  ++probes.attempted;
  if (control == nullptr) {
    ++probes.failed;
  } else {
    volatile char* vc = control;
    char seen = 0;
    const auto r = catch_dangling([&] { seen = vc[5]; });
    if (r.has_value() || seen != 0x3C) ++probes.failed;
    GuardedPolicy::dispose(control);
  }
  const std::uint64_t det2 = fm.detections();
  probes.freed_reports += det1 - det0;
  probes.control_reports += det2 - det1;
}

// --- process-wide counters read from outside the library -------------------

struct Counters {
  std::uint64_t mmap = 0, mprotect = 0, munmap = 0, mremap = 0;
  double vm_ns = 0;  // obs mmap/mprotect/munmap/mremap histogram sums
  std::uint64_t va_trims = 0;
  dpg::core::GuardStats global;

  static std::uint64_t obs_counter(const char* name) {
    for (std::size_t i = 0; i < dpg::obs::counter_count(); ++i) {
      const char* n = dpg::obs::counter_name(i);
      if (n != nullptr && std::strcmp(n, name) == 0) return dpg::obs::counter_value_at(i);
    }
    return 0;
  }
  static Counters now() {
    using dpg::obs::Hist;
    const dpg::vm::SyscallCounters& sys = dpg::vm::syscall_counters();
    Counters c;
    c.mmap = sys.mmap.load();
    c.mprotect = sys.mprotect.load();
    c.munmap = sys.munmap.load();
    c.mremap = sys.mremap.load();
    for (Hist h : {Hist::kMmapNs, Hist::kMprotectNs, Hist::kMunmapNs, Hist::kMremapNs}) {
      c.vm_ns += static_cast<double>(dpg::obs::hist(h).sum());
    }
    c.va_trims = obs_counter("dpg_va_trims");
    c.global = GuardedPolicy::global_pool().stats();
    return c;
  }
};

// Sums of the guarded passes' deltas.
struct GuardTotals {
  std::uint64_t mmap = 0, mprotect = 0, munmap = 0, mremap = 0, va_trims = 0;
  double vm_ns = 0;
  dpg::core::GuardStats stats;
  std::uint64_t allocs = 0;

  void add(const Counters& a, const Counters& b, const dpg::core::GuardStats& pools,
           std::uint64_t pass_allocs) {
    mmap += b.mmap - a.mmap;
    mprotect += b.mprotect - a.mprotect;
    munmap += b.munmap - a.munmap;
    mremap += b.mremap - a.mremap;
    va_trims += b.va_trims - a.va_trims;
    vm_ns += b.vm_ns - a.vm_ns;
    stats += pools;
    // The global pool outlives passes: add its counter deltas.
    dpg::core::GuardStats d;
    d.allocations = b.global.allocations - a.global.allocations;
    d.frees = b.global.frees - a.global.frees;
    d.shadow_pages_mapped = b.global.shadow_pages_mapped - a.global.shadow_pages_mapped;
    d.shadow_pages_reused = b.global.shadow_pages_reused - a.global.shadow_pages_reused;
    d.protect_calls = b.global.protect_calls - a.global.protect_calls;
    d.degraded_allocs = b.global.degraded_allocs - a.global.degraded_allocs;
    d.guard_failures = b.global.guard_failures - a.global.guard_failures;
    d.magazine_maps = b.global.magazine_maps - a.global.magazine_maps;
    d.magazine_hits = b.global.magazine_hits - a.global.magazine_hits;
    d.remote_frees = b.global.remote_frees - a.global.remote_frees;
    stats += d;
    allocs += pass_allocs;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool census = true;
  std::string out;
  std::string spans;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dpgbench_inproc --workload servers|olden --seed N "
               "--seconds S --out FILE [--trace 0|1] [--spans FILE] "
               "[--setup-only] [--census 0|1]\n"
               "       dpgbench_inproc --host\n");
  std::exit(2);
}

// Host facts only the library can answer; run.py records the rest.
int print_host() {
  dpg::vm::Revoker r;
  r.init(dpg::vm::RevokeBackend::kAuto);  // resolves from the (scrubbed) env
  std::printf("{\"mpk_supported\":%s,\"revoke_backend\":\"%s\",\"build_type\":\"%s\"}\n",
              dpg::vm::Revoker::mpk_supported() ? "true" : "false",
              dpg::vm::backend_name(r.active()), DPGBENCH_BUILD_TYPE);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (k == "--host") return print_host();
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(val().c_str(), nullptr);
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--census") a.census = val() == "1";
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--out") a.out = val();
    else if (k == "--spans") a.spans = val();
    else usage();
  }
  std::vector<std::string> programs;
  if (a.workload == "servers") {
    programs = dpg::workloads::server_names();
  } else if (a.workload == "olden") {
    programs = {"health", "treeadd", "bisort", "mst"};
    g.olden = true;
  } else {
    usage();
  }
  if (a.out.empty()) usage();

  // --- set-up: runtime, fault handler, input order, warm-up ---------------
  // Each pair of passes runs the sub-programs in a fresh seeded order, so a
  // run's medians cover many orders rather than one.
  dpgbench::Rng rng(a.seed * 0x9E3779B97F4A7C15ull + 1);
  auto shuffle = [&] {
    for (std::size_t i = programs.size(); i > 1; --i) {
      std::swap(programs[i - 1], programs[rng.below(i)]);
    }
  };
  shuffle();
  (void)GuardedPolicy::context();
  // Warm-up at a tenth of the size: first-touch of every code path and of
  // the simulated process image, so the first timed pass is not special.
  constexpr double kWarmScale = 0.1;
  run_pass<NativePolicy>(programs, kWarmScale, nullptr);
  if (a.trace) run_pass<PaPolicy>(programs, kWarmScale, nullptr);
  run_pass<GuardedPolicy>(programs, kWarmScale, nullptr);
  run_probes();
  if (!g.olden) {
    // ftpd's global-pool log entries are freed but stay guarded until the
    // shipped freed-VA budget recycles them, so the global pool's VMA count
    // climbs for the first ~10 passes. Fill it once so every timed pass sees
    // the steady state.
    dpg::workloads::servers::Ftpd<GuardedPolicy>::Params fill;
    fill.file_bytes = 0;  // only the per-command global allocations matter
    while (GuardedPolicy::global_pool().stats().va_reclaimed_pages == 0) {
      (void)dpg::workloads::servers::Ftpd<GuardedPolicy>::run(fill);
    }
  }
  probes = ProbeTally{};
  const std::uint64_t first_op_ns = now_ns();
  dpgbench::JsonOut out;
  out.num("first_op_ns", static_cast<double>(first_op_ns));
  if (a.setup_only) return out.write(a.out) ? 0 : 1;

  // --- timed, interleaved passes --------------------------------------------
  constexpr double kScale = 1.0;
  std::vector<std::uint64_t> op_lat;  // dpguard op latencies, all passes
  std::vector<std::uint64_t> scratch_lat;
  std::vector<double> ratio, guarded_rate, native_op_ns, pa_op_ns;
  std::uint64_t mismatches = 0, nulls = 0, checked_ops = 0, guarded_ops = 0;
  GuardTotals tot;
  long vma_peak = 0;
  const std::uint64_t deadline =
      first_op_ns + static_cast<std::uint64_t>(a.seconds * 1e9);
  // Pair 0 is checked but not counted: the first full-size passes still
  // grow the arena.
  for (int pair = 0; pair < 4 || now_ns() < deadline; ++pair) {
    const bool warm = pair == 0;
    shuffle();
    Pass native, guarded, pa;
    auto do_native = [&] {
      scratch_lat.clear();
      native = run_pass<NativePolicy>(programs, kScale, &scratch_lat);
    };
    auto do_guarded = [&] {
      g.pool_stats = {};
      g.spans = a.trace && !warm;
      const Counters c0 = Counters::now();
      guarded = run_pass<GuardedPolicy>(programs, kScale, warm ? &scratch_lat : &op_lat);
      const Counters c1 = Counters::now();
      g.spans = false;
      if (!warm) tot.add(c0, c1, g.pool_stats, g.allocs);
      // Untimed: the shared VA free list ramps over several passes before
      // a trim, so its peak shows between passes.
      if (a.census) vma_peak = std::max(vma_peak, dpgbench::count_vmas());
    };
    if (pair % 2 == 0) {
      do_native();
      do_guarded();
    } else {
      do_guarded();
      do_native();
    }
    if (a.trace) {
      scratch_lat.clear();
      pa = run_pass<PaPolicy>(programs, kScale, &scratch_lat);
      if (!warm) pa_op_ns.push_back(pa.seconds * 1e9 / static_cast<double>(pa.ops));
      if (pa.checksums != native.checksums) ++mismatches;
    }
    run_probes();
    for (std::size_t i = 0; i < programs.size(); ++i) {
      mismatches += guarded.checksums[i] != native.checksums[i];
    }
    nulls += guarded.nulls + native.nulls;
    checked_ops += guarded.ops;
    if (warm) continue;
    guarded_ops += guarded.ops;
    ratio.push_back(guarded.seconds / native.seconds);
    guarded_rate.push_back(static_cast<double>(guarded.ops) / guarded.seconds);
    native_op_ns.push_back(native.seconds * 1e9 / static_cast<double>(native.ops));
  }
  const std::uint64_t timed_end = now_ns();

  // --- untimed census pass: VMAs at the outermost pooldestroys, where a
  // pool's spans are all still mapped (olden's peak is inside a program) ----
  if (a.census) {
    g.census = true;
    g.census_every = g.olden ? 1 : 64;
    g.vma_max = 0;
    run_pass<GuardedPolicy>(programs, kScale, nullptr);
    g.census = false;
    vma_peak = std::max(vma_peak, g.vma_max);
  }

  // --- results ---------------------------------------------------------------
  Reservoir lat;
  for (std::uint64_t v : op_lat) lat.add(v);
  const dpg::core::GuardStats& st = tot.stats;
  const double ops = static_cast<double>(guarded_ops);
  out.num("timed_s", static_cast<double>(timed_end - first_op_ns) * 1e-9);
  out.num("pairs", static_cast<double>(ratio.size()));
  out.num("ops", ops);
  out.num("checked_ops", static_cast<double>(checked_ops));
  out.num("throughput_ops_s", dpgbench::median(guarded_rate));
  out.num("overhead_x", dpgbench::median(ratio));
  out.num("op_samples", static_cast<double>(op_lat.size()));
  out.num("op_p50_us", lat.pct(0.50) * 1e-3);
  out.num("op_p99_us", lat.pct(0.99) * 1e-3);
  out.num("rss_peak_mb", static_cast<double>(dpgbench::vm_hwm_kib()) / 1024.0);
  out.num("vma_peak", static_cast<double>(vma_peak));
  out.num("allocs", static_cast<double>(tot.allocs));
  out.num("guarded_allocs", static_cast<double>(st.allocations - std::min(st.allocations, st.guard_failures)));
  out.num("mismatches", static_cast<double>(mismatches));
  out.num("nulls", static_cast<double>(nulls));
  out.num("probes_attempted", static_cast<double>(probes.attempted));
  out.num("probes_failed", static_cast<double>(probes.failed));
  out.num("probe_freed_reports", static_cast<double>(probes.freed_reports));
  out.num("probe_control_reports", static_cast<double>(probes.control_reports));
  out.num("core.trap_us.p50", probes.trap_ns.pct(0.5) * 1e-3);
  out.num("core.degraded_allocs", static_cast<double>(st.degraded_allocs));
  out.num("core.guard_failures", static_cast<double>(st.guard_failures));
  out.num("core.magazine_hits_per_map",
          st.magazine_maps == 0 ? 0.0
                                : static_cast<double>(st.magazine_hits) /
                                      static_cast<double>(st.magazine_maps));
  out.num("core.frees_per_revoke",
          st.protect_calls == 0 ? 0.0
                                : static_cast<double>(st.frees) /
                                      static_cast<double>(st.protect_calls));
  out.num("core.remote_free_share",
          st.frees == 0 ? 0.0
                        : static_cast<double>(st.remote_frees) / static_cast<double>(st.frees));
  out.num("vm.mmap_per_op", static_cast<double>(tot.mmap) / ops);
  out.num("vm.mprotect_per_op", static_cast<double>(tot.mprotect) / ops);
  out.num("vm.munmap_per_op", static_cast<double>(tot.munmap) / ops);
  out.num("vm.mremap_per_op", static_cast<double>(tot.mremap) / ops);
  const double reuse_den =
      static_cast<double>(st.shadow_pages_mapped + st.shadow_pages_reused);
  out.num("vm.va_reuse_ratio",
          reuse_den == 0 ? 0.0 : static_cast<double>(st.shadow_pages_reused) / reuse_den);
  out.num("vm.fresh_va_pages_per_op", static_cast<double>(st.shadow_pages_mapped) / ops);
  out.num("vm.va_trims", static_cast<double>(tot.va_trims));
  out.num("app.native_op_ns", dpgbench::median(native_op_ns));
  if (a.trace) {
    out.num("core.alloc_ns.p50", g.layer[kAlloc].pct(0.50));
    out.num("core.alloc_ns.p99", g.layer[kAlloc].pct(0.99));
    out.num("core.free_ns.p50", g.layer[kFree].pct(0.50));
    out.num("core.free_ns.p99", g.layer[kFree].pct(0.99));
    out.num("core.poolinit_ns.p50", g.layer[kPoolinit].pct(0.50));
    out.num("core.pooldestroy_ns.p50", g.layer[kPooldestroy].pct(0.50));
    out.num("core.pooldestroy_ns.p99", g.layer[kPooldestroy].pct(0.99));
    out.num("vm.syscall_share", g.core_ns == 0 ? 0.0 : tot.vm_ns / g.core_ns);
    out.num("alloc.pa_op_ns", dpgbench::median(pa_op_ns));
    out.num("app.self_ns.p50", g.app_self.pct(0.50));
    out.num("waterfall_span_ns", g.waterfall_span_ns);
    out.num("waterfall_parts_ns", g.waterfall_parts_ns);
    out.num("spans_recorded", static_cast<double>(g.log.size()));
    if (!a.spans.empty() && !g.log.write_csv(a.spans, kSpanNames)) {
      std::fprintf(stderr, "dpgbench_inproc: cannot write %s\n", a.spans.c_str());
      return 1;
    }
  }
  return out.write(a.out) ? 0 : 1;
}
