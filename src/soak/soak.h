// Address-space endurance soak harness (DESIGN.md §15).
//
// The page-guard design trades address space for detection: every live
// guarded object is one VMA, every freed-but-guarded span one revoked VMA,
// and the recycling layers (VaFreeList, magazines, quarantine) exist to keep
// that spend bounded. A slow leak in any of them — a freelist that only
// grows, a magazine that never recycles, quarantine accounting that drifts —
// is invisible to the unit tests and fatal over a production week: the
// process walks into vm.max_map_count and the governor rides the ladder to
// quarantine-only permanently.
//
// run_soak() is a bounded number of operations of that week: a steady-state
// allocation mix (heap churn + pool create/destroy + cross-thread frees +
// revocation flushes) with transient fault injection driving at least one
// demote/recover ladder cycle. One clock drives everything: the operation
// count. Each worker runs a seeded schedule; a barrier ends every round of
// 256 ops per worker, and its completion step drains the cross-thread
// mailboxes. A tick is a fixed number of rounds: its last round also
// flushes revocation, samples VMA count, VA high-water, RSS, quarantine
// depth, magazine and owner population and the ladder, and arms or clears
// the fault pulse at fixed ticks. Wall time is reported, never consulted.
// After the run, detect_drift() fails the soak on monotonic growth of a
// gated series (VMA count, VA high-water, RSS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dpg::soak {

// Ticks per run: samples after the one at tick 0.
inline constexpr std::uint64_t kTicks = 32;

struct SoakConfig {
  std::uint64_t ops = 1'000'000;  // schedule ops, all workers together
  std::uint32_t threads = 4;      // worker threads (>= 1)
  std::size_t shards = 4;         // guarded-heap shards
  // Batched-revocation config under test. Every shard carves 256-page slot
  // magazines, and each live or still-pinned generation keeps its window
  // mapped, so the magazine population is the soak's dominant VMA term:
  // one VMA per window under guard markers, and under mprotect one per run
  // of revoked or live slots.
  std::size_t protect_batch = 16;
  std::size_t max_live = 512;       // live objects per worker (soft cap)
  std::uint32_t max_size = 2048;    // payload bytes per object
  bool pools = true;                // mix in pool create/use/destroy cycles
  // Inject a transient syscall-failure pulse so the governor demotes (full
  // -> sampled, widening N), then clear it so hysteresis recovers — the
  // soak asserts >= 1 full demote/recover cycle.
  bool inject_faults = true;
  // DPG_FAULT_INJECT grammar for the pulse; "" = the built-in plan (shadow
  // mmap and revocation ENOMEM; see run_soak).
  std::string fault_plan;
  std::size_t sample_rate = 0;   // base 1-in-N for the governor (0 = default)
  // Per-shard quarantine cap. The soak wants the delayed-reuse pool to reach
  // its plateau within a few ticks (RSS and VMA count track it), so this is
  // far below the production default.
  std::size_t quarantine_bytes = std::size_t{8} << 20;
  // Per-shard freed-span VA budget (§3.4 strategy 1). Unbounded (the library
  // default) makes vm.max_map_count the steady-state operating point — freed
  // tombstones accumulate until the kernel refuses and every refusal rings
  // the governor. The soak bounds them so the ladder only moves when the
  // fault pulse says so.
  std::size_t freed_va_budget = std::size_t{16} << 20;
  // Raise SIGUSR2 in the tick after each tick that moved the ladder, when a
  // report dir is armed — exercises the snapshot-under-demotion consistency
  // path against live workers and leaves .dpgcrash artifacts.
  bool snapshots = true;
  std::uint64_t seed = 1;
  // Drift gate: samples discarded as warmup, then the relative fitted growth
  // (slope * span / mean) each gated series may show before failing.
  std::size_t warmup_samples = 6;
  double max_relative_drift = 0.10;
};

// One sample, taken when a tick ends. Gauges come from /proc/self (maps line
// count, status VmPeak, statm RSS) and the runtime's own accounting.
struct Sample {
  std::uint64_t tick = 0;
  std::uint64_t t_ms = 0;            // wall time since start, reported only
  double vma_count = 0;              // /proc/self/maps lines
  double va_hwm_kb = 0;              // VmPeak (address-space high water)
  double rss_kb = 0;                 // resident set
  double quarantine_bytes = 0;       // sum over shards
  double reuse_delay_bytes = 0;      // canonical reuse FIFO, sum over shards
  double magazines = 0;              // live magazine generations
  double owners = 0;                 // span owners still mapped
  double freelist_ranges = 0;        // VaFreeList held ranges
  double ladder_transitions = 0;     // governor transitions counter
  double sample_rate = 0;            // effective 1-in-N
  double mode = 0;                   // current rung (numeric GuardMode)
};

// Per-series verdict from the drift detector.
struct SeriesDrift {
  std::string name;
  std::size_t samples = 0;     // envelope points fitted
  double first = 0;
  double last = 0;
  double mean = 0;
  double slope_per_sample = 0;  // least-squares fit
  double relative_drift = 0;    // slope * (n-1) / max(|mean|, 1)
  bool monotonic = false;       // no decreasing step and last > first
  bool gated = false;           // participates in the pass/fail verdict
  bool failed = false;
};

struct SoakResult {
  std::vector<Sample> timeline;
  std::vector<SeriesDrift> drifts;
  std::uint64_t ops_per_tick = 0;  // per worker
  std::uint64_t ops = 0;           // completed schedule ops
  std::uint64_t wall_ms = 0;
  std::int64_t pulse_armed_tick = -1;    // -1: no pulse
  std::int64_t pulse_cleared_tick = -1;
  std::uint64_t demotions = 0;     // ladder transitions downward
  std::uint64_t recoveries = 0;    // ladder promotions
  std::uint64_t sample_widens = 0;
  std::uint64_t sample_tightens = 0;
  std::uint64_t snapshots_written = 0;
  bool saw_demote_cycle = false;   // >= 1 demotion AND >= 1 recovery
  bool drift_failed = false;       // any gated series failed
  int final_mode = 0;              // rung at shutdown

  [[nodiscard]] bool ok(bool require_cycle) const {
    return !drift_failed && (!require_cycle || saw_demote_cycle);
  }
  // Machine-readable timeline + verdicts (the CI artifact).
  [[nodiscard]] std::string to_json() const;
};

// The drift gate. A gated series must be flat once the run reaches steady
// state, and two non-leak shapes must pass: the one-time step when the
// fault pulse lands, and the bounded sawtooth of the recycling layers
// (freelist fill/trim, freed-VA budget releases, quarantine fill/evict).
// So the fit covers the LOWER ENVELOPE (per-bucket minima, bucket =
// max(2, tail/8)) of the last half of `xs`, and never the first `warmup`
// samples: a step has happened by then, a sawtooth's minima are flat, and
// a leak's minima climb with it. A gated series fails when the fitted rise
// exceeds max_relative_drift of its mean. Fewer than warmup + 2 samples
// never fail.
[[nodiscard]] SeriesDrift detect_drift(const std::string& name,
                                       const std::vector<double>& xs,
                                       std::size_t warmup,
                                       double max_relative_drift, bool gated);

[[nodiscard]] SoakResult run_soak(const SoakConfig& cfg);

}  // namespace dpg::soak
