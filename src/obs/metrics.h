// Observability hub: trace gate, latency histograms, counter registry, and
// the metrics exporter.
//
// Environment knobs (parsed once, via obs/env.h):
//   DPG_TRACE               0/1 — flight recorder + latency histograms.
//                           Disabled, every hook is one relaxed load + branch.
//   DPG_METRICS_PATH        file to append JSON-lines snapshots to; enables
//                           the exporter (atexit + SIGUSR1, and optionally a
//                           periodic dump).
//   DPG_METRICS_PROM        file to (re)write Prometheus-style text into on
//                           every dump — point a node_exporter textfile
//                           collector or a scrape job at it.
//   DPG_METRICS_INTERVAL_MS periodic dump interval; 0 (default) = off.
//
// Every exporter path — including the SIGUSR1 handler — reads only atomics
// and formats with obs/fmt.h, so dumps are async-signal-safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/histogram.h"
#include "obs/trace.h"

namespace dpg::obs {

namespace detail {
// 0 = uninitialised, 1 = tracing off, 2 = tracing on.
extern std::atomic<int> g_trace_mode;
int init_trace_mode() noexcept;  // resolves env (thread-safe, idempotent)
void record_event_slow(EventKind kind, std::uint64_t addr, std::uint64_t arg,
                       std::uint32_t site) noexcept;
}  // namespace detail

// The single branch every disabled-path hook pays.
[[nodiscard]] inline bool enabled() noexcept {
  const int m = detail::g_trace_mode.load(std::memory_order_relaxed);
  if (m != 0) [[likely]] {
    return m == 2;
  }
  return detail::init_trace_mode() == 2;
}

// Test/override hook: force tracing on or off regardless of DPG_TRACE.
void set_trace_enabled(bool on) noexcept;

// CLOCK_MONOTONIC in nanoseconds. Async-signal-safe (vDSO).
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;

// ---------------------------------------------------------------------------
// Flight recorder front end
// ---------------------------------------------------------------------------

// Records one event into the calling thread's ring. No-op when disabled.
inline void record_event(EventKind kind, std::uint64_t addr,
                         std::uint64_t arg, std::uint32_t site = 0) noexcept {
  if (!enabled()) return;
  detail::record_event_slow(kind, addr, arg, site);
}

// Copies up to `max` most-recent events of the *calling thread's* ring into
// `out`, oldest first. Async-signal-safe. Returns the count (0 when the
// thread never recorded or tracing is off).
std::size_t capture_recent(TraceEvent* out, std::size_t max) noexcept;

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

enum class Hist : unsigned {
  kAllocNs = 0,  // guarded malloc/calloc/realloc entry-to-exit
  kFreeNs,       // guarded free entry-to-exit
  kMmapNs,       // vm-layer mmap
  kMprotectNs,   // vm-layer mprotect
  kMunmapNs,     // vm-layer munmap
  kMremapNs,     // vm-layer mremap (sys::remap_dup)
  kMadviseNs,    // vm-layer madvise (guard-marker revocation)
  kCount,
};

[[nodiscard]] const char* hist_name(Hist h) noexcept;  // e.g. "alloc_ns"
[[nodiscard]] LatencyHistogram& hist(Hist h) noexcept;

// RAII latency probe: samples the clock only when tracing is enabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(Hist h) noexcept : h_(h), on_(enabled()) {
    if (on_) t0_ = monotonic_ns();
  }
  ~ScopedLatency() {
    if (on_) hist(h_).record(monotonic_ns() - t0_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Hist h_;
  bool on_;
  std::uint64_t t0_ = 0;
};

// ---------------------------------------------------------------------------
// Counter registry + exporter
// ---------------------------------------------------------------------------

// Registers a process-lifetime atomic counter for export under `name`
// (conventionally "dpg_*"). Both pointers must stay valid forever — callers
// register immortal singletons (SyscallCounters, the Runtime heap's
// GuardCounters). Capacity-bounded; returns false when the table is full.
bool register_counter(const char* name,
                      const std::atomic<std::uint64_t>* value) noexcept;

// Computed-counter registration for sharded subsystems: the exported value is
// `fn(ctx)` evaluated at dump time (e.g. summing per-shard atomics so the
// exporter presents one consistent process-wide series). `fn` runs on every
// dump path INCLUDING the SIGUSR1 handler, so it must be async-signal-safe:
// relaxed atomic loads and arithmetic only — no locks, no allocation. Both
// pointers must stay valid forever, like register_counter.
using CounterFn = std::uint64_t (*)(const void* ctx);
bool register_counter_fn(const char* name, CounterFn fn,
                         const void* ctx) noexcept;

// Gauge forms of the two above: a level that can fall (a queue depth, a host
// fact), exported beside the counters and typed `gauge` in the Prometheus
// exposition.
bool register_gauge(const char* name,
                    const std::atomic<std::uint64_t>* value) noexcept;
bool register_gauge_fn(const char* name, CounterFn fn,
                       const void* ctx) noexcept;

// Parses the env knobs and arms the exporter (atexit hook, SIGUSR1 handler,
// optional periodic thread). Idempotent and cheap after the first call; the
// guard runtime calls it from every engine constructor.
void init_from_env() noexcept;

// Test/override hooks: redirect exporter output without env vars (no signal
// handler or atexit installation). nullptr disables the respective output.
void set_metrics_path(const char* path) noexcept;
void set_prometheus_path(const char* path) noexcept;

// Renders one JSON snapshot object (no trailing newline) of all registered
// counters + histograms into `buf`. Returns bytes written (0 on overflow).
// Async-signal-safe.
std::size_t render_json(char* buf, std::size_t cap, const char* reason) noexcept;

// Renders the Prometheus text exposition of the same snapshot.
std::size_t render_prometheus(char* buf, std::size_t cap) noexcept;

// Appends a JSON-lines snapshot to the metrics path (and rewrites the
// Prometheus file when configured). Returns false when no path is configured
// or a dump is already in flight. Async-signal-safe.
bool dump_metrics(const char* reason) noexcept;

// ---------------------------------------------------------------------------
// Snapshot iteration (crash-dump writer)
// ---------------------------------------------------------------------------
// Read-only, async-signal-safe views over the counter registry and the
// per-thread trace rings, so obs/dump.cc can serialize them into .dpgcrash
// TLVs without reaching into this translation unit's internals.

[[nodiscard]] std::size_t counter_count() noexcept;
[[nodiscard]] const char* counter_name(std::size_t i) noexcept;   // nullptr OOB
[[nodiscard]] std::uint64_t counter_value_at(std::size_t i) noexcept;

// Registered thread rings, in thread-registration order. Slots may be null
// (thread not yet published). Count is clamped to the ring-table capacity.
[[nodiscard]] std::size_t trace_ring_count() noexcept;
[[nodiscard]] const TraceRing* trace_ring_at(std::size_t i) noexcept;

}  // namespace dpg::obs
