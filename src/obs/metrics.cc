#include "obs/metrics.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/dump.h"
#include "obs/env.h"
#include "obs/fmt.h"

namespace dpg::obs {

namespace detail {
std::atomic<int> g_trace_mode{0};
}  // namespace detail

namespace {

// --- per-thread rings ------------------------------------------------------

constexpr std::size_t kMaxRings = 128;

std::atomic<TraceRing*> g_rings[kMaxRings];
std::atomic<unsigned> g_thread_count{0};

struct ThreadRec {
  TraceRing* ring = nullptr;
  std::uint16_t tid = 0;
};
thread_local ThreadRec t_rec;

TraceRing* this_thread_ring() noexcept {
  if (t_rec.ring == nullptr) {
    const unsigned idx = g_thread_count.fetch_add(1, std::memory_order_relaxed);
    t_rec.tid = static_cast<std::uint16_t>(idx);
    // Rings are immortal: a thread may exit, but its ring stays readable for
    // post-mortem dumps. Beyond kMaxRings threads, rings are private and
    // unregistered (fault capture still works; they are absent from dumps).
    auto* ring = new TraceRing();
    if (idx < kMaxRings) g_rings[idx].store(ring, std::memory_order_release);
    t_rec.ring = ring;
  }
  return t_rec.ring;
}

// --- histograms ------------------------------------------------------------

LatencyHistogram g_hists[static_cast<unsigned>(Hist::kCount)];

constexpr const char* kHistNames[static_cast<unsigned>(Hist::kCount)] = {
    "alloc_ns", "free_ns",   "mmap_ns",    "mprotect_ns",
    "munmap_ns", "mremap_ns", "madvise_ns",
};

// --- counter registry ------------------------------------------------------

constexpr std::size_t kMaxCounters = 96;

struct NamedCounter {
  const char* name = nullptr;
  const std::atomic<std::uint64_t>* value = nullptr;
  CounterFn fn = nullptr;   // when set, the exported value is fn(ctx)
  const void* ctx = nullptr;
  bool gauge = false;
};
NamedCounter g_counters[kMaxCounters];

// Exported value of one registered counter. The fn form lets a sharded
// subsystem sum per-shard atomics on read; the callback must stay
// async-signal-safe (relaxed loads + arithmetic, no locks, no allocation)
// because every dump path, including SIGUSR1, goes through here.
std::uint64_t counter_value(const NamedCounter& c) noexcept {
  return c.fn != nullptr ? c.fn(c.ctx)
                         : c.value->load(std::memory_order_relaxed);
}
std::atomic<unsigned> g_counter_count{0};
std::mutex g_register_mu;

// --- exporter state --------------------------------------------------------

constexpr std::size_t kPathCap = 512;
char g_json_path[kPathCap] = {0};
char g_prom_path[kPathCap] = {0};
std::atomic<bool> g_json_path_set{false};
std::atomic<bool> g_prom_path_set{false};
std::atomic_flag g_dump_lock = ATOMIC_FLAG_INIT;
char g_dump_buf[64 * 1024];  // shared by all dump paths, under g_dump_lock

void set_path(char* dst, std::atomic<bool>& flag, const char* src) noexcept {
  if (src == nullptr || src[0] == '\0') {
    flag.store(false, std::memory_order_release);
    return;
  }
  std::strncpy(dst, src, kPathCap - 1);
  dst[kPathCap - 1] = '\0';
  flag.store(true, std::memory_order_release);
}

// Previous SIGUSR1 disposition, chained after our dump so embedding
// applications keep their own handler (audited: before this, sigaction below
// silently dropped it).
struct sigaction g_prev_usr1 {};
bool g_prev_usr1_valid = false;

void on_sigusr1(int signo, siginfo_t* info, void* uctx) {
  const int saved_errno = errno;
  dump_metrics("sigusr1");
  errno = saved_errno;
  if (!g_prev_usr1_valid) return;
  if ((g_prev_usr1.sa_flags & SA_SIGINFO) != 0) {
    if (g_prev_usr1.sa_sigaction != nullptr) {
      g_prev_usr1.sa_sigaction(signo, info, uctx);
    }
  } else if (g_prev_usr1.sa_handler != SIG_IGN &&
             g_prev_usr1.sa_handler != SIG_DFL &&
             g_prev_usr1.sa_handler != nullptr) {
    g_prev_usr1.sa_handler(signo);
  }
}

void dump_at_exit() { dump_metrics("atexit"); }

bool write_file(const char* path, bool append, const char* data,
                std::size_t len) noexcept {
  const int flags =
      O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  const int fd = open(path, flags, 0644);
  if (fd < 0) return false;
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = write(fd, data + done, len - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  close(fd);
  return done == len;
}

std::size_t put_hist_json(char* buf, std::size_t cap, std::size_t at,
                          const LatencyHistogram& h) noexcept {
  at = fmt::put_str(buf, cap, at, "{");
  at = fmt::put_json_kv(buf, cap, at, "count", h.count());
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "sum", h.sum());
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "p50", h.percentile(50));
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "p95", h.percentile(95));
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "p99", h.percentile(99));
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "max", h.max_value());
  return fmt::put_str(buf, cap, at, "}");
}

}  // namespace

namespace detail {

int init_trace_mode() noexcept {
  init_from_env();
  return g_trace_mode.load(std::memory_order_relaxed);
}

void record_event_slow(EventKind kind, std::uint64_t addr, std::uint64_t arg,
                       std::uint32_t site) noexcept {
  ThreadRec& rec = t_rec;
  TraceRing* ring = rec.ring != nullptr ? rec.ring : this_thread_ring();
  ring->push(kind, addr, arg, site, rec.tid, monotonic_ns());
}

}  // namespace detail

std::uint64_t monotonic_ns() noexcept {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_mode.store(on ? 2 : 1, std::memory_order_relaxed);
}

std::size_t capture_recent(TraceEvent* out, std::size_t max) noexcept {
  const TraceRing* ring = t_rec.ring;
  if (ring == nullptr) return 0;
  return ring->capture(out, max);
}

const char* hist_name(Hist h) noexcept {
  return kHistNames[static_cast<unsigned>(h)];
}

LatencyHistogram& hist(Hist h) noexcept {
  return g_hists[static_cast<unsigned>(h)];
}

namespace {

bool add_counter(const NamedCounter& entry) noexcept {
  std::lock_guard lock(g_register_mu);
  const unsigned n = g_counter_count.load(std::memory_order_relaxed);
  if (n >= kMaxCounters) return false;
  g_counters[n] = entry;
  // Publish after the entry is complete; lock-free readers acquire the count.
  g_counter_count.store(n + 1, std::memory_order_release);
  return true;
}

}  // namespace

bool register_counter(const char* name,
                      const std::atomic<std::uint64_t>* value) noexcept {
  return add_counter(NamedCounter{name, value, nullptr, nullptr, false});
}

bool register_counter_fn(const char* name, CounterFn fn,
                         const void* ctx) noexcept {
  return add_counter(NamedCounter{name, nullptr, fn, ctx, false});
}

bool register_gauge(const char* name,
                    const std::atomic<std::uint64_t>* value) noexcept {
  return add_counter(NamedCounter{name, value, nullptr, nullptr, true});
}

bool register_gauge_fn(const char* name, CounterFn fn,
                       const void* ctx) noexcept {
  return add_counter(NamedCounter{name, nullptr, fn, ctx, true});
}

namespace {

// The host a run had, read once and exported as gauges so the JSON and
// Prometheus dumps and the .dpgcrash file all record it.
std::atomic<std::uint64_t> g_host_cpus{0};
std::atomic<std::uint64_t> g_host_max_map_count{0};
std::atomic<std::uint64_t> g_host_thp_mode{0};  // never 0, madvise 1, always 2

// Reads up to cap-1 bytes of a small /proc or /sys file; "" when unreadable.
void read_small_file(const char* path, char* buf, std::size_t cap) noexcept {
  buf[0] = '\0';
  const int fd = open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  const ssize_t n = read(fd, buf, cap - 1);
  close(fd);
  buf[n > 0 ? n : 0] = '\0';
}

void register_host_gauges() noexcept {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
    g_host_cpus.store(static_cast<std::uint64_t>(CPU_COUNT(&cpus)));
  }
  char buf[128];
  read_small_file("/proc/sys/vm/max_map_count", buf, sizeof buf);
  g_host_max_map_count.store(std::strtoull(buf, nullptr, 10));
  // "always [madvise] never": the bracketed word is the active mode. An
  // unreadable file (no THP support) reads as never.
  read_small_file("/sys/kernel/mm/transparent_hugepage/enabled", buf,
                  sizeof buf);
  if (std::strstr(buf, "[always]") != nullptr) {
    g_host_thp_mode.store(2);
  } else if (std::strstr(buf, "[madvise]") != nullptr) {
    g_host_thp_mode.store(1);
  }
  register_gauge("dpg_host_cpus", &g_host_cpus);
  register_gauge("dpg_host_max_map_count", &g_host_max_map_count);
  register_gauge("dpg_host_thp_mode", &g_host_thp_mode);
}

}  // namespace

void init_from_env() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    // Arm the crash-dump writer alongside the exporter so every engine
    // constructor's init_from_env() also honors DPG_REPORT_DIR.
    dump::init_from_env();
    register_host_gauges();
    // Respect an earlier set_trace_enabled() override.
    int expected = 0;
    const int mode = env_flag("DPG_TRACE", false) ? 2 : 1;
    detail::g_trace_mode.compare_exchange_strong(expected, mode,
                                                 std::memory_order_relaxed);
    set_path(g_prom_path, g_prom_path_set, env_str("DPG_METRICS_PROM"));
    const char* path = env_str("DPG_METRICS_PATH");
    if (path == nullptr) return;
    set_path(g_json_path, g_json_path_set, path);
    std::atexit(dump_at_exit);
    struct sigaction sa{};
    sa.sa_sigaction = on_sigusr1;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    // The SIGUSR2 crash-snapshot handler (obs/dump.cc) and this metrics dump
    // both walk the registries; cross-block so the two never interleave. The
    // atexit exporter is already covered by g_dump_lock's skip-if-busy.
    sigaddset(&sa.sa_mask, SIGUSR2);
    if (sigaction(SIGUSR1, &sa, &g_prev_usr1) == 0) {
      g_prev_usr1_valid = true;
    }
    const long interval_ms =
        env_long("DPG_METRICS_INTERVAL_MS", 0, 0, 86'400'000);
    if (interval_ms > 0) {
      std::thread([interval_ms] {
        const struct timespec ts{interval_ms / 1000,
                                 (interval_ms % 1000) * 1'000'000};
        for (;;) {
          struct timespec remaining = ts;
          nanosleep(&remaining, nullptr);
          dump_metrics("interval");
        }
      }).detach();
    }
  });
}

void set_metrics_path(const char* path) noexcept {
  set_path(g_json_path, g_json_path_set, path);
}

void set_prometheus_path(const char* path) noexcept {
  set_path(g_prom_path, g_prom_path_set, path);
}

std::size_t render_json(char* buf, std::size_t cap,
                        const char* reason) noexcept {
  std::size_t at = 0;
  at = fmt::put_str(buf, cap, at, "{\"type\":\"dpg_metrics\",\"reason\":\"");
  at = fmt::put_str(buf, cap, at, reason);
  at = fmt::put_str(buf, cap, at, "\",");
  at = fmt::put_json_kv(buf, cap, at, "ts_ns", monotonic_ns());
  at = fmt::put_str(buf, cap, at, ",\"counters\":{");
  const unsigned n = g_counter_count.load(std::memory_order_acquire);
  for (unsigned i = 0; i < n; ++i) {
    if (i != 0) at = fmt::put_str(buf, cap, at, ",");
    at = fmt::put_json_kv(buf, cap, at, g_counters[i].name,
                          counter_value(g_counters[i]));
  }
  at = fmt::put_str(buf, cap, at, "},\"histograms\":{");
  for (unsigned i = 0; i < static_cast<unsigned>(Hist::kCount); ++i) {
    if (i != 0) at = fmt::put_str(buf, cap, at, ",");
    at = fmt::put_str(buf, cap, at, "\"");
    at = fmt::put_str(buf, cap, at, kHistNames[i]);
    at = fmt::put_str(buf, cap, at, "\":");
    at = put_hist_json(buf, cap, at, g_hists[i]);
  }
  at = fmt::put_str(buf, cap, at, "},\"trace\":{");
  std::uint64_t events = 0;
  unsigned threads = g_thread_count.load(std::memory_order_relaxed);
  if (threads > kMaxRings) threads = kMaxRings;
  for (unsigned i = 0; i < threads; ++i) {
    const TraceRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) events += ring->pushed();
  }
  at = fmt::put_json_kv(buf, cap, at, "threads", threads);
  at = fmt::put_str(buf, cap, at, ",");
  at = fmt::put_json_kv(buf, cap, at, "events", events);
  at = fmt::put_str(buf, cap, at, "}}");
  return at + 1 < cap ? at : 0;  // 0 => truncated, caller should not emit
}

std::size_t render_prometheus(char* buf, std::size_t cap) noexcept {
  std::size_t at = 0;
  const unsigned n = g_counter_count.load(std::memory_order_acquire);
  for (unsigned i = 0; i < n; ++i) {
    at = fmt::put_str(buf, cap, at, "# TYPE ");
    at = fmt::put_str(buf, cap, at, g_counters[i].name);
    at = fmt::put_str(buf, cap, at,
                      g_counters[i].gauge ? " gauge\n" : " counter\n");
    at = fmt::put_str(buf, cap, at, g_counters[i].name);
    at = fmt::put_str(buf, cap, at, " ");
    at = fmt::put_dec(buf, cap, at, counter_value(g_counters[i]));
    at = fmt::put_str(buf, cap, at, "\n");
  }
  static constexpr unsigned kQuantiles[] = {50, 95, 99};
  static constexpr const char* kQuantileLabels[] = {"0.5", "0.95", "0.99"};
  for (unsigned i = 0; i < static_cast<unsigned>(Hist::kCount); ++i) {
    const LatencyHistogram& h = g_hists[i];
    at = fmt::put_str(buf, cap, at, "# TYPE dpg_");
    at = fmt::put_str(buf, cap, at, kHistNames[i]);
    at = fmt::put_str(buf, cap, at, " summary\n");
    for (unsigned q = 0; q < 3; ++q) {
      at = fmt::put_str(buf, cap, at, "dpg_");
      at = fmt::put_str(buf, cap, at, kHistNames[i]);
      at = fmt::put_str(buf, cap, at, "{quantile=\"");
      at = fmt::put_str(buf, cap, at, kQuantileLabels[q]);
      at = fmt::put_str(buf, cap, at, "\"} ");
      at = fmt::put_dec(buf, cap, at, h.percentile(kQuantiles[q]));
      at = fmt::put_str(buf, cap, at, "\n");
    }
    at = fmt::put_str(buf, cap, at, "dpg_");
    at = fmt::put_str(buf, cap, at, kHistNames[i]);
    at = fmt::put_str(buf, cap, at, "_sum ");
    at = fmt::put_dec(buf, cap, at, h.sum());
    at = fmt::put_str(buf, cap, at, "\ndpg_");
    at = fmt::put_str(buf, cap, at, kHistNames[i]);
    at = fmt::put_str(buf, cap, at, "_count ");
    at = fmt::put_dec(buf, cap, at, h.count());
    at = fmt::put_str(buf, cap, at, "\n");
  }
  return at + 1 < cap ? at : 0;
}

bool dump_metrics(const char* reason) noexcept {
  const bool want_json = g_json_path_set.load(std::memory_order_acquire);
  const bool want_prom = g_prom_path_set.load(std::memory_order_acquire);
  if (!want_json && !want_prom) return false;
  // One dump at a time (also guards against handler reentrancy): a signal
  // landing mid-dump skips rather than deadlocks.
  if (g_dump_lock.test_and_set(std::memory_order_acquire)) return false;
  bool ok = true;
  if (want_json) {
    std::size_t len = render_json(g_dump_buf, sizeof g_dump_buf - 1, reason);
    if (len != 0) {
      g_dump_buf[len++] = '\n';
      ok = write_file(g_json_path, /*append=*/true, g_dump_buf, len) && ok;
    } else {
      ok = false;
    }
  }
  if (want_prom) {
    const std::size_t len = render_prometheus(g_dump_buf, sizeof g_dump_buf);
    ok = (len != 0 &&
          write_file(g_prom_path, /*append=*/false, g_dump_buf, len)) &&
         ok;
  }
  g_dump_lock.clear(std::memory_order_release);
  return ok;
}

std::size_t counter_count() noexcept {
  return g_counter_count.load(std::memory_order_acquire);
}

const char* counter_name(std::size_t i) noexcept {
  if (i >= g_counter_count.load(std::memory_order_acquire)) return nullptr;
  return g_counters[i].name;
}

std::uint64_t counter_value_at(std::size_t i) noexcept {
  if (i >= g_counter_count.load(std::memory_order_acquire)) return 0;
  return counter_value(g_counters[i]);
}

std::size_t trace_ring_count() noexcept {
  const unsigned n = g_thread_count.load(std::memory_order_relaxed);
  return n < kMaxRings ? n : kMaxRings;
}

const TraceRing* trace_ring_at(std::size_t i) noexcept {
  if (i >= kMaxRings) return nullptr;
  return g_rings[i].load(std::memory_order_acquire);
}

}  // namespace dpg::obs
