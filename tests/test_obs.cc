// Tests for the observability layer (src/obs): flight recorder, latency
// histograms, counter snapshots under contention, the metrics exporter, and
// the fault-time trace enrichment.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "core/runtime.h"
#include "core/sharded_heap.h"
#include "core/stats.h"
#include "obs/env.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vm/phys_arena.h"
#include "vm/revoke.h"

namespace dpg {
namespace {

using obs::EventKind;
using obs::LatencyHistogram;
using obs::TraceEvent;
using obs::TraceRing;

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

TEST(TraceRingTest, CapturesPushedEventsOldestFirst) {
  TraceRing ring;
  ring.push(EventKind::kAlloc, 0x1000, 64, 7, 1, 100);
  ring.push(EventKind::kFree, 0x1000, 64, 8, 1, 200);
  TraceEvent out[4];
  ASSERT_EQ(ring.capture(out, 4), 2u);
  EXPECT_EQ(out[0].kind, static_cast<std::uint16_t>(EventKind::kAlloc));
  EXPECT_EQ(out[0].addr, 0x1000u);
  EXPECT_EQ(out[0].arg, 64u);
  EXPECT_EQ(out[0].site, 7u);
  EXPECT_EQ(out[0].tid, 1u);
  EXPECT_EQ(out[0].ns, 100u);
  EXPECT_EQ(out[1].kind, static_cast<std::uint16_t>(EventKind::kFree));
  EXPECT_EQ(out[1].ns, 200u);
}

TEST(TraceRingTest, WrapAroundKeepsNewestCapacityEvents) {
  TraceRing ring;
  const std::size_t total = TraceRing::kCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    ring.push(EventKind::kAlloc, i, i * 2, 0, 0, /*ns=*/i);
  }
  EXPECT_EQ(ring.pushed(), total);
  std::vector<TraceEvent> out(TraceRing::kCapacity + 8);
  const std::size_t n = ring.capture(out.data(), out.size());
  ASSERT_EQ(n, TraceRing::kCapacity);  // oldest 50 overwritten
  EXPECT_EQ(out[0].ns, 50u);           // oldest surviving event
  EXPECT_EQ(out[n - 1].ns, total - 1);  // newest
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(out[i].ns, out[i - 1].ns + 1);
  }
}

TEST(TraceRingTest, CaptureTruncatesToNewestMax) {
  TraceRing ring;
  for (std::size_t i = 0; i < 40; ++i) {
    ring.push(EventKind::kFree, i, 0, 0, 0, i);
  }
  TraceEvent out[16];
  ASSERT_EQ(ring.capture(out, 16), 16u);
  EXPECT_EQ(out[0].ns, 24u);   // 40 - 16
  EXPECT_EQ(out[15].ns, 39u);  // newest last
}

TEST(TraceRingTest, ConcurrentPushersLoseNoEvents) {
  TraceRing ring;
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    TraceEvent out[TraceRing::kCapacity];
    while (!stop.load(std::memory_order_relaxed)) {
      (void)ring.capture(out, TraceRing::kCapacity);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ring.push(EventKind::kAlloc, i, i, 0, static_cast<std::uint16_t>(t),
                  i);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // fetch_add head claims a distinct slot per push: no event is dropped.
  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
  TraceEvent out[TraceRing::kCapacity];
  ASSERT_EQ(ring.capture(out, TraceRing::kCapacity), TraceRing::kCapacity);
  for (const TraceEvent& e : out) {
    EXPECT_EQ(e.kind, static_cast<std::uint16_t>(EventKind::kAlloc));
    EXPECT_LT(static_cast<int>(e.tid), kThreads);
  }
}

// ---------------------------------------------------------------------------
// Latency histogram geometry
// ---------------------------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const unsigned i = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(i, static_cast<unsigned>(v));
    EXPECT_EQ(LatencyHistogram::bucket_low(i), v);
    EXPECT_EQ(LatencyHistogram::bucket_high(i), v);
  }
}

TEST(HistogramTest, BucketBoundariesRoundTrip) {
  const std::uint64_t probes[] = {1,    31,         32,         33,
                                  63,   64,         65,         1023,
                                  1024, 4096,       65535,      65536,
                                  1u << 20,         (1u << 20) + 1,
                                  std::uint64_t{1} << 40,
                                  (std::uint64_t{1} << 40) + 12345,
                                  ~std::uint64_t{0}};
  for (std::uint64_t v : probes) {
    const unsigned i = LatencyHistogram::bucket_index(v);
    ASSERT_LT(i, LatencyHistogram::kBuckets) << v;
    EXPECT_LE(LatencyHistogram::bucket_low(i), v) << v;
    EXPECT_GE(LatencyHistogram::bucket_high(i), v) << v;
    // Round trip: both boundary values land back in the same bucket.
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_low(i)),
              i)
        << v;
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_high(i)),
              i)
        << v;
  }
}

TEST(HistogramTest, BucketsArePerfectlyContiguous) {
  // Across the first several octaves, bucket i+1 starts exactly one past
  // bucket i's end — no gaps, no overlaps.
  const unsigned limit = LatencyHistogram::bucket_index(1u << 12);
  for (unsigned i = 0; i < limit; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_high(i) + 1,
              LatencyHistogram::bucket_low(i + 1))
        << "bucket " << i;
  }
}

TEST(HistogramTest, RelativeErrorBoundedByOneOverSubBuckets) {
  // HDR property: reporting bucket_high(v) overstates v by at most 1/32.
  for (std::uint64_t v = LatencyHistogram::kSubBuckets; v < (1u << 16);
       v += 37) {
    const unsigned i = LatencyHistogram::bucket_index(v);
    const std::uint64_t high = LatencyHistogram::bucket_high(i);
    EXPECT_LE((high - v) * LatencyHistogram::kSubBuckets, v) << v;
  }
}

TEST(HistogramTest, PercentilesAndMoments) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(100);
  for (int i = 0; i < 100; ++i) h.record(10000);
  EXPECT_EQ(h.count(), 200u);
  EXPECT_EQ(h.sum(), 100u * 100 + 100u * 10000);
  EXPECT_EQ(h.max_value(), 10000u);
  // p50 falls in the bucket holding 100 (bucket [100, 101]).
  EXPECT_GE(h.percentile(50), 100u);
  EXPECT_LE(h.percentile(50), 101u);
  // p99 falls in the 10000 bucket; clamped to the observed max.
  EXPECT_EQ(h.percentile(99), 10000u);
  EXPECT_EQ(h.percentile(100), 10000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(HistogramTest, ConcurrentRecordersAreExactAfterJoin) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)h.percentile(95);
      (void)h.count();
    }
  });
  std::vector<std::thread> writers;
  std::uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.record(i % 1000);
    });
    for (std::uint64_t i = 0; i < kPerThread; ++i) expect_sum += i % 1000;
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum(), expect_sum);
  EXPECT_EQ(h.max_value(), 999u);
  EXPECT_LE(h.percentile(50), 999u);
}

// ---------------------------------------------------------------------------
// GuardCounters snapshot under contention
// ---------------------------------------------------------------------------

TEST(GuardCountersTest, SnapshotUnderContentionIsPerCounterAccurate) {
  core::GuardCounters c;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const core::GuardStats s = c.snapshot();
      // A lock-free snapshot is per-counter accurate (never exceeds what was
      // written) but carries cross-counter skew — see the contract in
      // stats.h — so we only bound each counter independently.
      EXPECT_LE(s.allocations, kThreads * kPerThread);
      EXPECT_LE(s.frees, kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.allocations.fetch_add(1, std::memory_order_relaxed);
        c.guarded_bytes.fetch_add(64, std::memory_order_relaxed);
        c.frees.fetch_add(1, std::memory_order_relaxed);
        c.guarded_bytes.fetch_sub(64, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const core::GuardStats s = c.snapshot();
  EXPECT_EQ(s.allocations, kThreads * kPerThread);
  EXPECT_EQ(s.frees, kThreads * kPerThread);
  EXPECT_EQ(s.guarded_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Env parsing helpers
// ---------------------------------------------------------------------------

TEST(EnvTest, GarbageFallsBackToDefault) {
  setenv("DPG_TEST_LONG", "abc", 1);
  EXPECT_EQ(obs::env_long("DPG_TEST_LONG", 42), 42);
  setenv("DPG_TEST_LONG", "12junk", 1);  // partial parse is rejected too
  EXPECT_EQ(obs::env_long("DPG_TEST_LONG", 42), 42);
  setenv("DPG_TEST_DBL", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(obs::env_double("DPG_TEST_DBL", 1.5, 0.0, 10.0), 1.5);
  setenv("DPG_TEST_FLAG", "maybe", 1);
  EXPECT_TRUE(obs::env_flag("DPG_TEST_FLAG", true));
  EXPECT_FALSE(obs::env_flag("DPG_TEST_FLAG", false));
  unsetenv("DPG_TEST_LONG");
  unsetenv("DPG_TEST_DBL");
  unsetenv("DPG_TEST_FLAG");
}

TEST(EnvTest, ValidValuesParse) {
  setenv("DPG_TEST_LONG", "17", 1);
  EXPECT_EQ(obs::env_long("DPG_TEST_LONG", 42), 17);
  setenv("DPG_TEST_DBL", "2.25", 1);
  EXPECT_DOUBLE_EQ(obs::env_double("DPG_TEST_DBL", 1.0, 0.0, 10.0), 2.25);
  for (const char* yes : {"1", "true", "on", "yes"}) {
    setenv("DPG_TEST_FLAG", yes, 1);
    EXPECT_TRUE(obs::env_flag("DPG_TEST_FLAG", false)) << yes;
  }
  for (const char* no : {"0", "false", "off", "no"}) {
    setenv("DPG_TEST_FLAG", no, 1);
    EXPECT_FALSE(obs::env_flag("DPG_TEST_FLAG", true)) << no;
  }
  unsetenv("DPG_TEST_LONG");
  unsetenv("DPG_TEST_DBL");
  unsetenv("DPG_TEST_FLAG");
}

TEST(EnvTest, OutOfRangeFallsBack) {
  setenv("DPG_TEST_LONG", "100000", 1);
  EXPECT_EQ(obs::env_long("DPG_TEST_LONG", 3, 1, 10000), 3);
  setenv("DPG_TEST_DBL", "1e9", 1);
  EXPECT_DOUBLE_EQ(obs::env_double("DPG_TEST_DBL", 1.0, 1e-4, 1e6), 1.0);
  unsetenv("DPG_TEST_LONG");
  unsetenv("DPG_TEST_DBL");
}

TEST(EnvTest, UnsetAndEmptyAreFallback) {
  unsetenv("DPG_TEST_LONG");
  EXPECT_EQ(obs::env_long("DPG_TEST_LONG", 9), 9);
  EXPECT_EQ(obs::env_str("DPG_TEST_LONG"), nullptr);
  setenv("DPG_TEST_LONG", "", 1);
  EXPECT_EQ(obs::env_str("DPG_TEST_LONG"), nullptr);
  unsetenv("DPG_TEST_LONG");
}

// ---------------------------------------------------------------------------
// Exporter round trip
// ---------------------------------------------------------------------------

// Minimal structural JSON check: balanced {}/[] outside strings, non-empty.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (in_str) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_str = false;
      }
      continue;
    }
    if (ch == '"') in_str = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str && !s.empty();
}

std::string slurp(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ExporterTest, RenderJsonIsStructuredAndComplete) {
  obs::set_trace_enabled(true);
  obs::hist(obs::Hist::kAllocNs).record(1234);
  obs::hist(obs::Hist::kMprotectNs).record(777);
  obs::record_event(EventKind::kAlloc, 0xABC, 64);
  static char buf[64 * 1024];
  const std::size_t n = obs::render_json(buf, sizeof buf, "test");
  ASSERT_GT(n, 0u);
  const std::string s(buf, n);
  EXPECT_TRUE(json_balanced(s)) << s;
  EXPECT_NE(s.find("\"type\":\"dpg_metrics\""), std::string::npos);
  EXPECT_NE(s.find("\"reason\":\"test\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"alloc_ns\""), std::string::npos);
  EXPECT_NE(s.find("\"mprotect_ns\""), std::string::npos);
  EXPECT_NE(s.find("\"p50\""), std::string::npos);
  EXPECT_NE(s.find("\"p95\""), std::string::npos);
  EXPECT_NE(s.find("\"p99\""), std::string::npos);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"trace\""), std::string::npos);
  obs::set_trace_enabled(false);
}

// The revocation backend a run had is explainable from its dumps alone:
// the probe result, the engines per resolved backend and the madvise
// series appear in both exporter formats.
TEST(ExporterTest, DumpsRecordTheRevocationBackend) {
  vm::PhysArena arena(1u << 24);
  core::ShardedHeap heap(arena, {}, 1);
  const vm::RevokeBackend resolved = heap.engine(0).revoke_backend();
  static char buf[64 * 1024];
  std::size_t n = obs::render_json(buf, sizeof buf, "test");
  ASSERT_GT(n, 0u);
  const std::string js(buf, n);
  EXPECT_NE(js.find(std::string("\"dpg_guard_markers_supported\":") +
                    (vm::Revoker::guard_supported() ? "1" : "0")),
            std::string::npos)
      << js;
  const std::string engines =
      std::string("dpg_revoke_backend_") + vm::backend_name(resolved);
  EXPECT_NE(js.find("\"" + engines + "\":"), std::string::npos) << js;
  EXPECT_EQ(js.find("\"" + engines + "\":0"), std::string::npos) << js;
  EXPECT_NE(js.find("\"dpg_madvise_calls\":"), std::string::npos);
  EXPECT_NE(js.find("\"madvise_ns\":"), std::string::npos);
  n = obs::render_prometheus(buf, sizeof buf);
  ASSERT_GT(n, 0u);
  const std::string prom(buf, n);
  EXPECT_NE(prom.find("dpg_guard_markers_supported "), std::string::npos);
  EXPECT_NE(prom.find(engines + " "), std::string::npos);
  EXPECT_NE(prom.find("dpg_madvise_ns_count "), std::string::npos);
}

// Every dump records the host the run had (read once at init) and the
// runtime's canonical reuse-FIFO depth, both typed as gauges.
TEST(ExporterTest, DumpsRecordTheHostAndTheReuseDelay) {
  (void)core::Runtime::instance();  // registers the runtime's series
  cpu_set_t cpus;
  ASSERT_EQ(sched_getaffinity(0, sizeof cpus, &cpus), 0);
  unsigned long long max_map_count = 0;
  if (std::FILE* f = std::fopen("/proc/sys/vm/max_map_count", "r")) {
    if (std::fscanf(f, "%llu", &max_map_count) != 1) max_map_count = 0;
    std::fclose(f);
  }
  static char buf[64 * 1024];
  std::size_t n = obs::render_json(buf, sizeof buf, "test");
  ASSERT_GT(n, 0u);
  const std::string js(buf, n);
  EXPECT_NE(js.find("\"dpg_host_cpus\":" + std::to_string(CPU_COUNT(&cpus))),
            std::string::npos)
      << js;
  EXPECT_NE(js.find("\"dpg_host_max_map_count\":" +
                    std::to_string(max_map_count)),
            std::string::npos)
      << js;
  const std::size_t thp = js.find("\"dpg_host_thp_mode\":");
  ASSERT_NE(thp, std::string::npos) << js;
  const char mode = js[thp + std::strlen("\"dpg_host_thp_mode\":")];
  EXPECT_TRUE(mode == '0' || mode == '1' || mode == '2') << js;
  EXPECT_NE(js.find("\"dpg_reuse_delay_bytes\":"), std::string::npos) << js;
  n = obs::render_prometheus(buf, sizeof buf);
  ASSERT_GT(n, 0u);
  const std::string prom(buf, n);
  for (const char* gauge : {"dpg_host_cpus", "dpg_host_max_map_count",
                            "dpg_host_thp_mode", "dpg_reuse_delay_bytes"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + gauge + " gauge\n"),
              std::string::npos)
        << gauge;
  }
  EXPECT_NE(prom.find("# TYPE dpg_frees counter\n"), std::string::npos);
}

TEST(ExporterTest, RenderJsonReportsOverflowAsZero) {
  char tiny[16];
  EXPECT_EQ(obs::render_json(tiny, sizeof tiny, "test"), 0u);
}

TEST(ExporterTest, RenderPrometheusExposesQuantiles) {
  obs::set_trace_enabled(true);
  obs::hist(obs::Hist::kFreeNs).record(999);
  static char buf[64 * 1024];
  const std::size_t n = obs::render_prometheus(buf, sizeof buf);
  ASSERT_GT(n, 0u);
  const std::string s(buf, n);
  EXPECT_NE(s.find("# TYPE"), std::string::npos);
  EXPECT_NE(s.find("dpg_free_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(s.find("dpg_free_ns{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(s.find("dpg_free_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(s.find("dpg_free_ns_count"), std::string::npos);
  EXPECT_NE(s.find("dpg_free_ns_sum"), std::string::npos);
  obs::set_trace_enabled(false);
}

TEST(ExporterTest, DumpMetricsAppendsJsonLines) {
  const std::string path =
      ::testing::TempDir() + "dpg_test_metrics.jsonl";
  std::remove(path.c_str());
  obs::set_trace_enabled(true);
  obs::hist(obs::Hist::kAllocNs).record(555);
  obs::set_metrics_path(path.c_str());
  EXPECT_TRUE(obs::dump_metrics("test-a"));
  EXPECT_TRUE(obs::dump_metrics("test-b"));  // appends a second line
  obs::set_metrics_path(nullptr);
  EXPECT_FALSE(obs::dump_metrics("test-c"));  // no sink configured
  obs::set_trace_enabled(false);

  const std::string content = slurp(path.c_str());
  ASSERT_FALSE(content.empty());
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"reason\":\"test-a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"reason\":\"test-b\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"type\":\"dpg_metrics\"", 0), 0u);
    EXPECT_TRUE(json_balanced(line)) << line;
  }
  std::remove(path.c_str());
}

TEST(ExporterTest, PrometheusFileIsRewrittenEachDump) {
  const std::string jsonl =
      ::testing::TempDir() + "dpg_test_metrics2.jsonl";
  const std::string prom = ::testing::TempDir() + "dpg_test_metrics.prom";
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
  obs::set_trace_enabled(true);
  obs::set_metrics_path(jsonl.c_str());
  obs::set_prometheus_path(prom.c_str());
  EXPECT_TRUE(obs::dump_metrics("prom-1"));
  const std::string first = slurp(prom.c_str());
  EXPECT_TRUE(obs::dump_metrics("prom-2"));
  const std::string second = slurp(prom.c_str());
  obs::set_prometheus_path(nullptr);
  obs::set_metrics_path(nullptr);
  obs::set_trace_enabled(false);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  // Truncate-rewrite, not append: one exposition block per file.
  EXPECT_EQ(first.find("# TYPE"), second.find("# TYPE"));
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
}

// ---------------------------------------------------------------------------
// Guarded-heap integration: trace hooks and fault enrichment
// ---------------------------------------------------------------------------

// The clock the flight recorder stamps events with.
std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

TEST(ObsIntegration, DisabledPathRecordsNothing) {
  obs::set_trace_enabled(false);
  TraceEvent before_events[TraceRing::kCapacity];
  TraceEvent after_events[TraceRing::kCapacity];
  const std::size_t ring_before =
      obs::capture_recent(before_events, TraceRing::kCapacity);
  const std::uint64_t hist_before = obs::hist(obs::Hist::kAllocNs).count();
  vm::PhysArena arena(1u << 26);
  core::ShardedHeap heap(arena, {}, 1);
  void* p = heap.malloc(64);
  heap.free(p);
  // No histogram samples and no flight-recorder events were added.
  EXPECT_EQ(obs::hist(obs::Hist::kAllocNs).count(), hist_before);
  const std::size_t ring_after =
      obs::capture_recent(after_events, TraceRing::kCapacity);
  EXPECT_EQ(ring_after, ring_before);
  for (std::size_t i = 0; i < ring_after; ++i) {
    EXPECT_EQ(after_events[i].ns, before_events[i].ns);
  }
}

TEST(ObsIntegration, GuardedWorkloadFillsHistogramsAndRing) {
  obs::set_trace_enabled(true);
  const std::uint64_t alloc_before = obs::hist(obs::Hist::kAllocNs).count();
  const std::uint64_t free_before = obs::hist(obs::Hist::kFreeNs).count();
  vm::PhysArena arena(1u << 26);
  core::ShardedHeap heap(arena, {}, 1);
  const obs::Hist revoke_hist =
      heap.engine(0).revoke_backend() == vm::RevokeBackend::kGuard
          ? obs::Hist::kMadviseNs
          : obs::Hist::kMprotectNs;
  const std::uint64_t revoke_before = obs::hist(revoke_hist).count();
  for (int i = 0; i < 32; ++i) {
    void* p = heap.malloc(64);
    heap.free(p);
  }
  obs::set_trace_enabled(false);
  EXPECT_GE(obs::hist(obs::Hist::kAllocNs).count(), alloc_before + 32);
  EXPECT_GE(obs::hist(obs::Hist::kFreeNs).count(), free_before + 32);
  // Every immediate-mode free revokes its span with the backend's call.
  EXPECT_GE(obs::hist(revoke_hist).count(), revoke_before + 32);
  EXPECT_GT(obs::hist(obs::Hist::kAllocNs).percentile(99), 0u);
  // The calling thread's ring holds the alloc/free event stream.
  TraceEvent out[TraceRing::kCapacity];
  const std::size_t n = obs::capture_recent(out, TraceRing::kCapacity);
  ASSERT_GE(n, 64u);
  std::size_t allocs = 0, frees = 0;
  for (std::size_t i = 0; i < n; ++i) {
    allocs += out[i].kind == static_cast<std::uint16_t>(EventKind::kAlloc);
    frees += out[i].kind == static_cast<std::uint16_t>(EventKind::kFree);
  }
  EXPECT_GE(allocs, 32u);
  EXPECT_GE(frees, 32u);
}

// Every released shadow span is one va-reclaim event, whichever way its VA
// goes (straight to the shared free list, or later with its owner): one per
// record, none for a whole window or for the canonical extents a destroyed
// pool gives back.
TEST(ObsIntegration, EachReleasedSpanRecordsOneVaReclaim) {
  constexpr std::size_t kSpans = 16;
  std::vector<std::uintptr_t> spans;
  const auto reclaims_since = [&spans](std::uint64_t t0) {
    TraceEvent out[TraceRing::kCapacity];
    const std::size_t n = obs::capture_recent(out, TraceRing::kCapacity);
    std::size_t reclaims = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i].ns < t0 ||
          out[i].kind != static_cast<std::uint16_t>(EventKind::kVaReclaim)) {
        continue;
      }
      EXPECT_NE(std::find(spans.begin(), spans.end(), out[i].addr),
                spans.end());
      ++reclaims;
    }
    return reclaims;
  };

  vm::PhysArena arena(1u << 26);
  core::ShardedHeap heap(arena, {}, 1);
  for (std::size_t i = 0; i < kSpans; ++i) {
    void* p = heap.malloc(64);
    const core::ObjectRecord* rec = core::ShadowEngine::record_of(p);
    ASSERT_NE(rec, nullptr);
    spans.push_back(rec->shadow_base);
    heap.free(p);
  }
  std::uint64_t t0 = monotonic_ns();
  obs::set_trace_enabled(true);
  const std::vector<core::ObjectRecord*> freed = heap.engine(0).freed_records();
  EXPECT_FALSE(freed.empty());
  for (core::ObjectRecord* rec : freed) heap.engine(0).reclaim(rec);
  obs::set_trace_enabled(false);
  EXPECT_EQ(reclaims_since(t0), kSpans);

  // Pool destruction releases 16 records of distinct sizes.
  spans.clear();
  core::GuardedPoolContext ctx;
  core::GuardedPool pool(ctx);
  for (std::size_t i = 0; i < kSpans; ++i) {
    void* p = pool.alloc(48 + 40 * i);
    const core::ObjectRecord* rec = core::ShadowEngine::record_of(p);
    ASSERT_NE(rec, nullptr);
    spans.push_back(rec->shadow_base);
  }
  t0 = monotonic_ns();
  obs::set_trace_enabled(true);
  pool.destroy();
  obs::set_trace_enabled(false);
  EXPECT_EQ(reclaims_since(t0), kSpans);
}

// The engine records one shadow-map event per per-object alias and one
// magazine-map event per window generation it maps.
TEST(ObsIntegration, EachAliasRecordsOneMapEvent) {
  constexpr std::size_t kObjects = 32;
  const auto events_since = [](std::uint64_t t0, EventKind kind) {
    TraceEvent out[TraceRing::kCapacity];
    const std::size_t n = obs::capture_recent(out, TraceRing::kCapacity);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      hits += out[i].ns >= t0 &&
              out[i].kind == static_cast<std::uint16_t>(kind);
    }
    return hits;
  };

  // Immediate mprotect revocation: every object takes its own alias.
  vm::PhysArena arena(1u << 26);
  core::ShardedHeap per_object(
      arena, {.revoke_backend = vm::RevokeBackend::kMprotect}, 1);
  std::uint64_t t0 = monotonic_ns();
  obs::set_trace_enabled(true);
  for (std::size_t i = 0; i < kObjects; ++i) {
    per_object.free(per_object.malloc(64));
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(per_object.stats().magazine_maps, 0u);
  EXPECT_EQ(events_since(t0, EventKind::kShadowMap), kObjects);
  EXPECT_EQ(events_since(t0, EventKind::kMagazineMap), 0u);

  // A batched flush: objects carve their pages from window generations.
  vm::PhysArena window_arena(1u << 26);
  core::ShardedHeap windowed(window_arena, {.protect_batch = 16}, 1);
  t0 = monotonic_ns();
  obs::set_trace_enabled(true);
  for (std::size_t i = 0; i < kObjects; ++i) {
    windowed.free(windowed.malloc(64));
  }
  windowed.flush_all();
  obs::set_trace_enabled(false);
  const core::GuardStats s = windowed.stats();
  EXPECT_GT(s.magazine_maps, 0u);
  EXPECT_EQ(events_since(t0, EventKind::kMagazineMap), s.magazine_maps);
}

TEST(ObsIntegration, FaultReportCarriesFlightRecorderTrace) {
  obs::set_trace_enabled(true);
  vm::PhysArena arena(1u << 26);
  core::ShardedHeap heap(arena, {}, 1);
  for (int i = 0; i < 20; ++i) {
    void* q = heap.malloc(48);
    heap.free(q);
  }
  auto* p = static_cast<volatile char*>(heap.malloc(24));
  heap.free(const_cast<char*>(p), /*site=*/5);
  const auto report = core::catch_dangling([&] { (void)p[0]; });
  obs::set_trace_enabled(false);
  ASSERT_TRUE(report.has_value());
  EXPECT_GE(report->trace_count, 16u);
  ASSERT_LE(report->trace_count, core::DanglingReport::kTraceDepth);
  // Newest attached event is the fault itself.
  const TraceEvent& last = report->recent_trace[report->trace_count - 1];
  EXPECT_EQ(last.kind, static_cast<std::uint16_t>(EventKind::kFault));
  EXPECT_EQ(last.addr, report->fault_address);
  // The preceding events include the free of the faulting object.
  bool saw_free = false;
  for (std::size_t i = 0; i + 1 < report->trace_count; ++i) {
    const TraceEvent& e = report->recent_trace[i];
    if (e.kind == static_cast<std::uint16_t>(EventKind::kFree) &&
        e.site == 5u) {
      saw_free = true;
    }
  }
  EXPECT_TRUE(saw_free);
}

}  // namespace
}  // namespace dpg
