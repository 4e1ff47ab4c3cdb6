#include "soak/soak.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/degrade.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "obs/dump.h"
#include "vm/sys.h"
#include "workloads/common.h"

namespace dpg::soak {

namespace {

// Ops per worker per round (a tick is a whole number of rounds), and the
// fault pulse: armed when tick kPulseTick ends, cleared kPulseTicks ticks
// later.
constexpr std::uint64_t kRoundOps = 256;
constexpr std::uint64_t kPulseTick = kTicks / 3;
constexpr std::uint64_t kPulseTicks = 2;

// --- /proc/self gauges ------------------------------------------------------

double proc_vma_count() {
  std::ifstream f("/proc/self/maps");
  if (!f) return 0;
  double lines = 0;
  std::string line;
  while (std::getline(f, line)) ++lines;
  return lines;
}

double proc_va_peak_kb() {
  std::ifstream f("/proc/self/status");
  if (!f) return 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmPeak:", 0) == 0) {
      return std::strtod(line.c_str() + 7, nullptr);
    }
  }
  return 0;
}

double proc_rss_kb() {
  std::ifstream f("/proc/self/statm");
  if (!f) return 0;
  std::uint64_t size = 0, rss = 0;
  f >> size >> rss;
  return static_cast<double>(rss) *
         (static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0);
}

// The soak runs its own governor (never the process-wide one), so its ladder
// must be published to the dump writer explicitly or SIGUSR2 snapshots carry
// no rung. Sections cannot be unregistered, so register once against this
// clearable pointer instead of the stack-scoped governor.
std::atomic<core::DegradationGovernor*> g_dump_gov{nullptr};

void publish_governor(core::DegradationGovernor* gov) {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::dump::register_section(
        obs::dump::Tag::kLadder,
        +[](void*, char* buf, std::size_t cap) noexcept -> std::size_t {
          auto* g = g_dump_gov.load(std::memory_order_acquire);
          return g != nullptr ? core::DegradationGovernor::
                                    render_ladder_section(g, buf, cap)
                              : 0;
        },
        nullptr);
  });
  g_dump_gov.store(gov, std::memory_order_release);
}

}  // namespace

SeriesDrift detect_drift(const std::string& name,
                         const std::vector<double>& xs, std::size_t warmup,
                         double max_relative_drift, bool gated) {
  SeriesDrift d;
  d.name = name;
  d.gated = gated;
  // Lower envelope of the last half (never the warmup).
  const std::size_t from =
      std::min(std::max(warmup, xs.size() / 2), xs.size());
  const std::size_t bucket = std::max<std::size_t>(2, (xs.size() - from) / 8);
  std::vector<double> p;
  for (std::size_t i = from; i < xs.size(); i += bucket) {
    p.push_back(*std::min_element(
        xs.begin() + static_cast<std::ptrdiff_t>(i),
        xs.begin() + static_cast<std::ptrdiff_t>(
                         std::min(xs.size(), i + bucket))));
  }
  const std::size_t n = p.size();
  if (n < 2) return d;  // not enough signal: never fails
  d.samples = n;
  d.first = p[0];
  d.last = p[n - 1];
  double sum = 0;
  bool decreased = false;
  for (std::size_t i = 0; i < n; ++i) {
    sum += p[i];
    if (i != 0 && p[i] < p[i - 1] - 1e-9) decreased = true;
  }
  d.mean = sum / static_cast<double>(n);
  // Least-squares slope over envelope index (the buckets are uniform).
  double sxx = 0, sxy = 0;
  const double xbar = static_cast<double>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - xbar;
    sxx += dx * dx;
    sxy += dx * (p[i] - d.mean);
  }
  d.slope_per_sample = sxx != 0 ? sxy / sxx : 0;
  d.relative_drift = d.slope_per_sample * static_cast<double>(n - 1) /
                     std::max(std::fabs(d.mean), 1.0);
  d.monotonic = !decreased && d.last > d.first;
  // Monotonic growth is the leak signature: a fitted rise that never gives
  // anything back and exceeds the tolerance over the measured window.
  d.failed = gated && d.relative_drift > max_relative_drift &&
             d.slope_per_sample > 0 && d.last > d.first;
  return d;
}

SoakResult run_soak(const SoakConfig& cfg) {
  SoakResult res;
  const std::uint32_t threads = std::max<std::uint32_t>(cfg.threads, 1);
  const std::uint64_t rounds_per_tick =
      std::max<std::uint64_t>(cfg.ops / (kTicks * threads * kRoundOps), 1);
  const std::uint64_t per_tick = rounds_per_tick * kRoundOps;
  res.ops_per_tick = per_tick;
  res.ops = per_tick * threads * kTicks;

  core::GovernorConfig gcfg;
  if (cfg.sample_rate != 0) gcfg.sample_rate = cfg.sample_rate;
  if (cfg.quarantine_bytes != 0) gcfg.quarantine_bytes = cfg.quarantine_bytes;
  core::DegradationGovernor gov(gcfg);
  publish_governor(&gov);

  core::GuardConfig gc;
  gc.governor = &gov;
  gc.protect_batch = cfg.protect_batch;
  gc.freed_va_budget = cfg.freed_va_budget;

  vm::PhysArena arena;
  core::ShardedHeap heap(arena, gc, cfg.shards);
  // Pool churn shares the governor but owns its arena/freelist — the
  // create/destroy cycle is what feeds the VaFreeList trim path.
  core::GuardedPoolContext pool_ctx(gc);
  // Each held freelist range is one revoked VMA (shadow aliases map
  // distinct phys offsets, so the kernel never merges them); under mprotect
  // its resident pages stay charged to RSS until a trim munmaps them. At the
  // production limit one fill-trim cycle outlasts a short run, and the drift
  // window would see only its rising edge. A tight limit puts several full
  // cycles inside the fit window: the fitted slope of a sawtooth is ~0, a
  // real leak still climbs.
  heap.shadow_freelist().set_trim_limit(2048);
  pool_ctx.shadow_freelist().set_trim_limit(2048);

  const auto t0 = std::chrono::steady_clock::now();
  auto take_sample = [&](std::uint64_t tick) {
    Sample s;
    s.tick = tick;
    s.t_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    s.vma_count = proc_vma_count();
    s.va_hwm_kb = proc_va_peak_kb();
    s.rss_kb = proc_rss_kb();
    for (std::size_t i = 0; i < heap.shards(); ++i) {
      const core::ShadowEngine& e = heap.engine(i);
      s.quarantine_bytes += static_cast<double>(e.quarantine_depth_bytes());
      s.reuse_delay_bytes += static_cast<double>(e.reuse_delay_bytes());
      s.magazines += static_cast<double>(e.magazine_count());
      s.owners += static_cast<double>(e.owner_count());
    }
    s.freelist_ranges = static_cast<double>(
        heap.shadow_freelist().ranges() + pool_ctx.shadow_freelist().ranges());
    s.ladder_transitions = static_cast<double>(
        gov.counters().transitions.load(std::memory_order_relaxed));
    s.sample_rate = static_cast<double>(gov.sample_rate());
    s.mode = static_cast<double>(static_cast<int>(gov.mode()));
    res.timeline.push_back(s);
  };

  // Cross-thread frees: worker t parks a slice of its frees in outbox[t],
  // and each round's end frees them from whichever worker completes it,
  // which drives the registry-miss router and the remote-free lists the way
  // a producer/consumer server does. A round is short next to an object's
  // lifetime in the mix, so parking does not pin windows the mix would
  // already have given back.
  std::vector<std::vector<std::pair<void*, std::uint32_t>>> outbox(threads);
  // Worker 0's op index at which it raises SIGUSR2 (none yet).
  std::uint64_t snapshot_op = ~std::uint64_t{0};
  // The built-in pulse refuses every third shadow mmap and every thousandth
  // revocation-class call (madvise under guard markers, mprotect under
  // mprotect). Window refills restore recycled ranges in place, so the
  // steady state issues few mmaps, and the arena's relief-and-retry absorbs
  // an every-third refusal of those; the sparse revocation refusals reach the
  // governor on either backend, about as often as the mmap clause alone did
  // before restores (5-6 demote/recover cycles per 1M ops; EXPERIMENTS.md).
  const char* plan =
      cfg.fault_plan.empty()
          ? "mmap:errno=ENOMEM:every=3,madvise:errno=ENOMEM:every=1000,"
            "mprotect:errno=ENOMEM:every=1000"
          : cfg.fault_plan.c_str();

  // A round's end, run by one worker while the others wait: drain the
  // outboxes. A tick's last round also flushes revocation so the sample
  // sees no free in flight, samples, then moves the fault pulse at its
  // fixed ticks. A tick that moved the ladder schedules a snapshot half way
  // into the next one: SIGUSR2 must always produce a dump whose rung gauge
  // agrees with its own ladder section, even with every worker mid-churn.
  std::uint64_t rounds = 0;
  auto end_round = [&]() noexcept {
    for (auto& box : outbox) {
      for (auto& [p, site] : box) heap.free(p, site);
      box.clear();
    }
    if (++rounds % rounds_per_tick != 0) return;
    const std::uint64_t tick = rounds / rounds_per_tick;
    heap.flush_all();
    const double before = res.timeline.back().ladder_transitions;
    take_sample(tick);
    if (cfg.snapshots && obs::dump::enabled() &&
        res.timeline.back().ladder_transitions != before) {
      snapshot_op = tick * per_tick + per_tick / 2;
    }
    if (cfg.inject_faults && tick == kPulseTick) {
      vm::sys::set_fault_plan(plan);
      res.pulse_armed_tick = static_cast<std::int64_t>(tick);
    } else if (cfg.inject_faults && tick == kPulseTick + kPulseTicks) {
      vm::sys::clear_fault_plan();
      res.pulse_cleared_tick = static_cast<std::int64_t>(tick);
    }
  };
  std::barrier sync(threads, end_round);

  take_sample(0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      workloads::Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + t + 1);
      std::vector<std::pair<void*, std::uint32_t>> live;
      live.reserve(cfg.max_live);
      std::vector<std::pair<void*, std::uint32_t>>& out = outbox[t];
      const std::uint32_t base_site = (t + 1) * 100000;
      for (std::uint64_t op = 0; op < kTicks * per_tick; ++op) {
        if (t == 0 && op == snapshot_op) {
          std::raise(SIGUSR2);
          ++res.snapshots_written;
        }
        const std::uint64_t roll = rng.below(100);
        if (roll < 45 || live.size() < cfg.max_live / 4) {
          if (live.size() < cfg.max_live) {
            const std::uint32_t size =
                static_cast<std::uint32_t>(1 + rng.below(cfg.max_size));
            const std::uint32_t site =
                base_site + static_cast<std::uint32_t>(rng.below(64));
            void* p = heap.malloc(size, site);
            if (p != nullptr) {
              std::memset(p, 0x5a, size);
              live.emplace_back(p, site);
            }
          }
        } else if (roll < 75) {
          if (!live.empty()) {
            const std::size_t j = rng.below(live.size());
            const auto obj = live[j];
            live[j] = live.back();
            live.pop_back();
            if (threads > 1 && rng.below(8) == 0) {
              out.push_back(obj);
            } else {
              heap.free(obj.first, obj.second);
            }
          }
        } else if (roll < 82) {
          if (!live.empty()) {
            const std::size_t j = rng.below(live.size());
            const std::uint32_t size =
                static_cast<std::uint32_t>(1 + rng.below(cfg.max_size));
            void* np = heap.realloc(live[j].first, size, live[j].second);
            if (np != nullptr) live[j].first = np;
          }
        } else if (roll < 92) {
          if (!live.empty()) {
            // Touch a live object: keeps RSS honest about what churn costs.
            *static_cast<volatile unsigned char*>(
                live[rng.below(live.size())].first) = 0x5a;
          }
        } else if (roll < 97 && cfg.pools) {
          // One pool generation: burst-allocate, free half, destroy — the
          // paper's pool lifecycle, which stresses VA recycling hardest.
          core::GuardedPool pool(pool_ctx);
          std::vector<void*> objs;
          const std::size_t burst = 16 + rng.below(48);
          for (std::size_t j = 0; j < burst; ++j) {
            void* p = pool.alloc(1 + rng.below(cfg.max_size),
                                 base_site + 90000);
            if (p != nullptr) objs.push_back(p);
          }
          for (std::size_t j = 0; j < objs.size(); j += 2) {
            pool.free(objs[j], base_site + 90000);
          }
          pool.destroy();
        }
        if ((op + 1) % kRoundOps == 0) sync.arrive_and_wait();
      }
      for (auto& [p, site] : live) heap.free(p, site);
    });
  }
  for (auto& w : workers) w.join();
  vm::sys::clear_fault_plan();  // belt and braces: never leak a live plan
  heap.flush_all();

  res.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const auto& c = gov.counters();
  const std::uint64_t transitions =
      c.transitions.load(std::memory_order_relaxed);
  res.recoveries = c.recoveries.load(std::memory_order_relaxed);
  res.demotions = transitions - res.recoveries;
  res.sample_widens = c.sample_widens.load(std::memory_order_relaxed);
  res.sample_tightens = c.sample_tightens.load(std::memory_order_relaxed);
  res.saw_demote_cycle = res.demotions >= 1 && res.recoveries >= 1;
  res.final_mode = static_cast<int>(gov.mode());

  struct Def {
    const char* name;
    double Sample::* field;
    bool gated;
  };
  const Def defs[] = {
      {"vma_count", &Sample::vma_count, true},
      {"va_hwm_kb", &Sample::va_hwm_kb, true},
      {"rss_kb", &Sample::rss_kb, true},
      {"quarantine_bytes", &Sample::quarantine_bytes, false},
      {"reuse_delay_bytes", &Sample::reuse_delay_bytes, false},
      {"magazines", &Sample::magazines, false},
      {"owners", &Sample::owners, false},
      {"freelist_ranges", &Sample::freelist_ranges, false},
  };
  for (const Def& d : defs) {
    std::vector<double> xs;
    for (const Sample& s : res.timeline) xs.push_back(s.*d.field);
    res.drifts.push_back(detect_drift(d.name, xs, cfg.warmup_samples,
                                      cfg.max_relative_drift, d.gated));
    res.drift_failed = res.drift_failed || res.drifts.back().failed;
  }
  publish_governor(nullptr);  // gov is about to go out of scope
  return res;
}

std::string SoakResult::to_json() const {
  std::ostringstream o;
  o << "{\"wall_ms\":" << wall_ms << ",\"ops\":" << ops
    << ",\"ticks\":" << kTicks << ",\"ops_per_tick\":" << ops_per_tick
    << ",\"pulse_armed_tick\":" << pulse_armed_tick
    << ",\"pulse_cleared_tick\":" << pulse_cleared_tick
    << ",\"demotions\":" << demotions << ",\"recoveries\":" << recoveries
    << ",\"sample_widens\":" << sample_widens
    << ",\"sample_tightens\":" << sample_tightens
    << ",\"snapshots\":" << snapshots_written
    << ",\"saw_demote_cycle\":" << (saw_demote_cycle ? "true" : "false")
    << ",\"drift_failed\":" << (drift_failed ? "true" : "false")
    << ",\"final_mode\":" << final_mode << ",\"drifts\":[";
  for (std::size_t i = 0; i < drifts.size(); ++i) {
    const SeriesDrift& d = drifts[i];
    o << (i != 0 ? "," : "") << "{\"name\":\"" << d.name
      << "\",\"samples\":" << d.samples << ",\"first\":" << d.first
      << ",\"last\":" << d.last << ",\"mean\":" << d.mean
      << ",\"slope_per_sample\":" << d.slope_per_sample
      << ",\"relative_drift\":" << d.relative_drift
      << ",\"monotonic\":" << (d.monotonic ? "true" : "false")
      << ",\"gated\":" << (d.gated ? "true" : "false")
      << ",\"failed\":" << (d.failed ? "true" : "false") << "}";
  }
  o << "],\"timeline\":[";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const Sample& s = timeline[i];
    o << (i != 0 ? "," : "") << "{\"tick\":" << s.tick
      << ",\"t_ms\":" << s.t_ms
      << ",\"vma_count\":" << s.vma_count << ",\"va_hwm_kb\":" << s.va_hwm_kb
      << ",\"rss_kb\":" << s.rss_kb
      << ",\"quarantine_bytes\":" << s.quarantine_bytes
      << ",\"reuse_delay_bytes\":" << s.reuse_delay_bytes
      << ",\"magazines\":" << s.magazines << ",\"owners\":" << s.owners
      << ",\"freelist_ranges\":" << s.freelist_ranges
      << ",\"ladder_transitions\":" << s.ladder_transitions
      << ",\"sample_rate\":" << s.sample_rate << ",\"mode\":" << s.mode
      << "}";
  }
  o << "]}";
  return o.str();
}

}  // namespace dpg::soak
