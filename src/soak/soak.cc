#include "soak/soak.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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

using Clock = std::chrono::steady_clock;

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

// Cross-thread free mailbox: workers hand a slice of their frees to the next
// lane, driving the registry-miss router and the remote-free lists the way a
// producer/consumer server does.
struct Mailbox {
  std::mutex mu;
  std::vector<std::pair<void*, std::uint32_t>> items;  // ptr, site
};

struct WorkerStats {
  std::uint64_t ops = 0;
};

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
  if (xs.size() <= warmup + 1) return d;  // not enough signal: never fails
  const std::size_t n = xs.size() - warmup;
  const double* p = xs.data() + warmup;
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
  // Least-squares slope over sample index (the interval is uniform).
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
  const std::uint64_t interval_ms = std::max<std::uint64_t>(cfg.interval_ms, 50);

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
  // its resident pages stay charged to RSS until a trim munmaps them. At the production
  // limit the fill-trim sawtooth takes tens of seconds, so a short run's
  // drift window sees only the rising edge and reads the (bounded) cycle as
  // a leak. A tight limit puts several full cycles inside the fit window:
  // the fitted slope of a sawtooth is ~0, a real leak still climbs.
  heap.shadow_freelist().set_trim_limit(2048);
  pool_ctx.shadow_freelist().set_trim_limit(2048);

  std::vector<Mailbox> mail(threads);
  std::vector<WorkerStats> wstats(threads);
  std::atomic<bool> stop{false};

  const auto t0 = Clock::now();
  auto elapsed_ms = [&t0] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              t0)
            .count());
  };
  const std::uint64_t wall_ms = cfg.seconds * 1000;

  // --- workers --------------------------------------------------------------
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      workloads::Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + t + 1);
      std::vector<std::pair<void*, std::uint32_t>> live;
      live.reserve(cfg.max_live);
      WorkerStats& ws = wstats[t];
      const std::uint32_t base_site = (t + 1) * 100000;
      std::uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++iter;
        // Drain the mailbox first: frees other lanes routed to us.
        if ((iter & 63) == 0) {
          std::vector<std::pair<void*, std::uint32_t>> in;
          {
            std::lock_guard lk(mail[t].mu);
            in.swap(mail[t].items);
          }
          for (auto& [p, site] : in) {
            heap.free(p, site);
            ++ws.ops;
          }
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
            ++ws.ops;
          }
        } else if (roll < 75) {
          if (!live.empty()) {
            const std::size_t i = rng.below(live.size());
            auto [p, site] = live[i];
            live[i] = live.back();
            live.pop_back();
            if (threads > 1 && rng.below(8) == 0) {
              // Cross-thread free: park it in the next lane's mailbox.
              std::lock_guard lk(mail[(t + 1) % threads].mu);
              mail[(t + 1) % threads].items.emplace_back(p, site);
            } else {
              heap.free(p, site);
              ++ws.ops;
            }
          }
        } else if (roll < 82) {
          if (!live.empty()) {
            const std::size_t i = rng.below(live.size());
            const std::uint32_t size =
                static_cast<std::uint32_t>(1 + rng.below(cfg.max_size));
            void* np = heap.realloc(live[i].first, size, live[i].second);
            if (np != nullptr) live[i].first = np;
            ++ws.ops;
          }
        } else if (roll < 92) {
          if (!live.empty()) {
            // Touch a live object: keeps RSS honest about what churn costs.
            auto [p, site] = live[rng.below(live.size())];
            *static_cast<volatile unsigned char*>(p) = 0x5a;
          }
        } else if (roll < 97 && cfg.pools) {
          // One pool generation: burst-allocate, free half, destroy — the
          // paper's pool lifecycle, which stresses VA recycling hardest.
          core::GuardedPool pool(pool_ctx);
          std::vector<void*> objs;
          const std::size_t burst = 16 + rng.below(48);
          for (std::size_t i = 0; i < burst; ++i) {
            void* p = pool.alloc(1 + rng.below(cfg.max_size),
                                 base_site + 90000);
            if (p != nullptr) objs.push_back(p);
          }
          for (std::size_t i = 0; i < objs.size(); i += 2) {
            pool.free(objs[i], base_site + 90000);
          }
          pool.destroy();
          ws.ops += burst;
        }
        // Deterministic revocation cadence: batched revocations and
        // quarantine evictions must keep pace with the churn, or the gauges
        // never plateau and the drift gate reads recycling lag as a leak.
        if ((iter & 511) == 0) heap.flush_all();
        if ((iter & 255) == 0 && elapsed_ms() >= wall_ms) break;
      }
      for (auto& [p, site] : live) heap.free(p, site);
    });
  }

  // --- fault-pulse driver ---------------------------------------------------
  // One transient pulse at ~1/3 of the wall clock: the governor must demote
  // (full -> sampled, widening under continued refusals) and, once the pulse
  // clears, recover rung by rung. Real incidents are transient; the soak
  // asserts the ladder's round trip, not just the way down.
  std::thread pulser;
  if (cfg.inject_faults) {
    pulser = std::thread([&] {
      const std::uint64_t pulse_at = wall_ms / 3;
      const std::uint64_t pulse_len = std::min<std::uint64_t>(
          std::max<std::uint64_t>(wall_ms / 20, 250), 3000);
      while (!stop.load(std::memory_order_relaxed) &&
             elapsed_ms() < pulse_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (stop.load(std::memory_order_relaxed)) return;
      const char* plan = cfg.fault_plan.empty()
                             ? "mmap:errno=ENOMEM:every=3"
                             : cfg.fault_plan.c_str();
      vm::sys::set_fault_plan(plan);
      const std::uint64_t until = elapsed_ms() + pulse_len;
      while (!stop.load(std::memory_order_relaxed) && elapsed_ms() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      vm::sys::clear_fault_plan();
    });
  }

  // --- sampler (this thread) ------------------------------------------------
  auto take_sample = [&] {
    Sample s;
    s.t_ms = elapsed_ms();
    s.vma_count = proc_vma_count();
    s.va_hwm_kb = proc_va_peak_kb();
    s.rss_kb = proc_rss_kb();
    double quarantine = 0, reuse_delay = 0, mags = 0;
    for (std::size_t i = 0; i < heap.shards(); ++i) {
      quarantine +=
          static_cast<double>(heap.engine(i).quarantine_depth_bytes());
      reuse_delay += static_cast<double>(heap.engine(i).reuse_delay_bytes());
      mags += static_cast<double>(heap.engine(i).magazine_count());
    }
    s.quarantine_bytes = quarantine;
    s.reuse_delay_bytes = reuse_delay;
    s.magazines = mags;
    s.freelist_ranges = static_cast<double>(heap.shadow_freelist().ranges() +
                                            pool_ctx.shadow_freelist().ranges());
    const auto& c = gov.counters();
    s.ladder_transitions =
        static_cast<double>(c.transitions.load(std::memory_order_relaxed));
    s.sample_rate = static_cast<double>(gov.sample_rate());
    s.mode = static_cast<double>(static_cast<int>(gov.mode()));
    res.timeline.push_back(s);
  };

  take_sample();
  std::uint64_t last_transitions = 0;
  while (elapsed_ms() < wall_ms) {
    const std::uint64_t remain = wall_ms - elapsed_ms();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(interval_ms, remain)));
    take_sample();
    // Snapshot the runtime mid-churn (and mid-demotion, when the pulse lands
    // between two ticks): SIGUSR2 must always produce a dump whose rung
    // gauge agrees with its own ladder section.
    const auto transitions =
        static_cast<std::uint64_t>(res.timeline.back().ladder_transitions);
    if (cfg.snapshots && obs::dump::enabled() &&
        transitions != last_transitions) {
      std::raise(SIGUSR2);
      ++res.snapshots_written;
    }
    last_transitions = transitions;
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  if (pulser.joinable()) pulser.join();
  vm::sys::clear_fault_plan();  // belt and braces: never leak a live plan
  heap.flush_all();
  take_sample();

  res.wall_ms = elapsed_ms();
  for (const auto& ws : wstats) res.ops += ws.ops;
  const auto& c = gov.counters();
  const std::uint64_t transitions =
      c.transitions.load(std::memory_order_relaxed);
  res.recoveries = c.recoveries.load(std::memory_order_relaxed);
  res.demotions = transitions - res.recoveries;
  res.sample_widens = c.sample_widens.load(std::memory_order_relaxed);
  res.sample_tightens = c.sample_tightens.load(std::memory_order_relaxed);
  res.saw_demote_cycle = res.demotions >= 1 && res.recoveries >= 1;
  res.final_mode = static_cast<int>(gov.mode());

  // --- drift gate -----------------------------------------------------------
  // Gated series must be flat once the run reaches steady state. Two
  // legitimate non-leak shapes must pass: the one-time step when the fault
  // pulse lands (quarantine parks, degraded spans), and the bounded sawtooth
  // of the recycling layers (freelist fill/trim, freed-VA budget eviction,
  // quarantine fill/evict) whose period can approach the run length. So the
  // gate fits the LOWER ENVELOPE (per-bucket minima) of the LAST HALF of the
  // samples: a step has already happened by then, a sawtooth's minima are
  // flat, and a leak's minima climb with it.
  const std::size_t n = res.timeline.size();
  const std::size_t gate_warmup = std::max(cfg.warmup_samples, n / 2);
  auto series = [&](auto field) {
    std::vector<double> xs;
    xs.reserve(n);
    for (const Sample& s : res.timeline) xs.push_back(s.*field);
    return xs;
  };
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
      {"freelist_ranges", &Sample::freelist_ranges, false},
  };
  for (const Def& d : defs) {
    std::vector<double> xs = series(d.field);
    SeriesDrift sd;
    if (d.gated) {
      std::vector<double> tail(xs.begin() + std::min(gate_warmup, xs.size()),
                               xs.end());
      const std::size_t bucket = std::max<std::size_t>(2, tail.size() / 8);
      std::vector<double> env;
      for (std::size_t i = 0; i < tail.size(); i += bucket) {
        double m = tail[i];
        for (std::size_t j = i; j < std::min(tail.size(), i + bucket); ++j) {
          m = std::min(m, tail[j]);
        }
        env.push_back(m);
      }
      sd = detect_drift(d.name, env, 0, cfg.max_relative_drift, true);
    } else {
      sd = detect_drift(d.name, xs, cfg.warmup_samples,
                        cfg.max_relative_drift, false);
    }
    res.drift_failed = res.drift_failed || sd.failed;
    res.drifts.push_back(std::move(sd));
  }
  publish_governor(nullptr);  // gov is about to go out of scope
  return res;
}

std::string SoakResult::to_json() const {
  std::ostringstream o;
  o << "{\"wall_ms\":" << wall_ms << ",\"ops\":" << ops
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
    o << (i != 0 ? "," : "") << "{\"t_ms\":" << s.t_ms
      << ",\"vma_count\":" << s.vma_count << ",\"va_hwm_kb\":" << s.va_hwm_kb
      << ",\"rss_kb\":" << s.rss_kb
      << ",\"quarantine_bytes\":" << s.quarantine_bytes
      << ",\"reuse_delay_bytes\":" << s.reuse_delay_bytes
      << ",\"magazines\":" << s.magazines
      << ",\"freelist_ranges\":" << s.freelist_ranges
      << ",\"ladder_transitions\":" << s.ladder_transitions
      << ",\"sample_rate\":" << s.sample_rate << ",\"mode\":" << s.mode
      << "}";
  }
  o << "]}";
  return o.str();
}

}  // namespace dpg::soak
