// Shared harness for every timed bench row.
//
// Environment knobs (validated via obs/env.h — garbage values warn on stderr
// and fall back to the default instead of silently becoming 0):
//   DPG_BENCH_SCALE  workload size multiplier (default 1.0)
//   DPG_BENCH_REPS   timed repetitions of every row (default 3)
//   DPG_BENCH_JSON   when set, each bench binary writes one document,
//                    BENCH_<bench>.json, to this directory ("." for cwd)
//
// interleave() times every row: each rep runs all of the row's columns once,
// rep r starting at column r mod k, so host drift lands on every column
// alike. A row reports the median and quartiles of its reps; a ratio column,
// those of the per-rep paired ratios (the pairing of dpgbench's overhead_x).
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/policies.h"
#include "obs/env.h"
#include "vm/revoke.h"
#include "vm/vm_stats.h"
#include "workloads/registry.h"

namespace dpg::bench {

inline double env_scale() {
  return obs::env_double("DPG_BENCH_SCALE", 1.0, 1e-4, 1e6);
}

inline int env_reps() {
  return static_cast<int>(obs::env_long("DPG_BENCH_REPS", 3, 1, 10000));
}

// Runs env_reps() reps of a row's k columns; out[c][r] = run(c) in rep r.
template <typename F>
auto interleave(std::size_t k, F&& run) {
  std::vector<std::vector<decltype(run(std::size_t{0}))>> out(k);
  for (std::size_t r = 0; r < static_cast<std::size_t>(env_reps()); ++r) {
    for (std::size_t i = r; i < r + k; ++i) out[i % k].push_back(run(i % k));
  }
  return out;
}

// f(rep) for every rep of a column.
template <typename T, typename F>
std::vector<double> each(const std::vector<T>& reps, F f) {
  std::vector<double> v;
  for (const T& r : reps) v.push_back(f(r));
  return v;
}

// Quantile q (0.25, 0.5, 0.99, ...) of `v`, linearly interpolated between
// ranks.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Spread {
  double median, q1, q3;
  explicit Spread(const std::vector<double>& v)
      : median(quantile(v, 0.5)),
        q1(quantile(v, 0.25)),
        q3(quantile(v, 0.75)) {}

  // "median [q1-q3]" with `prec` decimals.
  [[nodiscard]] std::string show(int prec) const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.*f [%.*f-%.*f]", prec, median, prec, q1,
                  prec, q3);
    return buf;
  }
  [[nodiscard]] std::string json() const {
    char buf[128];
    std::snprintf(buf, sizeof buf, "{\"median\":%.9g,\"q1\":%.9g,\"q3\":%.9g}",
                  median, q1, q3);
    return buf;
  }
};

// The rep nearest the median: a row's counts come from it.
inline std::size_t median_rep(const std::vector<double>& v) {
  const double m = quantile(v, 0.5);
  return std::min_element(v.begin(), v.end(), [m](double a, double b) {
           return std::abs(a - m) < std::abs(b - m);
         }) - v.begin();
}

// One JSON document per bench binary: type, schema, reps, the host record
// (cpus in the affinity mask, resolved revocation backend, max_map_count,
// THP mode), the shipped values of the knobs no env variable overrides, the
// caller's `fields` (each `"key": value,` on its own line), then the rows.
struct Doc {
  const char* type;
  std::string fields;
  std::vector<std::string> rows;

  // Writes $DPG_BENCH_JSON/BENCH_<bench>.json (a no-op when that is unset),
  // or stdout when `bench` is null.
  void write(const char* bench) const {
    const char* dir = obs::env_str("DPG_BENCH_JSON");
    if (bench != nullptr && dir == nullptr) return;
    const std::string path =
        bench == nullptr ? "" : std::string(dir) + "/BENCH_" + bench + ".json";
    std::FILE* f = bench == nullptr ? stdout : std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "dpguard: cannot open %s for DPG_BENCH_JSON\n",
                   path.c_str());
      return;
    }
    long long max_map_count = 0;
    std::ifstream("/proc/sys/vm/max_map_count") >> max_map_count;
    std::string thp;  // "always [madvise] never": the bracketed mode is on
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::getline(in, thp);
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    (void)sched_getaffinity(0, sizeof cpus, &cpus);
    // The preload's budget is set in dpg_preload.cc's runtime().
    std::fprintf(
        f,
        "{\n  \"type\": \"%s\",\n  \"schema\": 6,\n  \"reps\": %d,\n"
        "  \"host\": {\"cpus\": %d, \"backend\": \"%s\", "
        "\"max_map_count\": %lld, \"thp\": \"%s\"},\n"
        "  \"knobs\": {\"freed_va_budget_preload\": %zu, "
        "\"freed_va_budget_guarded_policy\": %zu},\n%s  \"rows\": [\n",
        type, env_reps(), CPU_COUNT(&cpus),
        vm::backend_name(vm::Revoker::resolve(vm::RevokeBackend::kAuto)),
        max_map_count,
        thp.find("[always]") != std::string::npos    ? "always"
        : thp.find("[madvise]") != std::string::npos ? "madvise"
                                                     : "never",
        std::size_t{256} << 20,
        baseline::detail::guarded_state().ctx.config().freed_va_budget,
        fields.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows[i].c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (f != stdout) std::fclose(f);
  }
};

struct Sample {
  double seconds = 0;
  std::uint64_t checksum = 0;
  std::uint64_t syscalls = 0;  // mm-syscalls issued during the run
};

template <typename P>
Sample run_once(const std::string& name, double scale) {
  const std::uint64_t sys_before = vm::syscall_counters().total();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t checksum = workloads::run_workload<P>(name, scale);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), checksum,
          vm::syscall_counters().total() - sys_before};
}

struct Ratio {
  const char* label;
  std::size_t column;  // over column 0
};

struct Group {
  const char* name;
  const std::vector<std::string>& workloads;
};

// A paper table: each group's workloads timed under policies Ps..., the
// first of them the base. A row prints the median seconds under each
// policy, each ratio over the base as median [q1-q3], the mm-syscalls of the
// first ratio's policy (dpguard in every table) and `check`: ok when every
// rep under every policy produced the base's output checksum. Writes
// BENCH_<bench>.json; returns 1 when any row mismatched.
template <typename... Ps>
int run_table(const char* bench, const std::vector<const char*>& columns,
              const std::vector<Ratio>& ratios,
              const std::vector<Group>& groups) {
  using Fn = Sample (*)(const std::string&, double);
  constexpr Fn kRun[] = {&run_once<Ps>...};
  const char* const kNames[] = {Ps::name()...};
  const double scale = env_scale();
  auto secs = [](const Sample& s) { return s.seconds; };
  std::printf("%-10s", "benchmark");
  for (const char* c : columns) std::printf(" %12s", c);
  for (const Ratio& r : ratios) std::printf(" %21s", r.label);
  std::printf(" %12s %8s\n", "mm-syscalls", "check");
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"bench\": \"%s\",\n  \"scale\": %g,\n",
                bench, scale);
  Doc doc{"dpg_bench", buf, {}};
  int mismatches = 0;
  for (const Group& g : groups) {
    std::printf("--- %s ---\n", g.name);
    for (const std::string& name : g.workloads) {
      const auto cells = interleave(sizeof...(Ps), [&](std::size_t c) {
        return kRun[c](name, scale);
      });
      const std::vector<Sample>& base = cells[0];
      bool ok = true;
      std::string json = "\"seconds\":{";
      std::printf("%-10s", name.c_str());
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (const Sample& s : cells[c]) ok &= s.checksum == base[0].checksum;
        const Spread t(each(cells[c], secs));
        std::printf(" %12.4f", t.median);
        json += (c == 0 ? "\"" : ",\"") + std::string(kNames[c]) + "\":" +
                t.json();
      }
      json += "},\"ratios\":{";
      for (const Ratio& r : ratios) {
        std::vector<double> x;
        for (std::size_t i = 0; i < base.size(); ++i) {
          x.push_back(cells[r.column][i].seconds / base[i].seconds);
        }
        std::printf(" %20sx", Spread(x).show(2).c_str());
        json += (&r == &ratios[0] ? "\"" : ",\"") + std::string(r.label) +
                "\":" + Spread(x).json();
      }
      const std::vector<Sample>& ours = cells[ratios[0].column];
      const auto syscalls = static_cast<unsigned long long>(
          ours[median_rep(each(ours, secs))].syscalls);
      std::printf(" %12llu %8s\n", syscalls, ok ? "ok" : "MISMATCH");
      mismatches += ok ? 0 : 1;
      std::snprintf(buf, sizeof buf,
                    "{\"workload\":\"%s\",\"group\":\"%s\",\"reps\":%zu,"
                    "\"scale\":%g,\"syscalls\":%llu,\"checksum\":%llu,"
                    "\"check\":\"%s\",",
                    name.c_str(), g.name, base.size(), scale, syscalls,
                    static_cast<unsigned long long>(base[0].checksum),
                    ok ? "ok" : "MISMATCH");
      doc.rows.push_back(buf + json + "}}");
    }
  }
  doc.write(bench);
  if (mismatches != 0) {
    std::fprintf(stderr, "%s: %d row(s) with a MISMATCH output checksum\n",
                 bench, mismatches);
  }
  return mismatches == 0 ? 0 : 1;
}

inline void print_header(const char* title, const char* note) {
  const char* rule =
      "================================================================";
  std::printf("\n%s\n%s\n%s\n%s\n", rule, title, note, rule);
}

}  // namespace dpg::bench
