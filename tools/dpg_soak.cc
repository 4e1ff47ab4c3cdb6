// dpg_soak — address-space endurance soak driver (DESIGN.md §15).
//
// Runs the op-counted steady-state workload from src/soak against the full
// guarded stack: heap churn, pool create/destroy cycles, cross-thread frees,
// revocation flushes, one injected transient fault pulse (the governor must
// demote and recover), and optional SIGUSR2 snapshot dumps. The run is
// --ops schedule operations split over the workers and 32 ticks; each tick's
// end samples VMA count, VA high-water, RSS, quarantine depth, magazine and
// owner population and ladder movement, and after the run a drift detector
// fails the soak on monotonic growth of any gated series.
//
// Usage:
//   dpg_soak [--ops N] [--threads N] [--shards N]
//            [--sample-rate N] [--seed S] [--max-drift F]
//            [--no-pools] [--no-inject] [--no-snapshots]
//            [--fault-plan SPEC] [--report-dir DIR] [--json FILE]
//
// --report-dir arms the .dpgcrash snapshot writer (SIGUSR2 fires inside the
// tick after each tick that moved the ladder); --json writes the
// machine-readable timeline + verdicts ("-" = stdout) — the CI artifact.
//
// Exit codes:
//   0  endurance gate passed (flat gated series, >= 1 demote/recover cycle
//      when injection is enabled)
//   1  usage error
//   2  endurance gate FAILED (monotonic drift on a gated series, or the
//      injected fault pulse produced no demote/recover round trip)
//   3  internal error (workload could not run)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/dump.h"
#include "soak/soak.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: dpg_soak [--ops N] [--threads N] [--shards N]\n"
      "                [--sample-rate N] [--seed S]\n"
      "                [--max-drift F] [--no-pools] [--no-inject]\n"
      "                [--no-snapshots] [--fault-plan SPEC]\n"
      "                [--report-dir DIR] [--json FILE]\n"
      "exit: 0 pass, 1 usage, 2 endurance gate failed, 3 internal error\n");
  return 1;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dpg::soak::SoakConfig cfg;
  std::string json_path;
  std::string report_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    if (arg == "--ops") {
      const char* s = next();
      if (s == nullptr || !parse_u64(s, &v) || v == 0) return usage();
      cfg.ops = v;
    } else if (arg == "--threads") {
      const char* s = next();
      if (s == nullptr || !parse_u64(s, &v) || v == 0 || v > 64) return usage();
      cfg.threads = static_cast<std::uint32_t>(v);
    } else if (arg == "--shards") {
      const char* s = next();
      if (s == nullptr || !parse_u64(s, &v) || v == 0 || v > 64) return usage();
      cfg.shards = v;
    } else if (arg == "--sample-rate") {
      const char* s = next();
      if (s == nullptr || !parse_u64(s, &v)) return usage();
      cfg.sample_rate = v;
    } else if (arg == "--seed") {
      const char* s = next();
      if (s == nullptr || !parse_u64(s, &v)) return usage();
      cfg.seed = v;
    } else if (arg == "--max-drift") {
      const char* s = next();
      if (s == nullptr) return usage();
      cfg.max_relative_drift = std::strtod(s, nullptr);
      if (cfg.max_relative_drift <= 0) return usage();
    } else if (arg == "--no-pools") {
      cfg.pools = false;
    } else if (arg == "--no-inject") {
      cfg.inject_faults = false;
    } else if (arg == "--no-snapshots") {
      cfg.snapshots = false;
    } else if (arg == "--fault-plan") {
      const char* s = next();
      if (s == nullptr) return usage();
      cfg.fault_plan = s;
    } else if (arg == "--report-dir") {
      const char* s = next();
      if (s == nullptr) return usage();
      report_dir = s;
    } else if (arg == "--json") {
      const char* s = next();
      if (s == nullptr) return usage();
      json_path = s;
    } else {
      return usage();
    }
  }

  if (!report_dir.empty() &&
      !dpg::obs::dump::set_report_dir(report_dir.c_str())) {
    std::fprintf(stderr, "dpg_soak: cannot arm report dir %s\n",
                 report_dir.c_str());
    return 1;
  }

  std::printf("dpg_soak: %llu ops, %u threads, %zu shards, %llu ticks%s\n",
              static_cast<unsigned long long>(cfg.ops), cfg.threads,
              cfg.shards, static_cast<unsigned long long>(dpg::soak::kTicks),
              cfg.inject_faults ? ", fault pulse armed" : "");
  std::fflush(stdout);

  dpg::soak::SoakResult res;
  try {
    res = dpg::soak::run_soak(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpg_soak: internal error: %s\n", e.what());
    return 3;
  }

  if (!json_path.empty()) {
    const std::string json = res.to_json();
    if (json_path == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "dpg_soak: cannot write %s\n", json_path.c_str());
        return 3;
      }
      out << json << "\n";
    }
  }

  std::printf(
      "  %llu ops in %llums (%.0f ops/s), %zu samples\n"
      "  ladder: %llu demotions, %llu recoveries, %llu widens, %llu "
      "tightens, final mode %d%s\n",
      static_cast<unsigned long long>(res.ops),
      static_cast<unsigned long long>(res.wall_ms),
      res.wall_ms != 0 ? 1000.0 * static_cast<double>(res.ops) /
                             static_cast<double>(res.wall_ms)
                       : 0.0,
      res.timeline.size(), static_cast<unsigned long long>(res.demotions),
      static_cast<unsigned long long>(res.recoveries),
      static_cast<unsigned long long>(res.sample_widens),
      static_cast<unsigned long long>(res.sample_tightens), res.final_mode,
      res.snapshots_written != 0 ? " (snapshots written)" : "");
  std::printf("  %-18s %9s %9s %9s %12s %6s\n", "series", "first", "last",
              "mean", "rel-drift", "gate");
  for (const auto& d : res.drifts) {
    std::printf("  %-18s %9.0f %9.0f %9.0f %11.2f%% %6s\n", d.name.c_str(),
                d.first, d.last, d.mean, 100.0 * d.relative_drift,
                !d.gated ? "-" : (d.failed ? "FAIL" : "ok"));
  }

  const bool ok = res.ok(/*require_cycle=*/cfg.inject_faults);
  if (!ok) {
    if (res.drift_failed) {
      std::fprintf(stderr,
                   "dpg_soak: FAIL — monotonic growth on a gated series\n");
    }
    if (cfg.inject_faults && !res.saw_demote_cycle) {
      std::fprintf(stderr,
                   "dpg_soak: FAIL — fault pulse produced no demote/recover "
                   "cycle (demotions=%llu recoveries=%llu)\n",
                   static_cast<unsigned long long>(res.demotions),
                   static_cast<unsigned long long>(res.recoveries));
    }
    return 2;
  }
  std::printf("dpg_soak: PASS\n");
  return 0;
}
