// pirc — command-line driver for the PIR compiler substrate.
//
//   pirc [options] program.pir [-- args...]
//     --dump          print the parsed module
//     --transform     run Automatic Pool Allocation and print the result
//     --pools         print the pool placement summary
//     --lint          run the static UAF/double-free analysis and print
//                     findings (witness paths) + per-site safety verdicts
//     --lint-json     like --lint but machine-readable JSON on stdout
//     --native        execute on the native (unguarded) backend
//     --run           execute transformed code on the guarded runtime (default)
//     --rung=R        pin the degradation governor to one rung for the run:
//                     full | sampled | quarantine. The run gets a private
//                     sticky governor, so it neither reads nor perturbs
//                     process-wide ladder pressure — the A/B knob
//                     for overhead-vs-detection sweeps.
//     --sample-rate=N sampled rung guards 1-in-N allocations (with --rung=
//                     sampled, or as the adaptive ladder's base rate)
//     --no-elide      ignore the SiteSafety table (guard every site)
//     --no-verify     skip the module verifier
//
// Exit codes (distinct so scripts can tell stages apart):
//   0   success / lint found nothing
//   1   usage error or I/O failure
//   2   parse failure
//   3   verifier failure (module is structurally malformed)
//   4   lint found MAY/MUST-UAF or double-free findings
//   42  dangling use detected at runtime by the guarded backend
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/pool_transform.h"
#include "compiler/uaf_analysis.h"
#include "compiler/verify.h"
#include "core/fault_manager.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitParse = 2;
constexpr int kExitVerify = 3;
constexpr int kExitLintFindings = 4;
constexpr int kExitDangling = 42;

int usage() {
  std::fprintf(stderr,
               "usage: pirc [--dump|--transform|--pools|--lint|--lint-json|"
               "--native|--run] "
               "[--rung=full|sampled|quarantine] [--sample-rate=N] "
               "[--no-elide] [--no-verify] program.pir [-- main-args...]\n");
  return kExitUsage;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run_lint(const dpg::compiler::Module& module, bool json) {
  using namespace dpg::compiler;
  const PointsToAnalysis pta(module);
  const UafAnalysis uaf(module, pta);

  if (json) {
    std::printf("{\"findings\":[");
    for (std::size_t i = 0; i < uaf.findings().size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ",",
                  uaf.findings()[i].to_json(module).c_str());
    }
    std::printf("],\"pairs\":[");
    for (std::size_t i = 0; i < uaf.pairs().size(); ++i) {
      const SitePair& pair = uaf.pairs()[i];
      std::printf("%s{\"alloc_site\":%u,\"free_site\":%u,\"class\":\"%s\"}",
                  i == 0 ? "" : ",", pair.alloc_site, pair.free_site,
                  pair_class_name(pair.cls));
    }
    std::printf("]}\n");
  } else {
    for (const Finding& finding : uaf.findings()) {
      std::printf("%s\n", finding.describe(module).c_str());
    }
    for (const SitePair& pair : uaf.pairs()) {
      std::printf("pair alloc=%u free=%u %s\n", pair.alloc_site,
                  pair.free_site, pair_class_name(pair.cls));
    }
    if (uaf.findings().empty()) {
      std::printf("lint: no findings (all sites SAFE)\n");
    } else {
      std::printf("lint: %zu finding%s\n", uaf.findings().size(),
                  uaf.findings().size() == 1 ? "" : "s");
    }
  }
  return uaf.findings().empty() ? kExitOk : kExitLintFindings;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpg::compiler;

  bool dump = false;
  bool show_transform = false;
  bool show_pools = false;
  bool lint = false;
  bool lint_json = false;
  bool native = false;
  bool verify = true;
  bool elide = true;
  int forced_rung = -1;
  std::size_t sample_rate = 0;
  std::string path;
  std::vector<std::uint64_t> main_args;
  bool in_args = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (in_args) {
      main_args.push_back(std::strtoull(argv[i], nullptr, 0));
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--transform") {
      show_transform = true;
    } else if (arg == "--pools") {
      show_pools = true;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint-json") {
      lint = true;
      lint_json = true;
    } else if (arg == "--native") {
      native = true;
    } else if (arg == "--run") {
      // default
    } else if (arg.rfind("--rung=", 0) == 0) {
      const std::string rung = arg.substr(std::strlen("--rung="));
      if (rung == "full") {
        forced_rung = 0;
      } else if (rung == "sampled") {
        forced_rung = 1;
      } else if (rung == "quarantine") {
        forced_rung = 2;
      } else {
        return usage();
      }
    } else if (arg.rfind("--sample-rate=", 0) == 0) {
      char* end = nullptr;
      const char* text = arg.c_str() + std::strlen("--sample-rate=");
      sample_rate = std::strtoull(text, &end, 0);
      if (end == text || *end != '\0' || sample_rate == 0) return usage();
    } else if (arg == "--no-elide") {
      elide = false;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--") {
      in_args = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  try {
    std::string source;
    try {
      source = read_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pirc: %s\n", e.what());
      return kExitUsage;
    }

    Module module;
    try {
      module = parse_module(source);
    } catch (const ParseError& e) {
      std::fprintf(stderr, "pirc: parse error: %s\n", e.what());
      return kExitParse;
    }

    if (verify) {
      const std::vector<std::string> problems = verify_module(module);
      if (!problems.empty()) {
        for (const std::string& p : problems) {
          std::fprintf(stderr, "pirc: verify: %s\n", p.c_str());
        }
        return kExitVerify;
      }
    }

    if (dump) {
      std::fputs(module.dump().c_str(), stdout);
      return kExitOk;
    }
    if (lint) return run_lint(module, lint_json);

    if (native) {
      Interpreter interp(module,
                         {.backend = Backend::kNative, .verify = false});
      const InterpResult result = interp.run(main_args);
      for (const std::uint64_t v : result.output) std::printf("%llu\n",
          static_cast<unsigned long long>(v));
      return kExitOk;
    }

    const TransformResult transformed = pool_allocate(module);
    if (show_pools) {
      for (const auto& pool : transformed.placement.pools) {
        std::printf("pool node=%d home=%s sites=%zu%s\n", pool.node,
                    transformed.module
                        .functions[static_cast<std::size_t>(pool.home_function)]
                        .name.c_str(),
                    pool.sites.size(),
                    pool.global_lifetime ? " (global lifetime)" : "");
      }
      return kExitOk;
    }
    if (show_transform) {
      std::fputs(transformed.module.dump().c_str(), stdout);
      return kExitOk;
    }

    if (verify) {
      // The transformation just performed IR surgery; re-check it (this also
      // validates the guard-elision table it attached).
      const std::vector<std::string> problems =
          verify_module(transformed.module);
      if (!problems.empty()) {
        for (const std::string& p : problems) {
          std::fprintf(stderr, "pirc: verify (transformed): %s\n", p.c_str());
        }
        return kExitVerify;
      }
    }

    Interpreter interp(transformed.module, {.backend = Backend::kGuarded,
                                            .verify = false,
                                            .honor_safety = elide,
                                            .forced_rung = forced_rung,
                                            .sample_rate = sample_rate});
    const auto report = dpg::core::catch_dangling([&] {
      const InterpResult result = interp.run(main_args);
      for (const std::uint64_t v : result.output) std::printf("%llu\n",
          static_cast<unsigned long long>(v));
    });
    if (report.has_value()) {
      std::fprintf(stderr, "pirc: %s\n", report->describe().c_str());
      return kExitDangling;
    }
    return kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pirc: %s\n", e.what());
    return kExitUsage;
  }
}
