// End-to-end tests of the LD_PRELOAD interposition: run an uninstrumented
// victim binary under libdpg_preload.so and assert on exit status + report
// text — the paper's "directly applied on the binaries" mode, verified the
// way a user would actually deploy it.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef DPG_PRELOAD_SO
#error "DPG_PRELOAD_SO must be defined by the build"
#endif
#ifndef DPG_VICTIM_BIN
#error "DPG_VICTIM_BIN must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;        // -1 when killed by a signal
  int term_signal = 0;
  std::string output;        // combined stdout+stderr

  // popen reports the shell's status: a signal-killed child surfaces as
  // exit code 128+sig.
  [[nodiscard]] bool aborted() const {
    return term_signal == SIGABRT || exit_code == 128 + SIGABRT;
  }
};

RunResult run_victim(const std::string& mode, bool preload,
                     const std::string& env = {}) {
  std::string cmd;
  if (!env.empty()) cmd += env + " ";
  if (preload) cmd += "LD_PRELOAD=" DPG_PRELOAD_SO " ";
  cmd += DPG_VICTIM_BIN " " + mode + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
  return result;
}

TEST(Preload, VictimIsSaneWithoutPreload) {
  const RunResult r = run_victim("clean", false);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Without the guard every planted bug slips through — and each scenario
  // reports its own documented exit code, so a wrong code here means the
  // victim ran a different path than the preload tests think they exercise.
  const RunResult uaf = run_victim("uaf", false);
  EXPECT_EQ(uaf.exit_code, 10) << uaf.output;
  EXPECT_NE(uaf.output.find("BUG NOT DETECTED"), std::string::npos);
  const RunResult uafw = run_victim("uaf-w", false);
  EXPECT_EQ(uafw.exit_code, 11) << uafw.output;
  const RunResult df = run_victim("df", false);
  // glibc may itself abort on the double free; undetected is exit 12.
  EXPECT_TRUE(df.exit_code == 12 || df.aborted())
      << df.exit_code << " " << df.output;
  const RunResult sr = run_victim("stale-realloc", false);
  EXPECT_TRUE(sr.exit_code == 13 || sr.exit_code == 14)
      << sr.exit_code << " " << sr.output;
  const RunResult unknown = run_victim("no-such-mode", false);
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
}

TEST(Preload, CleanProgramRunsToCompletion) {
  const RunResult r = run_victim("clean", true);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean ok"), std::string::npos) << r.output;
}

TEST(Preload, DanglingReadAbortsWithReport) {
  const RunResult r = run_victim("uaf", true);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("dangling pointer read detected"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("BUG NOT DETECTED"), std::string::npos);
}

TEST(Preload, DanglingWriteAbortsWithReport) {
  const RunResult r = run_victim("uaf-w", true);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("dangling pointer write detected"),
            std::string::npos)
      << r.output;
}

TEST(Preload, DoubleFreeAbortsWithReport) {
  const RunResult r = run_victim("df", true);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("double-free detected"), std::string::npos)
      << r.output;
}

TEST(Preload, StaleReallocAliasAborts) {
  const RunResult r = run_victim("stale-realloc", true);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("dangling pointer"), std::string::npos) << r.output;
}

// Reads "name":value out of the JSON-lines metrics dump (largest value wins:
// the file may hold several snapshots and counters are monotonic).
long metric_value(const std::string& json, const std::string& name) {
  long best = -1;
  const std::string key = "\"" + name + "\":";
  std::string::size_type at = 0;
  while ((at = json.find(key, at)) != std::string::npos) {
    at += key.size();
    best = std::max(best, std::atol(json.c_str() + at));
  }
  return best;
}

// The robustness acceptance run: persistent mmap ENOMEM injected mid-workload
// must leave the victim alive (exit 0) with the governor reporting a
// degraded-mode transition — never crash the host server.
TEST(Preload, SurvivesInjectedMmapExhaustionDegraded) {
  char path_tmpl[] = "/tmp/dpg_metrics_XXXXXX";
  const int fd = mkstemp(path_tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string env =
      std::string("DPG_FAULT_INJECT=mmap:errno=ENOMEM:after=40 ") +
      "DPG_METRICS_PATH=" + path_tmpl;
  const RunResult r = run_victim("churn", true, env);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("churn ok"), std::string::npos) << r.output;

  std::string json;
  if (FILE* f = fopen(path_tmpl, "r")) {
    std::array<char, 512> buf;
    while (fgets(buf.data(), buf.size(), f) != nullptr) json += buf.data();
    fclose(f);
  }
  unlink(path_tmpl);
  EXPECT_GE(metric_value(json, "dpg_degrade_transitions"), 1) << json;
  // The first rung off full-guard is sampled: most allocations take the
  // ledgered fast path (dpg_sampled_allocs). Only if the pressure persists
  // past the widening ceiling do quarantine-only allocations
  // (dpg_degraded_allocs) appear — either proves the ladder engaged.
  EXPECT_GE(metric_value(json, "dpg_sampled_allocs") +
                metric_value(json, "dpg_degraded_allocs"),
            1)
      << json;
}

// With no injection the same workload must finish with the ladder untouched.
TEST(Preload, NoDegradationWithoutInjection) {
  char path_tmpl[] = "/tmp/dpg_metrics_XXXXXX";
  const int fd = mkstemp(path_tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const RunResult r = run_victim("churn", true,
                                 std::string("DPG_METRICS_PATH=") + path_tmpl);
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::string json;
  if (FILE* f = fopen(path_tmpl, "r")) {
    std::array<char, 512> buf;
    while (fgets(buf.data(), buf.size(), f) != nullptr) json += buf.data();
    fclose(f);
  }
  unlink(path_tmpl);
  EXPECT_EQ(metric_value(json, "dpg_degrade_transitions"), 0) << json;
  EXPECT_EQ(metric_value(json, "dpg_guard_errors"), 0) << json;
}

}  // namespace
