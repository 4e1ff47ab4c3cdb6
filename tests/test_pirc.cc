// End-to-end tests for the pirc command-line driver.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#ifndef DPG_PIRC_BIN
#error "DPG_PIRC_BIN must be defined by the build"
#endif
#ifndef DPG_PIR_DIR
#error "DPG_PIR_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // combined stdout+stderr
};

RunResult run_pirc(const std::string& args) {
  const std::string cmd = std::string(DPG_PIRC_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

const std::string kFigure1 = std::string(DPG_PIR_DIR) + "/figure1.pir";
const std::string kSumtree = std::string(DPG_PIR_DIR) + "/sumtree.pir";
const std::string kScratch = std::string(DPG_PIR_DIR) + "/scratch.pir";

TEST(Pirc, Figure1DetectsDanglingAndExits42) {
  const RunResult r = run_pirc(kFigure1);
  EXPECT_EQ(r.exit_code, 42) << r.output;
  EXPECT_NE(r.output.find("dangling read"), std::string::npos) << r.output;
}

TEST(Pirc, Figure1TransformShowsPoolCalls) {
  const RunResult r = run_pirc("--transform " + kFigure1);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("poolinit"), std::string::npos);
  EXPECT_NE(r.output.find("poolalloc"), std::string::npos);
  EXPECT_NE(r.output.find("pooldestroy"), std::string::npos);
}

TEST(Pirc, Figure1PoolsSummary) {
  const RunResult r = run_pirc("--pools " + kFigure1);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("home=f"), std::string::npos) << r.output;
}

TEST(Pirc, SumtreeRunsGuardedWithArgs) {
  const RunResult r = run_pirc(kSumtree + " -- 6");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Depth-6 tree: sum over nodes of their depth label d.
  // levels d=6..1 have 1,2,4,8,16,32 nodes -> sum d*2^(6-d) = 120.
  EXPECT_NE(r.output.find("120"), std::string::npos) << r.output;
}

TEST(Pirc, SumtreeNativeMatchesGuarded) {
  const RunResult guarded = run_pirc(kSumtree + " -- 5");
  const RunResult native = run_pirc("--native " + kSumtree + " -- 5");
  EXPECT_EQ(guarded.exit_code, 0);
  EXPECT_EQ(native.exit_code, 0);
  EXPECT_EQ(guarded.output, native.output);
}

TEST(Pirc, DumpPrintsModule) {
  const RunResult r = run_pirc("--dump " + kSumtree);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("func build"), std::string::npos);
  EXPECT_EQ(r.output.find("poolinit"), std::string::npos);  // untransformed
}

TEST(Pirc, MissingFileFails) {
  const RunResult r = run_pirc("/nonexistent.pir");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Pirc, UsageOnBadFlag) {
  const RunResult r = run_pirc("--bogus " + kSumtree);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage"), std::string::npos);
}

std::string write_temp(const char* name, const char* contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(Pirc, ParseFailureExits2) {
  const std::string path = write_temp("pirc_garbage.pir", "banana\n");
  const RunResult r = run_pirc(path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("parse error"), std::string::npos) << r.output;
}

TEST(Pirc, VerifyFailureExits3) {
  // Parses fine, but calls a function that does not exist.
  const std::string path = write_temp(
      "pirc_badcall.pir", "func main() {\n  call ghost()\n  ret\n}\n");
  const RunResult r = run_pirc(path);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("unknown function"), std::string::npos) << r.output;
}

TEST(Pirc, LintFlagsFigure1AsMustUafExits4) {
  const RunResult r = run_pirc("--lint " + kFigure1);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("MUST-UAF"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("witness:"), std::string::npos) << r.output;
}

TEST(Pirc, LintCleanProgramExits0) {
  const RunResult r = run_pirc("--lint " + kScratch);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no findings"), std::string::npos) << r.output;
}

TEST(Pirc, LintSumtreeTeardownIsKnownFalsePositive) {
  // Post-order recursive frees defeat the strong may-free summary: the
  // analysis flags teardown() even though the program is clean. Pin the
  // behaviour so a precision change shows up as a diff here.
  const RunResult r = run_pirc("--lint " + kSumtree);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("teardown"), std::string::npos) << r.output;
}

TEST(Pirc, ScratchRunsCleanWithElision) {
  const RunResult r = run_pirc(kScratch + " -- 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "0\n1\n2\n");
}

TEST(Pirc, LintJsonEmitsFindingsAndPairs) {
  const RunResult r = run_pirc("--lint-json " + kFigure1);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("\"findings\":["), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"certainty\":\"must\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"pairs\":["), std::string::npos) << r.output;
}

TEST(Pirc, NoElideStillRunsSafePrograms) {
  const RunResult elided = run_pirc(kSumtree + " -- 5");
  const RunResult guarded = run_pirc("--no-elide " + kSumtree + " -- 5");
  EXPECT_EQ(elided.exit_code, 0) << elided.output;
  EXPECT_EQ(guarded.exit_code, 0) << guarded.output;
  EXPECT_EQ(elided.output, guarded.output);
}

// --rung/--sample-rate A/B knobs. Rate 1 on the sampled rung guards every
// allocation, so Figure 1's dangling read still exits 42; the quarantine
// rung parks the freed block instead of revoking it, so the same program
// runs to completion — the overhead-vs-detection trade, visible from the
// exit code alone.
TEST(Pirc, SampledRungRateOneStillDetectsFigure1) {
  const RunResult r = run_pirc("--rung=sampled --sample-rate=1 " + kFigure1);
  EXPECT_EQ(r.exit_code, 42) << r.output;
  EXPECT_NE(r.output.find("dangling read"), std::string::npos) << r.output;
}

TEST(Pirc, QuarantineRungRunsFigure1ToCompletion) {
  const RunResult r = run_pirc("--rung=quarantine " + kFigure1);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Pirc, RungKnobDoesNotChangeCleanProgramOutput) {
  const RunResult full = run_pirc(kSumtree + " -- 5");
  for (const char* rung : {"full", "sampled", "quarantine"}) {
    const RunResult r =
        run_pirc("--rung=" + std::string(rung) + " " + kSumtree + " -- 5");
    EXPECT_EQ(r.exit_code, 0) << rung << ": " << r.output;
    // The governor announces the forced policy shift on stderr; the program
    // output itself must be byte-identical to the full-guard run.
    EXPECT_NE(r.output.find(full.output), std::string::npos) << rung << ": "
                                                             << r.output;
  }
}

TEST(Pirc, BadRungOrSampleRateIsUsageError) {
  for (const char* flag :
       {"--rung=bogus", "--rung=unguarded", "--sample-rate=0",
        "--sample-rate=abc", "--scheme=tag"}) {
    const RunResult r = run_pirc(std::string(flag) + " " + kSumtree);
    EXPECT_EQ(r.exit_code, 1) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << flag;
  }
}

}  // namespace
