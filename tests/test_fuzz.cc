// Fuzz-infrastructure suite (ctest label: fuzz): the trace language, the
// .dpgf replay format, clean in-process matrix runs, and — via the dpg_fuzz
// binary — the full known-bad workflow: a deliberately broken oracle must
// diverge, shrink to a minimal trace, and reproduce from the written replay
// file in one command. The smoke sweep itself runs as the separate
// `fuzz_smoke` ctest entry (dpg_fuzz --smoke).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/cross_checks.h"
#include "fuzz/harness.h"
#include "test_seed.h"

#ifndef DPG_FUZZ_BIN
#error "DPG_FUZZ_BIN must be defined by the build"
#endif

namespace dpg::fuzz {
namespace {

TEST(FuzzTrace, GeneratorIsDeterministic) {
  GenParams params;
  params.n_ops = 500;
  params.pools = true;
  const std::uint64_t seed = dpg::testing::dpg_test_seed(42);
  DPG_SEED_TRACE(seed);
  const Trace a = generate(seed, params);
  const Trace b = generate(seed, params);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ops.size(), 500u);
  // A different seed must actually change the program.
  const Trace c = generate(seed + 1, params);
  EXPECT_NE(a, c);
}

TEST(FuzzTrace, GeneratorCoversTheOpAlphabet) {
  GenParams params;
  params.n_ops = 4000;
  params.pools = true;
  const std::uint64_t seed = dpg::testing::dpg_test_seed(3);
  DPG_SEED_TRACE(seed);
  const Trace t = generate(seed, params);
  std::array<std::size_t, 12> hist{};
  for (const Op& op : t.ops) ++hist[static_cast<std::size_t>(op.kind)];
  for (const OpKind k :
       {OpKind::kMalloc, OpKind::kFree, OpKind::kRead, OpKind::kWrite,
        OpKind::kRealloc, OpKind::kFlush, OpKind::kUafRead, OpKind::kUafWrite,
        OpKind::kDoubleFree, OpKind::kInvalidFree, OpKind::kPoolCreate,
        OpKind::kPoolDestroy}) {
    EXPECT_GT(hist[static_cast<std::size_t>(k)], 0u) << op_name(k);
  }
}

TEST(FuzzTrace, StaticSubsetStaysInTheStaticAlphabet) {
  GenParams params;
  params.n_ops = 1000;
  params.static_compatible = true;
  const Trace t = generate(dpg::testing::dpg_test_seed(9), params);
  for (const Op& op : t.ops) {
    EXPECT_TRUE(op.kind == OpKind::kMalloc || op.kind == OpKind::kFree ||
                op.kind == OpKind::kRead || op.kind == OpKind::kWrite ||
                op.kind == OpKind::kUafRead || op.kind == OpKind::kUafWrite ||
                op.kind == OpKind::kDoubleFree)
        << op_name(op.kind);
    EXPECT_EQ(op.thread, 0);
  }
}

TEST(FuzzTrace, ReplayRoundTripIsByteIdentical) {
  FuzzConfig cfg;
  cfg.name = "batch16-1shard";
  cfg.protect_batch = 16;
  cfg.revoke_backend = vm::RevokeBackend::kGuard;  // rides the header too
  cfg.gen.n_ops = 200;
  const Trace t = generate(dpg::testing::dpg_test_seed(7), cfg.gen);
  const std::string text = to_replay(cfg, t);

  FuzzConfig cfg2;
  Trace t2;
  std::string err;
  ASSERT_TRUE(from_replay(text, &cfg2, &t2, &err)) << err;
  // Generator params are deliberately NOT serialized — the op list is the
  // program; a replay must not depend on re-generation.
  cfg2.gen = cfg.gen;
  EXPECT_EQ(cfg, cfg2);
  EXPECT_EQ(t, t2);
  EXPECT_EQ(to_replay(cfg2, t2), text);
}

TEST(FuzzTrace, ReplayParserRejectsMalformedInput) {
  FuzzConfig cfg;
  Trace t;
  std::string err;
  EXPECT_FALSE(from_replay("", &cfg, &t, &err));
  EXPECT_FALSE(from_replay("not a dpgf file\n", &cfg, &t, &err));
  const std::string good = to_replay(FuzzConfig{}, generate(1, GenParams{}));
  EXPECT_FALSE(from_replay(good + "BOGUS LINE\n", &cfg, &t, &err));
  // revoke_backend names a vm::RevokeBackend; anything else (including the
  // retired "batched") must not reach SUT construction.
  for (const char* name : {"batched", "7"}) {
    std::string bad = good;
    const auto pos = bad.find("revoke_backend auto");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 19, std::string("revoke_backend ") + name);
    EXPECT_FALSE(from_replay(bad, &cfg, &t, &err)) << name;
    EXPECT_NE(err.find("revoke_backend"), std::string::npos) << err;
  }
  // forced_mode indexes the three-rung ladder; -1 leaves it unforced.
  for (const char* mode : {"3", "7", "-2", "x"}) {
    std::string bad = good;
    const auto pos = bad.find("forced_mode -1");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 14, std::string("forced_mode ") + mode);
    EXPECT_FALSE(from_replay(bad, &cfg, &t, &err)) << mode;
    EXPECT_NE(err.find("forced_mode"), std::string::npos) << err;
  }
  // The retired lock-and-key lane: a file that ran a cell on it has no
  // page-guard replay, so anything but `tag_lane 0` is rejected.
  for (const char* lane : {"1", "2", "x"}) {
    std::string bad = good;
    const auto pos = bad.find("revoke_backend");
    ASSERT_NE(pos, std::string::npos);
    bad.insert(pos, std::string("tag_lane ") + lane + "\n");
    EXPECT_FALSE(from_replay(bad, &cfg, &t, &err)) << lane;
    EXPECT_NE(err.find("tag_lane"), std::string::npos) << err;
  }
  // v1 files carried batch_bytes and numeric backends: rejected with a
  // pointer to re-record, never half-parsed.
  std::string v1 = good;
  v1.replace(0, 6, "dpgf 1");
  EXPECT_FALSE(from_replay(v1, &cfg, &t, &err));
  EXPECT_NE(err.find("re-record"), std::string::npos) << err;
}

// Tiny in-process run of every matrix cell: the differential harness itself
// must hold on each config (the heavier sweep lives in fuzz_smoke).
TEST(FuzzHarness, EveryMatrixCellRunsClean) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(11);
  DPG_SEED_TRACE(seed);
  for (const FuzzConfig& cfg : matrix(300)) {
    const Trace trace = generate(seed, cfg.gen);
    const RunResult res = run_trace(cfg, trace, nullptr);
    EXPECT_TRUE(res.ok()) << cfg.name << ": " << [&] {
      std::string all;
      for (const Divergence& d : res.divergences) all += d.detail + "\n";
      return all;
    }();
    EXPECT_GT(res.executed, 0u) << cfg.name;
  }
}

// Deeper lockstep sweep of the sampled lane than the matrix smoke above:
// the oracle must track the engine op-for-op at every rate — N=1 (degenerate
// full guard), a small N that mixes lanes heavily, and the production-shaped
// N=64 where almost everything rides the ledgered fast path.
TEST(FuzzHarness, SampledLaneLockstepAcrossRates) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(31);
  DPG_SEED_TRACE(seed);
  for (const std::size_t n : {std::size_t{1}, std::size_t{4},
                              std::size_t{64}}) {
    FuzzConfig cfg;
    cfg.name = "sampled-lockstep-n" + std::to_string(n);
    cfg.forced_mode = 1;  // core::GuardMode::kSampled
    cfg.sample_rate = n;
    cfg.gen.n_ops = 4000;
    const Trace trace = generate(seed + n, cfg.gen);
    const RunResult res = run_trace(cfg, trace, nullptr);
    EXPECT_TRUE(res.ok()) << cfg.name << ": " << [&] {
      std::string all;
      for (const Divergence& d : res.divergences) all += d.detail + "\n";
      return all;
    }();
    EXPECT_GT(res.executed, 0u) << cfg.name;
  }
}

TEST(FuzzCrossChecks, BaselinesAgreeWithTheTraceModel) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(21);
  DPG_SEED_TRACE(seed);
  const auto div = baseline_cross_check(seed, 300);
  EXPECT_TRUE(div.empty()) << div.front().detail;
}

TEST(FuzzCrossChecks, StaticAnalyzerAgreesWithTheRuntime) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(22);
  DPG_SEED_TRACE(seed);
  const auto div = static_cross_check(seed, 200);
  EXPECT_TRUE(div.empty()) << div.front().detail;
}

// --- the known-bad demo, end to end through the CLI ------------------------

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(DPG_FUZZ_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) return r;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(FuzzCli, OracleBugShrinksToReplayThatReproduces) {
  char path_tmpl[] = "/tmp/dpg_fuzz_XXXXXX";
  const int fd = mkstemp(path_tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string out = path_tmpl;

  // The deliberately broken oracle predicts queued revocations as already
  // applied: on a batched config an in-window UAF read diverges. Exit 2 =
  // divergence found, shrunk, replay written, seed printed.
  const CliResult found = run_cli(
      "--config batch16-1shard --oracle-bug --seeds 20 --ops 800 --out " + out);
  ASSERT_EQ(found.exit_code, 2) << found.output;
  EXPECT_NE(found.output.find("DIVERGENCE"), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("seed="), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("shrunk to"), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("reproduce with:"), std::string::npos)
      << found.output;

  // The shrunken trace must be genuinely minimal for this defect: one malloc,
  // one free (queued, not yet revoked), one UAF read inside the window.
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  FuzzConfig cfg;
  Trace small;
  std::string err;
  ASSERT_TRUE(from_replay(buf.str(), &cfg, &small, &err)) << err;
  EXPECT_TRUE(cfg.oracle_bug);
  EXPECT_LE(small.ops.size(), 4u) << buf.str();

  // One command reproduces it from the file alone.
  const CliResult replay = run_cli("--replay " + out);
  EXPECT_EQ(replay.exit_code, 2) << replay.output;
  EXPECT_NE(replay.output.find("divergence reproduced"), std::string::npos)
      << replay.output;
  unlink(path_tmpl);
}

// Rewrites the first `find` in a cell's replay to `replace`, the way an
// older writer put it: the reader must parse it as the cell, write the
// current form back, and the file must replay clean as the cell it names.
void expect_legacy_replays_as(const std::string& cell, std::uint64_t seed,
                              const std::string& find,
                              const std::string& replace) {
  FuzzConfig cfg;
  for (const FuzzConfig& c : matrix(300)) {
    if (c.name == cell) cfg = c;
  }
  ASSERT_EQ(cfg.name, cell);
  const Trace trace = generate(dpg::testing::dpg_test_seed(seed), cfg.gen);
  const std::string current = to_replay(cfg, trace);
  std::string legacy = current;
  const auto pos = legacy.find(find);
  ASSERT_NE(pos, std::string::npos);
  legacy.replace(pos, find.size(), replace);

  FuzzConfig parsed;
  Trace t;
  std::string err;
  ASSERT_TRUE(from_replay(legacy, &parsed, &t, &err)) << err;
  parsed.gen = cfg.gen;
  EXPECT_EQ(parsed, cfg);
  EXPECT_EQ(to_replay(parsed, t), current) << "the line is not written back";

  char path_tmpl[] = "/tmp/dpg_fuzz_XXXXXX";
  const int fd = mkstemp(path_tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  std::ofstream(path_tmpl) << legacy;
  const CliResult r = run_cli(std::string("--replay ") + path_tmpl);
  unlink(path_tmpl);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// Files recorded before magazines followed the batch carry a `magazines N`
// line. The reader drops it, and the file replays as the cell it names.
TEST(FuzzTrace, ReplayAcceptsLegacyMagazinesLine) {
  expect_legacy_replays_as("batch4-1shard", 13, "batch ",
                           "magazines 64\nbatch ");
}

// Files recorded before the recycle cache followed the magazines carry a
// `recycle_cap N` line, dropped the same way.
TEST(FuzzTrace, ReplayAcceptsLegacyRecycleCapLine) {
  expect_legacy_replays_as("batch4-4shard-mt", 17, "seed ",
                           "recycle_cap 16\nseed ");
}

// Files recorded before guard markers replaced the protection-key backend
// may name it. The reader maps it to mprotect, which revoked the same runs
// with the same one call each.
TEST(FuzzTrace, ReplayMapsLegacyPkeyBackendToMprotect) {
  expect_legacy_replays_as("mprotect-batch16", 19, "revoke_backend mprotect",
                           "revoke_backend pkey");
}

// Files recorded while the lock-and-key lane existed carry `tag_lane 0`
// and `tag_bits 15` lines in every page-guard cell, dropped the same way.
TEST(FuzzTrace, ReplayAcceptsLegacyTagLaneLines) {
  expect_legacy_replays_as("immediate-1shard", 23, "revoke_backend ",
                           "tag_lane 0\ntag_bits 15\nrevoke_backend ");
}

// Hermetic replay: a trace pinned to one backend, replayed in a process
// where heaps on the other backend already ran, must reach the verdict a
// fresh process reaches. Checked for a clean trace and for the
// broken-oracle divergence.
TEST(FuzzCli, ReplayAfterOtherHeapsMatchesFreshProcess) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(5);
  DPG_SEED_TRACE(seed);
  for (const FuzzConfig& c : smoke_matrix(200)) {
    (void)run_trace(c, generate(seed, c.gen), nullptr);
  }
  FuzzConfig cfg;
  for (const FuzzConfig& c : matrix(300)) {
    if (c.name == "mprotect-4shard-mt") cfg = c;
  }
  ASSERT_EQ(cfg.name, "mprotect-4shard-mt");
  const Trace trace = generate(seed, cfg.gen);
  for (const bool oracle_bug : {false, true}) {
    cfg.oracle_bug = oracle_bug;
    const RunResult here = run_trace_forked(cfg, trace, nullptr);

    char path_tmpl[] = "/tmp/dpg_fuzz_XXXXXX";
    const int fd = mkstemp(path_tmpl);
    ASSERT_GE(fd, 0);
    close(fd);
    std::ofstream(path_tmpl) << to_replay(cfg, trace);
    const CliResult fresh = run_cli(std::string("--replay ") + path_tmpl);
    unlink(path_tmpl);
    ASSERT_TRUE(fresh.exit_code == 0 || fresh.exit_code == 2) << fresh.output;
    EXPECT_EQ(here.ok(), fresh.exit_code == 0)
        << "oracle_bug=" << oracle_bug << "\n" << fresh.output;
    EXPECT_EQ(here.ok(), !oracle_bug) << "oracle_bug=" << oracle_bug;
  }
}

TEST(FuzzCli, ListConfigsNamesEveryCell) {
  const CliResult r = run_cli("--list-configs");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const FuzzConfig& cfg : matrix(100)) {
    EXPECT_NE(r.output.find(cfg.name), std::string::npos) << cfg.name;
  }
}

}  // namespace
}  // namespace dpg::fuzz
