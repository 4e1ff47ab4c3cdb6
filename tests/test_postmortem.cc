// Postmortem crash-dump pipeline, end to end (DESIGN.md §13):
//
//   - a real dangling use under the preload leaves a CRC-valid .dpgcrash
//     that dpg_report symbolizes back to the alloc/free/use sites;
//   - the writer is async-signal-safe under fault injection: an injected
//     openat failure suppresses the dump but never the abort; an injected
//     write failure leaves a truncated file that dpg_report rejects with its
//     distinct corrupt exit code (3);
//   - SIGUSR2 takes a live snapshot dump and chains to a pre-installed
//     handler (no overlap with the SIGUSR1 metrics dump);
//   - --aggregate dedups a directory of crashes into one signature per
//     distinct bug site, ASLR notwithstanding;
//   - histogram encode/decode round-trips every bucket edge.
//
// Anything that crashes runs in a forked child (or a popen'd victim binary):
// the guard aborts the process, and TSan requires forking from a
// single-threaded parent, so each child does its own dpg init after fork.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/dump.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "vm/revoke.h"

#ifndef DPG_REPORT_BIN
#error "DPG_REPORT_BIN must be defined by the build"
#endif
#ifndef DPG_RUN_BIN
#error "DPG_RUN_BIN must be defined by the build"
#endif
#ifndef DPG_PRELOAD_SO
#error "DPG_PRELOAD_SO must be defined by the build"
#endif
#ifndef DPG_VICTIM_BIN
#error "DPG_VICTIM_BIN must be defined by the build"
#endif

// LD_PRELOADing the TSan-instrumented interposer into a victim dies in the
// sanitizer runtime before main (same reason test_preload is absent from the
// tsan preset), so the victim-spawning cases skip under TSan; the in-process
// cases — the ones whose lock-free paths TSan can actually judge — still run.
#if defined(__SANITIZE_THREAD__)
#define DPG_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPG_TSAN_BUILD 1
#endif
#endif
#if defined(DPG_TSAN_BUILD)
#define SKIP_VICTIM_UNDER_TSAN() \
  GTEST_SKIP() << "LD_PRELOAD victim runs are unsupported under TSan"
#else
#define SKIP_VICTIM_UNDER_TSAN() (void)0
#endif

namespace {

namespace dump = dpg::obs::dump;

struct RunResult {
  int exit_code = -1;
  int term_signal = 0;
  std::string output;
  [[nodiscard]] bool aborted() const {
    return term_signal == SIGABRT || exit_code == 128 + SIGABRT;
  }
};

RunResult run_cmd(const std::string& cmd) {
  RunResult result;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
  return result;
}

// Fresh per-test scratch directory under the build tree.
std::string fresh_dir(const char* tag) {
  static int counter = 0;
  std::string dir = "postmortem-" + std::string(tag) + "-" +
                    std::to_string(getpid()) + "-" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<std::string> list_dumps(const std::string& dir) {
  std::vector<std::string> out;
  DIR* dp = opendir(dir.c_str());
  if (dp == nullptr) return out;
  while (dirent* ent = readdir(dp)) {
    const std::string name = ent->d_name;
    if (name.size() > 9 && name.rfind(".dpgcrash") == name.size() - 9) {
      out.push_back(dir + "/" + name);
    }
  }
  closedir(dp);
  return out;
}

RunResult run_victim(const std::string& mode, const std::string& dir,
                     const std::string& extra_env = {}) {
  std::string cmd = "LD_PRELOAD=" DPG_PRELOAD_SO " DPG_REPORT_DIR=" + dir +
                    " DPG_SITE_DEPTH=8 DPG_TRACE=1 ";
  if (!extra_env.empty()) cmd += extra_env + " ";
  cmd += DPG_VICTIM_BIN " " + mode;
  return run_cmd(cmd);
}

// --- the tentpole: crash -> dump -> symbolized analysis ---------------------

TEST(Postmortem, DanglingUseWritesValidDump) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("uaf");
  const RunResult r = run_victim("uaf", dir);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  // The stderr report references the dump it just wrote.
  EXPECT_NE(r.output.find("crash dump:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("use stack:"), std::string::npos) << r.output;

  const auto dumps = list_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u) << r.output;
  EXPECT_NE(dumps[0].find("-fault"), std::string::npos) << dumps[0];

  const RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + dumps[0]);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
  EXPECT_NE(rep.output.find("reason: fault"), std::string::npos) << rep.output;
  EXPECT_NE(rep.output.find("dangling read"), std::string::npos) << rep.output;
  EXPECT_NE(rep.output.find("signature:"), std::string::npos) << rep.output;
  // Symbolization: the victim binary has symbols, and main (or the inlined
  // run_uaf) must appear in the alloc/use stacks. The stacks themselves must
  // be non-empty.
  EXPECT_NE(rep.output.find("use stack"), std::string::npos) << rep.output;
  const bool symbolized =
      rep.output.find("main") != std::string::npos ||
      rep.output.find("run_uaf") != std::string::npos ||
      rep.output.find("preload_victim") != std::string::npos;
  EXPECT_TRUE(symbolized) << rep.output;
  // The JSON view parses the same dump.
  const RunResult js =
      run_cmd(std::string(DPG_REPORT_BIN) + " --json " + dumps[0]);
  EXPECT_EQ(js.exit_code, 0) << js.output;
  EXPECT_NE(js.output.find("\"kind\":\"read\""), std::string::npos)
      << js.output;
}

TEST(Postmortem, DoubleFreeDumpCarriesBothFreeStacks) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("df");
  const RunResult r = run_victim("df", dir);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  const auto dumps = list_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u);
  const RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + dumps[0]);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
  EXPECT_NE(rep.output.find("double-free"), std::string::npos) << rep.output;
}

TEST(Postmortem, SiteDepthZeroSuppressesStacksNotDumps) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("depth0");
  std::string cmd = "LD_PRELOAD=" DPG_PRELOAD_SO " DPG_REPORT_DIR=" + dir +
                    " DPG_SITE_DEPTH=0 " DPG_VICTIM_BIN " uaf";
  const RunResult r = run_cmd(cmd);
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  const auto dumps = list_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u);
  const RunResult js =
      run_cmd(std::string(DPG_REPORT_BIN) + " --json " + dumps[0]);
  EXPECT_EQ(js.exit_code, 0) << js.output;
  EXPECT_NE(js.output.find("\"site_depth\":0"), std::string::npos)
      << js.output;
  EXPECT_NE(js.output.find("\"use_stack\":[]"), std::string::npos)
      << js.output;
}

// --- async-signal-safety under fault injection ------------------------------

TEST(Postmortem, InjectedOpenFailureSuppressesDumpNotAbort) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("openfail");
  // Every openat attempt fails: the writer gives up cleanly and the fault
  // path still aborts with its stderr report.
  const RunResult r =
      run_victim("uaf", dir, "DPG_FAULT_INJECT=openat:after=0:errno=EACCES");
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("dangling pointer read detected"), std::string::npos)
      << r.output;
  EXPECT_TRUE(list_dumps(dir).empty());
}

TEST(Postmortem, InjectedWriteFailureLeavesRejectedTruncatedDump) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("writefail");
  // Let a few writes through, then fail the rest: the file exists but has no
  // CRC trailer. The victim still aborts; the analyzer must reject the dump
  // with the distinct corrupt exit code.
  const RunResult r =
      run_victim("uaf", dir, "DPG_FAULT_INJECT=write:after=3:errno=EIO");
  EXPECT_TRUE(r.aborted()) << r.exit_code << " " << r.output;
  const auto dumps = list_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u) << r.output;
  const RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + dumps[0]);
  EXPECT_EQ(rep.exit_code, 3) << rep.exit_code << " " << rep.output;
  EXPECT_NE(rep.output.find("truncated"), std::string::npos) << rep.output;
}

TEST(Postmortem, AnalyzerRejectsGarbageAndFlippedBytes) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("garbage");
  const std::string bad = dir + "/not-a-dump.dpgcrash";
  {
    std::ofstream out(bad, std::ios::binary);
    out << "this is not a crash dump at all";
  }
  RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + bad);
  EXPECT_EQ(rep.exit_code, 3) << rep.output;

  // A real dump with one payload byte flipped must fail the CRC.
  const RunResult r = run_victim("uaf", dir);
  EXPECT_TRUE(r.aborted());
  auto dumps = list_dumps(dir);
  dumps.erase(std::remove(dumps.begin(), dumps.end(), bad), dumps.end());
  ASSERT_EQ(dumps.size(), 1u);
  std::ifstream in(dumps[0], std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  // Flip a payload byte near the middle, never a TLV header: a flipped
  // length reads as truncation, and where the middle falls depends on the
  // dump's contents (the maps section alone varies with the backend).
  std::size_t flip = 0;
  for (std::size_t at = sizeof(dump::FileHeader);
       at + sizeof(dump::TlvHeader) <= bytes.size();) {
    dump::TlvHeader h;
    std::memcpy(&h, bytes.data() + at, sizeof h);
    const std::size_t payload = at + sizeof h;
    if (h.length > 0 && payload + h.length > bytes.size() / 2) {
      flip = std::max(payload, bytes.size() / 2);
      break;
    }
    at = payload + h.length;
  }
  ASSERT_NE(flip, 0u);
  bytes[flip] ^= 0x5A;
  const std::string flipped = dir + "/flipped.dpgcrash";
  {
    std::ofstream out(flipped, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + flipped);
  EXPECT_EQ(rep.exit_code, 3) << rep.output;
  EXPECT_NE(rep.output.find("CRC"), std::string::npos) << rep.output;

  // Missing file is an IO error (1), not corruption (3).
  rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + dir + "/nope.dpgcrash");
  EXPECT_EQ(rep.exit_code, 1) << rep.output;
}

// --- signal handling: snapshots + chaining ----------------------------------

// The child installs its own SIGUSR1/SIGUSR2 handlers *before* dpg arms its
// own, raises both, and exits with a bitmask proving (a) dpg wrote its
// metrics/snapshot work and (b) both pre-existing handlers still ran.
volatile sig_atomic_t g_prev_usr1_ran = 0;
volatile sig_atomic_t g_prev_usr2_ran = 0;
void prev_usr1(int) { g_prev_usr1_ran = 1; }
void prev_usr2(int) { g_prev_usr2_ran = 1; }

TEST(Postmortem, Sigusr2SnapshotChainsAndCoexistsWithSigusr1) {
  const std::string dir = fresh_dir("sigusr2");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Pre-existing handlers the runtime must preserve.
    std::signal(SIGUSR1, prev_usr1);
    std::signal(SIGUSR2, prev_usr2);
    dpg::obs::init_from_env();  // installs the SIGUSR1 metrics handler
    if (!dump::set_report_dir(dir.c_str())) _exit(99);
    raise(SIGUSR2);  // snapshot dump + chain
    raise(SIGUSR1);  // metrics path + chain (no interleaving: distinct locks)
    int code = 0;
    if (dump::dumps_written() == 1) code |= 1;
    if (g_prev_usr2_ran != 0) code |= 2;
    if (g_prev_usr1_ran != 0) code |= 4;
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7) << "bit0=dump bit1=usr2-chain bit2=usr1-chain";
  const auto dumps = list_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("-sigusr2"), std::string::npos) << dumps[0];
  const RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + dumps[0]);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
  EXPECT_NE(rep.output.find("reason: sigusr2"), std::string::npos)
      << rep.output;
}

// --- fleet aggregation ------------------------------------------------------

// Two distinct crash sites, each hit several times across *separate* victim
// processes (fresh ASLR every run): the aggregate view must fold them into
// exactly two signatures.
TEST(Postmortem, AggregateDedupsAcrossProcesses) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("agg");
  int uaf_runs = 0;
  int df_runs = 0;
  for (int i = 0; i < 6; ++i) {
    if (run_victim("uaf", dir).aborted()) ++uaf_runs;
    if (run_victim("df", dir).aborted()) ++df_runs;
  }
  ASSERT_EQ(uaf_runs, 6);
  ASSERT_EQ(df_runs, 6);
  ASSERT_EQ(list_dumps(dir).size(), 12u);

  const RunResult agg =
      run_cmd(std::string(DPG_REPORT_BIN) + " --aggregate " + dir);
  EXPECT_EQ(agg.exit_code, 0) << agg.output;
  EXPECT_NE(agg.output.find("2 distinct signatures"), std::string::npos)
      << agg.output;
  EXPECT_NE(agg.output.find("x6"), std::string::npos) << agg.output;
  EXPECT_NE(agg.output.find("double-free"), std::string::npos) << agg.output;
  EXPECT_NE(agg.output.find("read"), std::string::npos) << agg.output;

  // Corrupt dumps are skipped and counted, not fatal.
  {
    std::ofstream out(dir + "/zz-corrupt.dpgcrash", std::ios::binary);
    out << "DPGCRSH1 but then garbage";
  }
  const RunResult agg2 =
      run_cmd(std::string(DPG_REPORT_BIN) + " --aggregate " + dir);
  EXPECT_EQ(agg2.exit_code, 0) << agg2.output;
  EXPECT_NE(agg2.output.find("1 corrupt"), std::string::npos) << agg2.output;
  EXPECT_NE(agg2.output.find("2 distinct signatures"), std::string::npos)
      << agg2.output;
}

TEST(Postmortem, AggregateAllCorruptExitsCorrupt) {
  const std::string dir = fresh_dir("allcorrupt");
  for (int i = 0; i < 3; ++i) {
    std::ofstream out(dir + "/bad" + std::to_string(i) + ".dpgcrash");
    out << "nope";
  }
  const RunResult agg =
      run_cmd(std::string(DPG_REPORT_BIN) + " --aggregate " + dir);
  EXPECT_EQ(agg.exit_code, 3) << agg.output;
}

// --- launcher ---------------------------------------------------------------

TEST(Postmortem, DpgRunWrapsCrashAndAnalyzes) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("dpgrun");
  const RunResult r = run_cmd(std::string(DPG_RUN_BIN) + " --report-dir " +
                              dir + " -- " DPG_VICTIM_BIN " uaf");
  // dpg_run propagates 128+SIGABRT.
  EXPECT_EQ(r.exit_code, 128 + SIGABRT) << r.exit_code << " " << r.output;
  EXPECT_NE(r.output.find("dpg_run: analyzing"), std::string::npos)
      << r.output;
  // The inline analysis is the full dpg_report output.
  EXPECT_NE(r.output.find("reason: fault"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("signature:"), std::string::npos) << r.output;
  ASSERT_EQ(list_dumps(dir).size(), 1u);
}

TEST(Postmortem, DpgRunCleanVictimIsTransparent) {
  SKIP_VICTIM_UNDER_TSAN();
  const std::string dir = fresh_dir("dpgrun-clean");
  const RunResult r = run_cmd(std::string(DPG_RUN_BIN) + " --report-dir " +
                              dir + " -- " DPG_VICTIM_BIN " clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean ok"), std::string::npos) << r.output;
  EXPECT_TRUE(list_dumps(dir).empty());
}

// --- histogram encoding: every bucket edge round-trips ----------------------

TEST(Postmortem, HistogramEncodeDecodesEveryBucketEdge) {
  using dpg::obs::LatencyHistogram;
  LatencyHistogram h;
  // One sample at the low edge of every bucket, plus one at the high edge of
  // the first few: bucket_index must place each exactly where bucket_low/
  // bucket_high claim.
  for (unsigned b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t lo = LatencyHistogram::bucket_low(b);
    ASSERT_EQ(LatencyHistogram::bucket_index(lo), b) << "low edge of " << b;
    const std::uint64_t hi = LatencyHistogram::bucket_high(b);
    if (hi != UINT64_MAX) {
      ASSERT_EQ(LatencyHistogram::bucket_index(hi), b) << "high edge of " << b;
      ASSERT_EQ(LatencyHistogram::bucket_index(hi + 1), b + 1)
          << "just past " << b;
    }
    h.record(lo);
  }
  // Every one of the ~1.9k buckets has a sample: header + one record each.
  static char buf[sizeof(dump::HistogramHeader) +
                  (LatencyHistogram::kBuckets + 1) *
                      sizeof(dump::HistogramBucket)];
  const std::size_t used = dump::encode_histogram(h, "edges", buf, sizeof buf);
  ASSERT_GT(used, sizeof(dump::HistogramHeader));

  dump::HistogramHeader hdr{};
  std::memcpy(&hdr, buf, sizeof hdr);
  EXPECT_STREQ(hdr.name, "edges");
  EXPECT_EQ(hdr.count, LatencyHistogram::kBuckets);
  EXPECT_EQ(hdr.n_buckets, LatencyHistogram::kBuckets);
  ASSERT_EQ(used, sizeof hdr + hdr.n_buckets * sizeof(dump::HistogramBucket));
  for (std::uint64_t i = 0; i < hdr.n_buckets; ++i) {
    dump::HistogramBucket b{};
    std::memcpy(&b, buf + sizeof hdr + i * sizeof b, sizeof b);
    EXPECT_EQ(b.index, i);
    EXPECT_EQ(b.count, 1u) << "bucket " << i;
    EXPECT_EQ(h.bucket_count(static_cast<unsigned>(b.index)), b.count);
  }
  // Empty histogram encodes to nothing (the writer skips the TLV).
  LatencyHistogram empty;
  EXPECT_EQ(dump::encode_histogram(empty, "empty", buf, sizeof buf), 0u);
  // Capacity too small: refuses rather than truncating.
  EXPECT_EQ(dump::encode_histogram(h, "edges", buf, 16), 0u);
}

// In-process writer sanity: a dump written right here (no crash) has every
// section the analyzer expects, and write_crash_dump honors out_path.
TEST(Postmortem, InProcessSnapshotHasAllSections) {
  const std::string dir = fresh_dir("inproc");
  ASSERT_TRUE(dump::set_report_dir(dir.c_str()));
  ASSERT_TRUE(dump::enabled());
  dpg::vm::Revoker revoker;  // the dump records the backend it resolved to
  revoker.init(dpg::vm::RevokeBackend::kAuto);
  char name[128] = {0};
  ASSERT_TRUE(dump::write_crash_dump("unit-test", nullptr, name, sizeof name));
  EXPECT_NE(std::strstr(name, "unit-test"), nullptr) << name;
  const std::string path = dir + "/" + name;
  const RunResult rep = run_cmd(std::string(DPG_REPORT_BIN) + " " + path);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
  EXPECT_NE(rep.output.find("reason: unit-test"), std::string::npos)
      << rep.output;
  EXPECT_NE(rep.output.find("counters:"), std::string::npos) << rep.output;
  EXPECT_NE(rep.output.find(std::string("dpg_revoke_backend_") +
                            dpg::vm::backend_name(revoker.active())),
            std::string::npos)
      << rep.output;
  EXPECT_NE(rep.output.find("vm:"), std::string::npos) << rep.output;
  // The host gauges share the counter table the counters section copies.
  for (const char* gauge : {"dpg_host_cpus", "dpg_host_max_map_count",
                            "dpg_host_thp_mode",
                            "dpg_guard_markers_supported"}) {
    EXPECT_NE(rep.output.find(gauge), std::string::npos) << gauge;
  }
  const RunResult js = run_cmd(std::string(DPG_REPORT_BIN) + " --json " + path);
  EXPECT_EQ(js.exit_code, 0) << js.output;
  // Snapshot dumps dedup by reason, not stacks.
  EXPECT_NE(js.output.find("\"reason\":\"unit-test\""), std::string::npos)
      << js.output;
  dump::set_report_dir(nullptr);  // disarm for any tests after us
  EXPECT_FALSE(dump::enabled());
}

}  // namespace
