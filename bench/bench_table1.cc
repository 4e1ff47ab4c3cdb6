// Table 1 — Runtime overheads of our approach on Unix utilities and servers.
//
// Paper columns: native | LLVM(base) | PA | PA+dummy syscalls | Our approach,
// with Ratio1 = ours/LLVM(base) and Ratio2 = ours/native. We have a single
// compiler, so "native" and "LLVM (base)" collapse into one baseline (the
// paper itself reports the two are comparable; the ratios of interest are
// against the common baseline). The PA and PA+dummy columns isolate the pool
// transformation and the syscall component exactly as in the paper.
//
// Expected shape: utilities <= ~15% overhead, servers <= ~4%; the dummy-
// syscall column accounts for most of whatever overhead appears. Exits 1
// when any row's guarded output differs from the native one.
#include "bench_common.h"

int main() {
  using namespace dpg;
  using namespace dpg::bench;
  print_header(
      "Table 1: runtime overheads — Unix utilities and servers",
      "columns: base(native) | PA | PA+dummy-syscalls | dpguard; "
      "Ratio1 = dpguard/base, median [q1-q3] of paired reps; "
      "syscalls = mm-syscalls under dpguard");

  const int rc =
      run_table<baseline::NativePolicy, baseline::PaPolicy,
                baseline::PaDummySyscallPolicy, baseline::GuardedPolicy>(
          "table1", {"base(s)", "PA(s)", "PA+dummy(s)", "ours(s)"},
          {{"Ratio1", 3}},
          {{"utilities", workloads::utility_names()},
           {"servers", workloads::server_names()},
           {"interactive", workloads::interactive_names()}});

  std::printf(
      "\nPaper reference: utilities <= 1.15x (enscript 1.15, jwhois 1.02,\n"
      "patch 1.01, gzip 1.00); servers <= 1.04x (ghttpd/ftpd/fingerd/tftpd);\n"
      "interactive: \"no perceptible difference\".\n");
  return rc;
}
