// Table 3 — Overheads for allocation-intensive Olden benchmarks.
//
// Paper columns: native | LLVM(base) | PA+dummy syscalls | Our approach,
// Ratio 3 = ours/LLVM(base). Reported range: bh 1.00, power 0.98, tsp 1.04,
// em3d 1.21, perimeter 1.25, treeadd 3.22, bisort 3.51, mst 4.49,
// health 11.24. The worst cases are exactly the benchmarks whose run time is
// dominated by malloc/free pairs, each now costing an mremap + mprotect.
// Exits 1 when any row's guarded output differs from the native one.
#include "bench_common.h"

int main() {
  using namespace dpg;
  using namespace dpg::bench;
  print_header("Table 3: allocation-intensive Olden benchmarks",
                "Ratio3 = dpguard/base, median [q1-q3] of paired reps; "
                "PA+dummy isolates the syscall cost");

  const int rc =
      run_table<baseline::NativePolicy, baseline::PaDummySyscallPolicy,
                baseline::GuardedPolicy>(
          "table3", {"base(s)", "PA+dummy(s)", "ours(s)"},
          {{"Ratio3", 2}, {"dummy-x", 1}},
          {{"olden", workloads::olden_names()}});

  std::printf(
      "\nPaper reference (Ratio 3): bh 1.00, bisort 3.51, em3d 1.21,\n"
      "health 11.24, mst 4.49, perimeter 1.25, power 0.98, treeadd 3.22,\n"
      "tsp 1.04. Shape: compute-bound members (bh/power/tsp/em3d) stay near\n"
      "1x; malloc/free-dominated members (health/mst/bisort/treeadd) slow\n"
      "down by integer factors, mostly attributable to the dummy-syscall\n"
      "column.\n");
  return rc;
}
