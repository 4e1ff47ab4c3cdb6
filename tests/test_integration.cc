// Cross-module integration tests: end-to-end server scenarios with injected
// temporal bugs, the §3.4 mitigation strategies working together, and the
// compiler pipeline feeding the runtime.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baseline/policies.h"
#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/pool_transform.h"
#include "core/fault_manager.h"
#include "core/gc_scan.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "pir_programs.h"
#include "workloads/registry.h"

namespace dpg {
namespace {

// --- Security scenarios the paper motivates with (double-free exploits) ----

TEST(Integration, CvsStyleDoubleFreeCaught) {
  // CVS server double-free (bugtraq 2003): an error path frees a buffer the
  // success path later frees again.
  core::GuardedPoolContext ctx;
  core::GuardedPool pool(ctx);
  auto* dirname = static_cast<char*>(pool.alloc(256, 100));
  std::strcpy(dirname, "/repo/module");
  const bool error_path = true;
  if (error_path) pool.free(dirname, 101);
  // ... later, common cleanup:
  const auto report = core::catch_dangling([&] { pool.free(dirname, 102); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, core::AccessKind::kFree);
}

TEST(Integration, StaleSessionPointerAcrossRequestsCaught) {
  // A server caches a pointer into per-connection state; the next request
  // uses it after the connection pool freed the object.
  core::GuardedPoolContext ctx;
  char* cached = nullptr;
  {
    core::PoolScope request1(ctx);
    cached = static_cast<char*>(request1.pool().alloc(64, 1));
    std::strcpy(cached, "auth-token");
    request1.pool().free(cached, 2);
    // Within the connection lifetime, the stale pointer traps:
    const auto report = core::catch_dangling([&] {
      volatile char c = cached[0];
      (void)c;
    });
    EXPECT_TRUE(report.has_value());
  }
}

TEST(Integration, WriteThroughDanglingPointerCannotCorruptReusedMemory) {
  // The exploit scenario: attacker writes through a dangling pointer to
  // corrupt whatever reused the memory. Here the physical block is reused by
  // `fresh`, but the stale write traps instead of corrupting it.
  vm::PhysArena arena(1u << 26);
  core::ShardedHeap heap(arena, {}, 1);
  auto* victim = static_cast<char*>(heap.malloc(64));
  heap.free(victim);
  auto* fresh = static_cast<char*>(heap.malloc(64));
  std::strcpy(fresh, "credentials=admin");
  const auto report = core::catch_dangling([&] { victim[0] = 'X'; });
  ASSERT_TRUE(report.has_value());
  EXPECT_STREQ(fresh, "credentials=admin") << "memory was corrupted!";
  heap.free(fresh);
}

// --- §3.4 strategies in concert --------------------------------------------

TEST(Integration, LongLivedPoolWithBudgetAndGc) {
  core::GuardedPoolContext ctx({.freed_va_budget = 0});
  core::GuardedPool global_pool(ctx);  // lives "forever"
  core::ConservativeScanner scanner;
  core::ShadowEngine* engines[] = {&global_pool.engine()};

  static char* held;  // root-visible stale pointer
  std::vector<char*> strays;
  for (int i = 0; i < 200; ++i) {
    auto* p = static_cast<char*>(global_pool.alloc(32));
    global_pool.free(p);
    if (i == 50) {
      held = p;
    } else {
      strays.push_back(p);
    }
  }
  scanner.add_root(&held, sizeof(held));
  const auto result = scanner.collect(engines);
  EXPECT_EQ(result.retained, 1u);
  EXPECT_EQ(result.reclaimed, 199u);
  // The retained one still traps; the reclaimed ones gave back their VA.
  const auto report = core::catch_dangling([&] {
    volatile char c = held[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  // Each reclaimed record released its span (window-carved spans go back to
  // the free list with their whole window once the generation retires).
  EXPECT_GE(global_pool.stats().va_reclaimed_pages, 199u);
  held = nullptr;
}

TEST(Integration, BudgetKeepsLongRunningServerBounded) {
  // A "connection handler" that leaks protected spans would exhaust VA /
  // page-table entries over days; the budget strategy bounds it.
  core::GuardedPoolContext ctx({.freed_va_budget = 128 * vm::kPageSize});
  core::GuardedPool pool(ctx);
  // Window-carved spans come back with their whole window once the
  // generation retires: run long enough for the generations to turn over.
  for (int request = 0; request < 40000; ++request) {
    void* p = pool.alloc(48);
    pool.free(p);
  }
  EXPECT_LE(pool.stats().guarded_bytes,
            128 * vm::kPageSize + 2 * vm::kPageSize);
  EXPECT_GT(pool.stats().shadow_pages_reused, 0u);
}

// --- compiler pipeline feeding the runtime ----------------------------------

TEST(Integration, CompilerPipelineEndToEnd) {
  // parse -> analyze -> transform -> execute on guarded runtime -> trap.
  const compiler::Module m = compiler::parse_module(dpg::testing::kFigure1);
  const compiler::TransformResult t = compiler::pool_allocate(m);
  compiler::Interpreter interp(t.module,
                               {.backend = compiler::Backend::kGuarded});
  const std::uint64_t detections_before =
      core::FaultManager::instance().detections();
  const auto report = core::catch_dangling([&] { (void)interp.run(); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(core::FaultManager::instance().detections(), detections_before + 1);
}

TEST(Integration, TransformedProgramsRecycleAcrossRepeatedRuns) {
  const compiler::Module m = compiler::parse_module(dpg::testing::kLocalPool);
  const compiler::TransformResult t = compiler::pool_allocate(m);
  compiler::Interpreter interp(t.module,
                               {.backend = compiler::Backend::kGuarded});
  (void)interp.run();
  const std::size_t phys = interp.context()->arena().physical_bytes();
  const std::size_t recyclable = interp.context()->recyclable_shadow_bytes();
  for (int i = 0; i < 5; ++i) (void)interp.run();
  EXPECT_EQ(interp.context()->arena().physical_bytes(), phys);
  EXPECT_EQ(interp.context()->recyclable_shadow_bytes(), recyclable);
}

// --- workloads under guard with fault accounting -----------------------------

TEST(Integration, ServerWorkloadsRunCleanUnderGuard) {
  const std::uint64_t before = core::FaultManager::instance().detections();
  for (const std::string& name : workloads::server_names()) {
    (void)workloads::run_workload<baseline::GuardedPolicy>(name, 0.03);
  }
  EXPECT_EQ(core::FaultManager::instance().detections(), before)
      << "clean workloads must not trigger detections";
}

TEST(Integration, GhttpdConnectionsRecycleAllPages) {
  // §4.3: "there is no virtual memory wastage" for ghttpd — every connection
  // returns its pages. Measure: repeated batches do not grow the arena.
  (void)workloads::run_workload<baseline::GuardedPolicy>("ghttpd", 0.05);
  auto& ctx = baseline::GuardedPolicy::context();
  const std::size_t phys = ctx.arena().physical_bytes();
  (void)workloads::run_workload<baseline::GuardedPolicy>("ghttpd", 0.05);
  EXPECT_EQ(ctx.arena().physical_bytes(), phys);
}

TEST(Integration, MixedPoliciesCoexistInOneProcess) {
  // Different schemes in one process (e.g. debugging one library while the
  // rest runs native) must not interfere.
  const std::uint64_t native =
      workloads::run_workload<baseline::NativePolicy>("patch", 0.03);
  const std::uint64_t guarded =
      workloads::run_workload<baseline::GuardedPolicy>("patch", 0.03);
  const std::uint64_t efence_ok =
      workloads::run_workload<baseline::NativePolicy>("jwhois", 0.03);
  EXPECT_EQ(native, guarded);
  (void)efence_ok;
}

}  // namespace
}  // namespace dpg
