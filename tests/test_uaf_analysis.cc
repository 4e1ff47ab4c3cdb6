// Tests for the static use-after-free analysis and its guard-elision
// contract (SiteSafety table consumed by the transform, verifier, interp).
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/interp.h"
#include "compiler/parser.h"
#include "compiler/points_to.h"
#include "compiler/pool_transform.h"
#include "compiler/uaf_analysis.h"
#include "compiler/verify.h"
#include "core/fault_manager.h"
#include "pir_programs.h"

namespace dpg::compiler {
namespace {

// Straight-line intraprocedural dangling dereference (the minimal shape of
// the paper's motivating bug): alloc, free, then use of the same object.
constexpr const char* kStraightLineUaf = R"(
func main() {
  p = malloc 2
  x = const 5
  setfield p, 0, x
  free p
  v = getfield p, 0
  out v
  ret
}
)";

// Loop-carried: the back edge brings a FREED state into the loop header, so
// the dereference (and the re-execution of the free) are MAY, not MUST —
// the first iteration is fine.
constexpr const char* kLoopCarriedFree = R"(
func main() {
  p = malloc 1
  i = const 0
  n = const 3
loop:
  c = lt i, n
  cbr c, body, done
body:
  v = getfield p, 0
  free p
  one = const 1
  i = add i, one
  br loop
done:
  ret
}
)";

// Interprocedural: the callee frees its argument; the caller dereferences
// afterwards. The callee's may-free summary is applied strongly at the call
// site, so this classifies as MUST.
constexpr const char* kFreeInCallee = R"(
func main() {
  p = malloc 1
  call takefree(p)
  v = getfield p, 0
  out v
  ret
}
func takefree(p) {
  free p
  ret
}
)";

constexpr const char* kDoubleFreeStraight = R"(
func main() {
  p = malloc 1
  free p
  free p
  ret
}
)";

// A MAY-UAF object (conditionally freed before its last use) of small const
// size, allocated inside the hot loop's callee. Named for the retired
// lock-and-key lane (DESIGN.md §14), which was chosen for this shape.
constexpr const char* kMayHotTagLane = R"(
func main() {
  i = const 0
  n = const 4
loop:
  c = lt i, n
  cbr c, body, done
body:
  call work(i)
  one = const 1
  i = add i, one
  br loop
done:
  ret
}
func work(flag) {
  p = malloc 2
  setfield p, 0, flag
  cbr flag, dofree, keep
dofree:
  free p
  br join
keep:
  br join
join:
  v = getfield p, 0
  out v
  ret
}
)";

UafAnalysis analyze(const char* src) {
  const Module m = parse_module(src);
  EXPECT_TRUE(verify_module(m).empty());
  const PointsToAnalysis pta(m);
  return UafAnalysis(m, pta);
}

bool has_role(const Finding& f, const char* role) {
  return std::any_of(f.witness.begin(), f.witness.end(),
                     [&](const WitnessStep& s) {
                       return std::string(s.role) == role;
                     });
}

TEST(UafAnalysis, StraightLineUseAfterFreeIsMust) {
  const UafAnalysis uaf = analyze(kStraightLineUaf);
  ASSERT_FALSE(uaf.findings().empty());
  const Finding& f = uaf.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kUseAfterFree);
  EXPECT_EQ(f.certainty, Certainty::kMust);
  // The witness names the allocation, the free, and the use.
  EXPECT_TRUE(has_role(f, "alloc"));
  EXPECT_TRUE(has_role(f, "free"));
  EXPECT_TRUE(has_role(f, "use"));
  // The (alloc, free) pair is reported MUST-UAF and the site is unsafe.
  ASSERT_EQ(uaf.pairs().size(), 1u);
  EXPECT_EQ(uaf.pairs()[0].cls, PairClass::kMustUaf);
  EXPECT_FALSE(uaf.site_safe(uaf.pairs()[0].alloc_site));
}

TEST(UafAnalysis, Figure1DanglingDereferenceIsMust) {
  const UafAnalysis uaf = analyze(dpg::testing::kFigure1);
  const auto must = std::count_if(
      uaf.findings().begin(), uaf.findings().end(), [](const Finding& f) {
        return f.kind == FindingKind::kUseAfterFree &&
               f.certainty == Certainty::kMust;
      });
  EXPECT_GE(must, 1) << "p->next->val after g() freed the chain";
  // Every MUST finding carries a full witness path.
  for (const Finding& f : uaf.findings()) {
    if (f.certainty != Certainty::kMust) continue;
    EXPECT_TRUE(has_role(f, "free")) << f.describe(parse_module(
        dpg::testing::kFigure1));
    EXPECT_TRUE(has_role(f, "use"));
  }
  // Figure 1's list is one merged points-to node; nothing on it is safe.
  EXPECT_FALSE(uaf.unsafe_nodes().empty());
}

TEST(UafAnalysis, LoopCarriedFreeIsMayNotMust) {
  const UafAnalysis uaf = analyze(kLoopCarriedFree);
  ASSERT_FALSE(uaf.findings().empty());
  bool saw_may_use = false;
  for (const Finding& f : uaf.findings()) {
    EXPECT_EQ(f.certainty, Certainty::kMay)
        << "first iteration is clean, so nothing here is MUST: "
        << f.describe(parse_module(kLoopCarriedFree));
    if (f.kind == FindingKind::kUseAfterFree) saw_may_use = true;
  }
  EXPECT_TRUE(saw_may_use);
}

TEST(UafAnalysis, FreeInCalleeUseInCallerIsInterprocedural) {
  const UafAnalysis uaf = analyze(kFreeInCallee);
  ASSERT_FALSE(uaf.findings().empty());
  const auto it = std::find_if(
      uaf.findings().begin(), uaf.findings().end(), [](const Finding& f) {
        return f.kind == FindingKind::kUseAfterFree;
      });
  ASSERT_NE(it, uaf.findings().end());
  EXPECT_EQ(it->certainty, Certainty::kMust);
  // The witness routes through the call that performed the free.
  EXPECT_TRUE(has_role(*it, "call"));
}

TEST(UafAnalysis, DoubleFreeDetected) {
  const UafAnalysis uaf = analyze(kDoubleFreeStraight);
  const auto it = std::find_if(
      uaf.findings().begin(), uaf.findings().end(), [](const Finding& f) {
        return f.kind == FindingKind::kDoubleFree;
      });
  ASSERT_NE(it, uaf.findings().end());
  EXPECT_EQ(it->certainty, Certainty::kMust);
  ASSERT_FALSE(uaf.pairs().empty());
  EXPECT_TRUE(std::any_of(uaf.pairs().begin(), uaf.pairs().end(),
                          [](const SitePair& p) {
                            return p.cls == PairClass::kDoubleFree;
                          }));
}

TEST(UafAnalysis, SafeProgramsHaveZeroFindingsAndFullElision) {
  for (const char* src :
       {dpg::testing::kLocalPool, dpg::testing::kTwoPools}) {
    const Module m = parse_module(src);
    const PointsToAnalysis pta(m);
    const UafAnalysis uaf(m, pta);
    EXPECT_TRUE(uaf.findings().empty()) << uaf.findings().front().describe(m);
    EXPECT_TRUE(uaf.unsafe_nodes().empty());
    for (const SitePair& pair : uaf.pairs()) {
      EXPECT_EQ(pair.cls, PairClass::kSafe);
      EXPECT_TRUE(uaf.site_safe(pair.alloc_site));
      EXPECT_TRUE(uaf.site_safe(pair.free_site));
    }
  }
}

// --- guard-elision contract -------------------------------------------------

TEST(GuardElision, TransformAttachesConsistentSafetyTable) {
  const Module m = parse_module(dpg::testing::kTwoPools);
  const TransformResult tr = pool_allocate(m);
  ASSERT_FALSE(tr.module.site_safety.empty());
  EXPECT_TRUE(verify_module(tr.module).empty());
  // Both structures in kTwoPools are provably safe: every site elided.
  for (const SiteSafetyEntry& e : tr.module.site_safety) {
    EXPECT_TRUE(e.elided) << "site " << e.site;
  }
}

TEST(GuardElision, VerifierRejectsMixedNode) {
  const Module m = parse_module(dpg::testing::kTwoPools);
  TransformResult tr = pool_allocate(m);
  ASSERT_GE(tr.module.site_safety.size(), 2u);
  // Flip one entry: its node now mixes elided and guarded sites.
  tr.module.site_safety.front().elided =
      !tr.module.site_safety.front().elided;
  const std::vector<std::string> problems = verify_module(tr.module);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("mixes elided and guarded"),
            std::string::npos)
      << problems.front();
}

TEST(GuardElision, SafeWorkloadRunsUnguardedAndCountsElisions) {
  const Module m = parse_module(dpg::testing::kTwoPools);
  const TransformResult tr = pool_allocate(m);
  Interpreter interp(tr.module, {.backend = Backend::kGuarded});
  const InterpResult result = interp.run();
  ASSERT_EQ(result.output.size(), 2u);
  EXPECT_EQ(result.output[0], 5u);
  EXPECT_EQ(result.output[1], 1u);
  EXPECT_GT(interp.guards_elided(), 0u);
}

TEST(GuardElision, HonorSafetyOffForcesFullGuarding) {
  const Module m = parse_module(dpg::testing::kTwoPools);
  const TransformResult tr = pool_allocate(m);
  Interpreter interp(tr.module,
                     {.backend = Backend::kGuarded, .honor_safety = false});
  const InterpResult result = interp.run();
  EXPECT_EQ(result.output.size(), 2u);
  EXPECT_EQ(interp.guards_elided(), 0u);
}

TEST(GuardElision, UnsafeSitesStayGuardedAndStillTrap) {
  // Figure 1 keeps its merged list node unsafe, so the transformed program
  // must still take a real MMU trap on the dangling dereference even with
  // elision enabled.
  const Module m = parse_module(dpg::testing::kFigure1);
  const TransformResult tr = pool_allocate(m);
  for (const SiteSafetyEntry& e : tr.module.site_safety) {
    EXPECT_FALSE(e.elided) << "site " << e.site;
  }
  Interpreter interp(tr.module, {.backend = Backend::kGuarded});
  const auto report = core::catch_dangling([&] { (void)interp.run(); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(interp.guards_elided(), 0u);
}

TEST(GuardElision, MayUafSitesStayPageGuardedAndReportTheirSites) {
  // A MAY-UAF node is not SAFE, so none of its sites is elided, and the
  // transformed module (with its safety table) still verifies.
  const Module m = parse_module(kMayHotTagLane);
  const UafAnalysis uaf = analyze(kMayHotTagLane);
  ASSERT_EQ(uaf.pairs().size(), 1u);
  const SitePair& pair = uaf.pairs()[0];
  EXPECT_EQ(pair.cls, PairClass::kMayUaf);
  const TransformResult tr = pool_allocate(m);
  EXPECT_TRUE(verify_module(tr.module).empty());
  for (const SiteSafetyEntry& e : tr.module.site_safety) {
    EXPECT_FALSE(e.elided) << "site " << e.site;
  }
  // Default options: the second iteration's read of the freed object traps
  // on the page guard, and the report names the analysis pair's sites.
  Interpreter interp(tr.module, {.backend = Backend::kGuarded});
  const auto report = core::catch_dangling([&] { (void)interp.run(); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, core::AccessKind::kRead);
  EXPECT_EQ(report->alloc_site, pair.alloc_site);
  EXPECT_EQ(report->free_site, pair.free_site);
  EXPECT_EQ(interp.guards_elided(), 0u);
}

}  // namespace
}  // namespace dpg::compiler
