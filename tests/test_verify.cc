// Tests for the PIR module verifier.
#include <gtest/gtest.h>

#include "compiler/parser.h"
#include "compiler/pool_transform.h"
#include "compiler/verify.h"
#include "pir_programs.h"

namespace dpg::compiler {
namespace {

TEST(Verify, AllSampleProgramsAreWellFormed) {
  for (const char* src :
       {dpg::testing::kFigure1, dpg::testing::kFigure1Fixed,
        dpg::testing::kGlobalEscape, dpg::testing::kLocalPool,
        dpg::testing::kRecursive, dpg::testing::kTwoPools}) {
    EXPECT_TRUE(verify_module(parse_module(src)).empty());
  }
}

TEST(Verify, TransformedModulesStayWellFormed) {
  // The key regression guard: the transformation's surgery (instruction
  // insertion, target renumbering, parameter appending, call rewrites) must
  // preserve every structural invariant.
  for (const char* src :
       {dpg::testing::kFigure1, dpg::testing::kFigure1Fixed,
        dpg::testing::kGlobalEscape, dpg::testing::kLocalPool,
        dpg::testing::kRecursive, dpg::testing::kTwoPools}) {
    const TransformResult result = pool_allocate(parse_module(src));
    const auto problems = verify_module(result.module);
    EXPECT_TRUE(problems.empty())
        << src << ": " << (problems.empty() ? "" : problems.front());
  }
}

TEST(Verify, DetectsBadBranchTarget) {
  Module m = parse_module("func main() { x = const 1\n ret }");
  Instr br;
  br.op = Op::kBr;
  br.target = 99;
  m.functions[0].body.push_back(br);
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("branch target"), std::string::npos);
}

TEST(Verify, DetectsBadRegister) {
  Module m = parse_module("func main() { x = const 1\n out x\n ret }");
  m.functions[0].body[1].a = 42;  // register out of range
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("operand"), std::string::npos);
}

TEST(Verify, DetectsUnknownCallee) {
  const Module m = parse_module("func main() { call ghost()\n ret }");
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("unknown function"), std::string::npos);
}

TEST(Verify, DetectsArityMismatch) {
  Module m = parse_module(R"(
func two(a, b) { ret a }
func main() {
  x = const 1
  call two(x, x)
  ret
}
)");
  // Drop one argument after the fact.
  for (Instr& ins : m.find("main")->body) {
    if (ins.op == Op::kCall) ins.args.pop_back();
  }
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("arity"), std::string::npos);
}

TEST(Verify, DetectsDuplicateSiteIds) {
  Module m = parse_module(R"(
func main() {
  p = malloc 1
  q = malloc 1
  free p
  free q
  ret
}
)");
  // Clone a site id.
  Function& fn = *m.find("main");
  for (Instr& ins : fn.body) {
    if (ins.op == Op::kMalloc) ins.site = 7;
  }
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("duplicate site"), std::string::npos);
}

TEST(Verify, DetectsGlobalIndexOutOfRange) {
  Module m = parse_module("global g\nfunc main() { x = loadg g\n out x\n ret }");
  m.functions[0].body[0].imm = 5;
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("global index"), std::string::npos);
}

TEST(Verify, DetectsBrokenFunctionIndex) {
  Module m = parse_module("func main() { ret }\nfunc other() { ret }");
  m.function_index["main"] = 1;
  m.function_index["other"] = 0;
  EXPECT_FALSE(verify_module(m).empty());
}

TEST(Verify, DetectsMissingSiteOnPoolOps) {
  Module m = parse_module("func main() { ret }");
  Function& fn = *m.find("main");
  Instr init;
  init.op = Op::kPoolInit;
  init.dst = static_cast<int>(fn.reg_names.size());
  fn.reg_names.push_back("__pool0");
  Instr alloc;
  alloc.op = Op::kPoolAlloc;
  alloc.dst = init.dst;
  alloc.a = init.dst;
  alloc.b = init.dst;
  alloc.site = 0;  // missing
  fn.body.insert(fn.body.begin(), alloc);
  fn.body.insert(fn.body.begin(), init);
  const auto problems = verify_module(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("site id missing"), std::string::npos);
}

TEST(Verify, CleanModuleProducesNoDiagnostics) {
  EXPECT_TRUE(verify_module(parse_module("func main() { ret }")).empty());
}

// --- SiteSafety table (the guard-elision contract, DESIGN.md §9) ----------

bool has_problem(const std::vector<std::string>& problems,
                 const char* needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

// kFigure1 transformed: its one points-to node is unsafe, so every site is
// guarded.
Module transformed_figure1() {
  Module m = pool_allocate(parse_module(dpg::testing::kFigure1)).module;
  EXPECT_FALSE(m.site_safety.empty());
  EXPECT_TRUE(verify_module(m).empty());
  return m;
}

TEST(Verify, SafetyTableRejectsDuplicateEntry) {
  Module m = transformed_figure1();
  m.site_safety.push_back(m.site_safety.front());
  EXPECT_TRUE(has_problem(verify_module(m), "duplicate site entry"));
}

TEST(Verify, SafetyTableRejectsPhantomSite) {
  Module m = transformed_figure1();
  SiteSafetyEntry ghost = m.site_safety.front();
  ghost.site = 9999;
  m.site_safety.push_back(ghost);
  EXPECT_TRUE(
      has_problem(verify_module(m), "site does not exist in the module"));
}

TEST(Verify, SafetyTableRejectsKindDisagreement) {
  Module m = transformed_figure1();
  m.site_safety.front().is_free = !m.site_safety.front().is_free;
  EXPECT_TRUE(has_problem(verify_module(m),
                          "alloc/free kind disagrees with the instruction"));
}

TEST(Verify, SafetyTableRejectsMissingSite) {
  Module m = transformed_figure1();
  m.site_safety.pop_back();
  EXPECT_TRUE(has_problem(verify_module(m),
                          "alloc/free site missing from the safety table"));
}

TEST(Verify, SafetyTableRejectsElidedSiteWithoutNode) {
  Module m = transformed_figure1();
  m.site_safety.front().node = -1;
  m.site_safety.front().elided = true;
  EXPECT_TRUE(
      has_problem(verify_module(m), "elided site has no points-to node"));
}

TEST(Verify, SafetyTableRejectsPoolMixingElision) {
  // Move one pooled site to a node of its own, so only the pool ties it to
  // its guarded partners, then elide it: its canonical pointer would reach
  // the pool's guarded free path.
  Module m = transformed_figure1();
  SiteSafetyEntry* pooled = nullptr;
  for (SiteSafetyEntry& entry : m.site_safety) {
    if (entry.pool >= 0) pooled = &entry;
  }
  ASSERT_NE(pooled, nullptr);
  pooled->node = 9999;
  pooled->elided = true;
  EXPECT_TRUE(has_problem(verify_module(m),
                          "pool mixes elided and guarded sites"));
}

}  // namespace
}  // namespace dpg::compiler
