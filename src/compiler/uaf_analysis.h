// Static use-after-free / double-free analysis over PIR.
//
// The paper's cost model moves all protection work into malloc/free; CAMP and
// ShadowBound (PAPERS.md) show the next step: use compiler analysis to prove
// allocation sites temporally safe and *remove* their protection work
// entirely. This pass is that analysis for PIR. It serves two masters:
//
//   1. Diagnostics: `pirc --lint` reports every potential dangling use at
//      compile time, each finding carrying a witness path (alloc site ->
//      free site -> use, as function/instruction/site-id steps).
//   2. The guard-elision contract: sites whose points-to node has *no*
//      finding are classified SAFE; the pool transformation records that in
//      the module's SiteSafety table, and the guarded interpreter then
//      allocates those sites straight from the canonical heap — no shadow
//      alias mmap at malloc, no PROT_NONE mprotect at free.
//
// Abstraction (documented precisely because elision trusts it):
//   - Granularity is the points-to *node* (Steensgaard partition), i.e. a set
//     of objects. The per-node lattice is {bottom, LIVE, FREED, UNKNOWN} with
//     UNKNOWN = may-live-or-freed.
//   - Flow-sensitive intraprocedural: states propagate over the instruction
//     CFG and join (bitwise-or) at merge points to a fixpoint.
//   - Context-insensitive interprocedural: each function gets one entry state
//     (join over all call sites) and one summary (the set of nodes it may
//     transitively free). A call applies the callee's summary as a *strong*
//     update (node -> FREED): a free that may happen is treated as having
//     happened. This is what lets the paper's Figure 1/2 dangling dereference
//     be reported MUST rather than MAY, at the price of possible false
//     MUST claims when a callee frees only on some paths.
//   - malloc is a strong update to LIVE (the node models its most recent
//     objects). A loop that frees then reallocates therefore re-arms the
//     node; a loop that frees without reallocating leaves UNKNOWN at the
//     back-edge join, so loop-carried dangling uses surface as MAY findings.
//
// Consequences worth knowing: MUST means "freed in every abstract state the
// analysis can construct", a node-granular claim — unification merges, e.g.,
// a list head with its elements, so a MUST finding can name a concrete object
// that is still live. SAFE, by contrast, is the claim elision relies on: no
// instruction ever observes the node with its freed bit set, under an
// analysis whose joins only ever *add* freed-ness. The one deliberate hole is
// the strong LIVE update at allocation sites (an aliased pre-malloc pointer
// could be laundered); that is the same trade CAMP/ShadowBound accept, and
// unclassified sites always stay guarded.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compiler/ir.h"
#include "compiler/points_to.h"

namespace dpg::compiler {

enum class FindingKind : std::uint8_t { kUseAfterFree, kDoubleFree };
enum class Certainty : std::uint8_t { kMay, kMust };

// (alloc-site, free-site) pair classification, most severe finding wins
// (kSafe < kMayUaf < kMustUaf < kDoubleFree).
enum class PairClass : std::uint8_t { kSafe, kMayUaf, kMustUaf, kDoubleFree };

struct WitnessStep {
  int fn = -1;              // function index
  int instr = -1;           // instruction index within the function
  std::uint32_t site = 0;   // alloc/free site id (0 for use/call steps)
  const char* role = "";    // "alloc" | "free" | "call" | "use"
};

struct Finding {
  FindingKind kind = FindingKind::kUseAfterFree;
  Certainty certainty = Certainty::kMay;
  int fn = -1;                            // offending instruction's function
  int instr = -1;                         // offending instruction's index
  int node = -1;                          // points-to node root
  std::uint32_t free_site = 0;            // the free the pointer dangles from
  std::vector<std::uint32_t> alloc_sites; // the node's allocation sites
  std::vector<WitnessStep> witness;       // alloc -> [call] -> free -> use

  // "MUST-UAF: f[3] getfield of node freed at site 4 (g[17]); alloc site 2"
  [[nodiscard]] std::string describe(const Module& module) const;
  // One-line JSON object (machine-readable lint output).
  [[nodiscard]] std::string to_json(const Module& module) const;
};

struct SitePair {
  std::uint32_t alloc_site = 0;
  std::uint32_t free_site = 0;
  PairClass cls = PairClass::kSafe;
};

[[nodiscard]] const char* finding_kind_name(FindingKind kind);
[[nodiscard]] const char* certainty_name(Certainty certainty);
[[nodiscard]] const char* pair_class_name(PairClass cls);

class UafAnalysis {
 public:
  // `pta` must outlive the analysis and have been built from `module`.
  UafAnalysis(const Module& module, const PointsToAnalysis& pta);

  [[nodiscard]] const std::vector<Finding>& findings() const noexcept {
    return findings_;
  }

  // Every (alloc-site, free-site) pair sharing a points-to node, classified.
  [[nodiscard]] const std::vector<SitePair>& pairs() const noexcept {
    return pairs_;
  }

  // True when no finding involves the node: the elision contract.
  [[nodiscard]] bool node_safe(int node) const;

  // Convenience for the transformation: alloc/free site -> safe?
  [[nodiscard]] bool site_safe(std::uint32_t site) const;

  [[nodiscard]] const std::set<int>& unsafe_nodes() const noexcept {
    return unsafe_nodes_;
  }

 private:
  class Impl;

  std::vector<Finding> findings_;
  std::vector<SitePair> pairs_;
  std::set<int> unsafe_nodes_;
  std::map<std::uint32_t, int> site_node_;  // alloc+free site -> node root
};

}  // namespace dpg::compiler
