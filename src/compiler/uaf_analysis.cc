#include "compiler/uaf_analysis.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <tuple>

namespace dpg::compiler {

namespace {

// Lattice bits per points-to node. Absent node == bottom (no objects yet).
constexpr std::uint8_t kLiveBit = 1;
constexpr std::uint8_t kFreedBit = 2;

// Where the freed-ness of a node came from: the free instruction itself and,
// when it was applied through a callee summary, the call site in the caller.
struct FreeOrigin {
  int fn = -1;
  int instr = -1;
  std::uint32_t site = 0;
  int call_fn = -1;
  int call_instr = -1;

  [[nodiscard]] bool valid() const noexcept { return fn >= 0; }
  [[nodiscard]] std::tuple<int, int> key() const noexcept {
    return {fn, instr};
  }
};

// Deterministic merge (smallest location wins) so the fixpoint converges.
void merge_origin(FreeOrigin& dst, const FreeOrigin& src) {
  if (!src.valid()) return;
  if (!dst.valid() || src.key() < dst.key()) dst = src;
}

struct NodeState {
  std::uint8_t bits = 0;
  FreeOrigin origin;  // meaningful when kFreedBit is set
};

using State = std::map<int, NodeState>;  // node root -> abstract state

bool join_into(State& dst, const State& src) {
  bool changed = false;
  for (const auto& [node, st] : src) {
    NodeState& d = dst[node];
    if ((d.bits | st.bits) != d.bits) {
      d.bits |= st.bits;
      changed = true;
    }
    const FreeOrigin before = d.origin;
    merge_origin(d.origin, st.origin);
    if (d.origin.key() != before.key()) changed = true;
  }
  return changed;
}

struct Loc {
  int fn = -1;
  int instr = -1;
};

}  // namespace

const char* finding_kind_name(FindingKind kind) {
  return kind == FindingKind::kUseAfterFree ? "use-after-free" : "double-free";
}

const char* certainty_name(Certainty certainty) {
  return certainty == Certainty::kMust ? "MUST" : "MAY";
}

const char* pair_class_name(PairClass cls) {
  switch (cls) {
    case PairClass::kSafe: return "SAFE";
    case PairClass::kMayUaf: return "MAY-UAF";
    case PairClass::kMustUaf: return "MUST-UAF";
    case PairClass::kDoubleFree: return "DOUBLE-FREE";
  }
  return "?";
}

class UafAnalysis::Impl {
 public:
  Impl(const Module& module, const PointsToAnalysis& pta)
      : module_(module), pta_(pta) {
    for (const int n : pta_.heap_nodes()) heap_nodes_.insert(n);
    index_sites();
    const std::size_t nfun = module_.functions.size();
    entry_.resize(nfun);
    summary_.resize(nfun);

    // Interprocedural fixpoint: entry states and may-free summaries only
    // grow, every transfer is monotone, so iteration terminates.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t f = 0; f < nfun; ++f) {
        changed |= analyze(static_cast<int>(f), /*report=*/false);
      }
    }
    for (std::size_t f = 0; f < nfun; ++f) {
      analyze(static_cast<int>(f), /*report=*/true);
    }
  }

  std::vector<Finding> findings_;
  std::map<std::uint32_t, int> site_node_;

  void build_pairs(std::vector<SitePair>& pairs, std::set<int>& unsafe) {
    for (const Finding& f : findings_) unsafe.insert(f.node);

    // All (alloc, free) pairs sharing a node, default SAFE.
    std::map<std::pair<std::uint32_t, std::uint32_t>, PairClass> cls;
    for (const auto& [free_site, node] : free_site_node_) {
      for (const std::uint32_t alloc : pta_.sites_of(node)) {
        cls.emplace(std::make_pair(alloc, free_site), PairClass::kSafe);
      }
    }
    const auto upgrade = [&](std::uint32_t alloc, std::uint32_t free_site,
                             PairClass c) {
      auto it = cls.find({alloc, free_site});
      if (it != cls.end() && static_cast<int>(c) > static_cast<int>(it->second)) {
        it->second = c;
      }
    };
    for (const Finding& f : findings_) {
      PairClass c = PairClass::kMayUaf;
      if (f.kind == FindingKind::kDoubleFree) {
        c = PairClass::kDoubleFree;
      } else if (f.certainty == Certainty::kMust) {
        c = PairClass::kMustUaf;
      }
      for (const std::uint32_t alloc : pta_.sites_of(f.node)) {
        if (f.free_site != 0) {
          upgrade(alloc, f.free_site, c);
        } else {
          for (const auto& [fs, node] : free_site_node_) {
            if (node == f.node) upgrade(alloc, fs, c);
          }
        }
      }
    }
    pairs.reserve(cls.size());
    for (const auto& [key, c] : cls) {
      pairs.push_back(SitePair{key.first, key.second, c});
    }
  }

 private:
  void index_sites() {
    for (std::size_t f = 0; f < module_.functions.size(); ++f) {
      const Function& fn = module_.functions[f];
      for (std::size_t i = 0; i < fn.body.size(); ++i) {
        const Instr& ins = fn.body[i];
        switch (ins.op) {
          case Op::kMalloc:
          case Op::kPoolAlloc: {
            site_loc_[ins.site] = Loc{static_cast<int>(f), static_cast<int>(i)};
            const int node = pta_.node_of_site(ins.site);
            if (node >= 0) site_node_[ins.site] = node;
            break;
          }
          case Op::kFree:
          case Op::kPoolFree: {
            site_loc_[ins.site] = Loc{static_cast<int>(f), static_cast<int>(i)};
            const int ptr_reg = ins.op == Op::kFree ? ins.a : ins.b;
            const int node = node_of_reg(static_cast<int>(f), ptr_reg);
            if (node >= 0) {
              site_node_[ins.site] = node;
              free_site_node_[ins.site] = node;
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }

  [[nodiscard]] int node_of_reg(int fn_index, int reg) const {
    if (reg < 0) return -1;
    const int node = pta_.pointee_node(pta_.var_element(fn_index, reg));
    if (node < 0) return -1;
    const int root = pta_.find(node);
    return heap_nodes_.count(root) != 0 ? root : -1;
  }

  void successors(const Instr& ins, std::size_t i, std::size_t body_size,
                  int out[2], int& n) const {
    n = 0;
    switch (ins.op) {
      case Op::kRet:
        break;
      case Op::kBr:
        out[n++] = ins.target;
        break;
      case Op::kCbr:
        out[n++] = ins.target;
        if (ins.target2 != ins.target) out[n++] = ins.target2;
        break;
      default:
        if (i + 1 < body_size) out[n++] = static_cast<int>(i + 1);
        break;
    }
  }

  void add_finding(FindingKind kind, Certainty certainty, int f, int i,
                   int node, const FreeOrigin& origin,
                   std::uint32_t use_site) {
    if (!reported_.insert(std::make_tuple(f, i, node, static_cast<int>(kind)))
             .second) {
      return;
    }
    Finding finding;
    finding.kind = kind;
    finding.certainty = certainty;
    finding.fn = f;
    finding.instr = i;
    finding.node = node;
    finding.free_site = origin.site;
    const auto& sites = pta_.sites_of(node);
    finding.alloc_sites.assign(sites.begin(), sites.end());

    // Witness: alloc -> [call] -> free -> use.
    if (!finding.alloc_sites.empty()) {
      const std::uint32_t alloc = finding.alloc_sites.front();
      const auto it = site_loc_.find(alloc);
      if (it != site_loc_.end()) {
        finding.witness.push_back(
            WitnessStep{it->second.fn, it->second.instr, alloc, "alloc"});
      }
    }
    if (origin.call_fn >= 0) {
      finding.witness.push_back(
          WitnessStep{origin.call_fn, origin.call_instr, 0, "call"});
    }
    if (origin.valid()) {
      finding.witness.push_back(
          WitnessStep{origin.fn, origin.instr, origin.site, "free"});
    }
    finding.witness.push_back(WitnessStep{
        f, i, use_site, kind == FindingKind::kDoubleFree ? "free" : "use"});
    findings_.push_back(std::move(finding));
  }

  // One intraprocedural pass to its fixpoint. Returns true when a callee's
  // entry state or this function's summary grew (outer loop re-runs).
  bool analyze(int f, bool report) {
    const Function& fn = module_.functions[static_cast<std::size_t>(f)];
    if (fn.body.empty()) return false;
    bool grew = false;

    std::vector<State> in(fn.body.size());
    in[0] = entry_[static_cast<std::size_t>(f)];
    std::deque<int> worklist{0};
    std::vector<bool> queued(fn.body.size(), false);
    std::vector<bool> reached(fn.body.size(), false);
    queued[0] = true;

    while (!worklist.empty()) {
      const int i = worklist.front();
      worklist.pop_front();
      queued[static_cast<std::size_t>(i)] = false;
      reached[static_cast<std::size_t>(i)] = true;
      const Instr& ins = fn.body[static_cast<std::size_t>(i)];
      State out = in[static_cast<std::size_t>(i)];
      transfer(f, i, ins, out, grew);
      int succ[2];
      int nsucc = 0;
      successors(ins, static_cast<std::size_t>(i), fn.body.size(), succ, nsucc);
      for (int s = 0; s < nsucc; ++s) {
        const auto target = static_cast<std::size_t>(succ[s]);
        const bool joined = join_into(in[target], out);
        if ((joined || !reached[target]) && !queued[target]) {
          queued[target] = true;
          worklist.push_back(succ[s]);
        }
      }
    }

    // Findings are collected only after the in-states converged, so the
    // MUST/MAY split reflects the final joins, not a partial first visit.
    if (report) {
      for (std::size_t i = 0; i < fn.body.size(); ++i) {
        if (reached[i]) collect(f, static_cast<int>(i), fn.body[i], in[i]);
      }
    }
    return grew;
  }

  void collect(int f, int i, const Instr& ins, const State& state) {
    switch (ins.op) {
      case Op::kFree:
      case Op::kPoolFree: {
        const int node = node_of_reg(f, ins.op == Op::kFree ? ins.a : ins.b);
        if (node < 0) break;
        const auto it = state.find(node);
        if (it == state.end() || (it->second.bits & kFreedBit) == 0) break;
        add_finding(FindingKind::kDoubleFree,
                    it->second.bits == kFreedBit ? Certainty::kMust
                                                 : Certainty::kMay,
                    f, i, node, it->second.origin, ins.site);
        break;
      }
      case Op::kGetField:
      case Op::kGetFieldV:
      case Op::kSetField:
      case Op::kSetFieldV: {
        const int node = node_of_reg(f, ins.a);
        if (node < 0) break;
        const auto it = state.find(node);
        if (it == state.end() || (it->second.bits & kFreedBit) == 0) break;
        add_finding(FindingKind::kUseAfterFree,
                    it->second.bits == kFreedBit ? Certainty::kMust
                                                 : Certainty::kMay,
                    f, i, node, it->second.origin, /*use_site=*/0);
        break;
      }
      default:
        break;
    }
  }

  void transfer(int f, int i, const Instr& ins, State& state, bool& grew) {
    switch (ins.op) {
      case Op::kMalloc:
      case Op::kPoolAlloc: {
        // Strong update: the node now models its most recent objects.
        const int node = pta_.node_of_site(ins.site);
        if (node >= 0) state[pta_.find(node)] = NodeState{kLiveBit, {}};
        break;
      }
      case Op::kFree:
      case Op::kPoolFree: {
        const int ptr_reg = ins.op == Op::kFree ? ins.a : ins.b;
        const int node = node_of_reg(f, ptr_reg);
        if (node < 0) break;
        FreeOrigin origin;
        origin.fn = f;
        origin.instr = i;
        origin.site = ins.site;
        state[node] = NodeState{kFreedBit, origin};
        auto [it, inserted] =
            summary_[static_cast<std::size_t>(f)].emplace(node, origin);
        if (inserted) {
          grew = true;
        } else {
          const FreeOrigin prev = it->second;
          merge_origin(it->second, origin);
          if (it->second.key() != prev.key()) grew = true;
        }
        break;
      }
      case Op::kCall: {
        const auto cit = module_.function_index.find(ins.callee);
        if (cit == module_.function_index.end()) break;
        const std::size_t callee = static_cast<std::size_t>(cit->second);
        // Context-insensitive: the callee's entry state is the join over
        // every call site's state.
        if (join_into(entry_[callee], state)) grew = true;
        // Apply the callee's may-free summary strongly (see header).
        for (const auto& [node, origin] : summary_[callee]) {
          FreeOrigin via = origin;
          if (via.call_fn < 0) {
            via.call_fn = f;
            via.call_instr = i;
          }
          state[node] = NodeState{kFreedBit, via};
        }
        // And fold it into this function's transitive summary.
        auto& own = summary_[static_cast<std::size_t>(f)];
        for (const auto& [node, origin] : summary_[callee]) {
          auto [it, inserted] = own.emplace(node, origin);
          if (inserted) {
            grew = true;
          } else {
            const FreeOrigin prev = it->second;
            merge_origin(it->second, origin);
            if (it->second.key() != prev.key()) grew = true;
          }
        }
        break;
      }
      default:
        break;  // arithmetic, copies, branches, pool init/destroy: no effect
    }
  }

  const Module& module_;
  const PointsToAnalysis& pta_;
  std::set<int> heap_nodes_;
  std::map<std::uint32_t, Loc> site_loc_;
  std::map<std::uint32_t, int> free_site_node_;
  std::vector<State> entry_;                         // per function
  std::vector<std::map<int, FreeOrigin>> summary_;   // per function: may-free
  std::set<std::tuple<int, int, int, int>> reported_;
};

UafAnalysis::UafAnalysis(const Module& module, const PointsToAnalysis& pta) {
  Impl impl(module, pta);
  impl.build_pairs(pairs_, unsafe_nodes_);  // reads impl.findings_: move after
  findings_ = std::move(impl.findings_);
  site_node_ = std::move(impl.site_node_);
  // Stable report order: by function, then instruction, then kind.
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              return std::make_tuple(a.fn, a.instr, static_cast<int>(a.kind)) <
                     std::make_tuple(b.fn, b.instr, static_cast<int>(b.kind));
            });
}

bool UafAnalysis::node_safe(int node) const {
  return node >= 0 && unsafe_nodes_.count(node) == 0;
}

bool UafAnalysis::site_safe(std::uint32_t site) const {
  const auto it = site_node_.find(site);
  return it != site_node_.end() && node_safe(it->second);
}

namespace {

const char* fn_name(const Module& module, int fn) {
  if (fn < 0 || fn >= static_cast<int>(module.functions.size())) return "?";
  return module.functions[static_cast<std::size_t>(fn)].name.c_str();
}

}  // namespace

std::string Finding::describe(const Module& module) const {
  std::ostringstream os;
  os << certainty_name(certainty) << '-'
     << (kind == FindingKind::kDoubleFree ? "DOUBLE-FREE" : "UAF") << ": "
     << fn_name(module, fn) << '[' << instr << ']';
  os << (kind == FindingKind::kDoubleFree ? " frees memory already freed"
                                          : " uses memory freed");
  if (free_site != 0) os << " at site " << free_site;
  if (!alloc_sites.empty()) {
    os << "; allocated at site" << (alloc_sites.size() > 1 ? "s" : "");
    for (std::size_t i = 0; i < alloc_sites.size(); ++i) {
      os << (i == 0 ? " " : ", ") << alloc_sites[i];
    }
  }
  os << "\n  witness:";
  for (const WitnessStep& step : witness) {
    os << ' ' << step.role << '=' << fn_name(module, step.fn) << '['
       << step.instr << ']';
    if (step.site != 0) os << "#site" << step.site;
    if (&step != &witness.back()) os << " ->";
  }
  return os.str();
}

std::string Finding::to_json(const Module& module) const {
  std::ostringstream os;
  os << "{\"kind\":\"" << finding_kind_name(kind) << "\",\"certainty\":\""
     << (certainty == Certainty::kMust ? "must" : "may") << "\",\"function\":\""
     << fn_name(module, fn) << "\",\"instr\":" << instr
     << ",\"node\":" << node << ",\"free_site\":" << free_site
     << ",\"alloc_sites\":[";
  for (std::size_t i = 0; i < alloc_sites.size(); ++i) {
    os << (i == 0 ? "" : ",") << alloc_sites[i];
  }
  os << "],\"witness\":[";
  for (std::size_t i = 0; i < witness.size(); ++i) {
    const WitnessStep& step = witness[i];
    os << (i == 0 ? "" : ",") << "{\"role\":\"" << step.role
       << "\",\"function\":\"" << fn_name(module, step.fn)
       << "\",\"instr\":" << step.instr << ",\"site\":" << step.site << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace dpg::compiler
