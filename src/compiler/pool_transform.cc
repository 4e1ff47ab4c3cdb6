#include "compiler/pool_transform.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "compiler/uaf_analysis.h"

namespace dpg::compiler {

namespace {

// Which pools each function must have a descriptor register for: users of the
// pool (minus the home, which creates it) closed over call paths, so that a
// function calling a descriptor-needing callee can thread the descriptor.
std::vector<std::set<int>> compute_needs(const Module& module,
                                         const EscapeResult& placement) {
  const int nfun = static_cast<int>(module.functions.size());
  std::vector<std::set<int>> need(static_cast<std::size_t>(nfun));
  for (std::size_t p = 0; p < placement.pools.size(); ++p) {
    for (const int user : placement.pools[p].users) {
      if (user != placement.pools[p].home_function) {
        need[static_cast<std::size_t>(user)].insert(static_cast<int>(p));
      }
    }
  }
  // Fixpoint: caller needs whatever a callee needs, unless the caller is the
  // pool's home (it has the descriptor as a local).
  bool changed = true;
  while (changed) {
    changed = false;
    for (int f = 0; f < nfun; ++f) {
      for (const Instr& ins : module.functions[static_cast<std::size_t>(f)].body) {
        if (ins.op != Op::kCall) continue;
        const auto it = module.function_index.find(ins.callee);
        if (it == module.function_index.end()) continue;
        for (const int p : need[static_cast<std::size_t>(it->second)]) {
          if (placement.pools[static_cast<std::size_t>(p)].home_function == f) continue;
          if (need[static_cast<std::size_t>(f)].insert(p).second) changed = true;
        }
      }
    }
  }
  return need;
}

// Element-size inference: when every malloc site of a pool allocates a
// constant field count, poolinit receives sizeof(elem) as its hint (the
// paper's Figure 2: poolinit(&PP, sizeof(struct s))). Returns bytes, or 0
// when sites disagree or sizes are dynamic.
std::vector<std::int64_t> infer_elem_sizes(const Module& module,
                                           const EscapeResult& placement) {
  // site -> constant byte size (or -1 when not constant)
  std::map<std::uint32_t, std::int64_t> site_size;
  for (const Function& fn : module.functions) {
    // Track registers holding known constants, invalidated on reassignment.
    std::map<int, std::int64_t> constants;
    for (const Instr& ins : fn.body) {
      if (ins.op == Op::kMalloc) {
        const auto it = constants.find(ins.a);
        site_size[ins.site] = it != constants.end() ? it->second * 8 : -1;
      }
      if (ins.dst >= 0) {
        if (ins.op == Op::kConst) {
          constants[ins.dst] = ins.imm;
        } else {
          constants.erase(ins.dst);
        }
      }
    }
  }
  std::vector<std::int64_t> hints(placement.pools.size(), 0);
  for (std::size_t p = 0; p < placement.pools.size(); ++p) {
    std::int64_t hint = 0;
    bool uniform = true;
    for (const std::uint32_t site : placement.pools[p].sites) {
      const auto it = site_size.find(site);
      const std::int64_t size = it != site_size.end() ? it->second : -1;
      if (size <= 0 || (hint != 0 && hint != size)) {
        uniform = false;
        break;
      }
      hint = size;
    }
    hints[p] = uniform ? hint : 0;
  }
  return hints;
}

// The compiler->runtime guard-elision contract: one table row per alloc/free
// site of the input program (site ids survive the rewrite untouched). A site
// is elided exactly when the UAF analysis found its whole points-to node free
// of temporal errors; since pools partition by node, elision is automatically
// uniform per pool — the invariant verify_module re-checks after surgery.
std::vector<SiteSafetyEntry> build_site_safety(const Module& input,
                                               const PointsToAnalysis& pta,
                                               const EscapeResult& placement,
                                               const UafAnalysis& uaf) {
  std::vector<SiteSafetyEntry> table;
  const auto pool_of = [&](int node) {
    const auto it = placement.node_to_pool.find(node);
    return it == placement.node_to_pool.end() ? -1 : it->second;
  };
  for (std::size_t f = 0; f < input.functions.size(); ++f) {
    for (const Instr& ins : input.functions[f].body) {
      SiteSafetyEntry entry;
      switch (ins.op) {
        case Op::kMalloc:
        case Op::kPoolAlloc:
          entry.node = pta.node_of_site(ins.site);
          break;
        case Op::kFree:
        case Op::kPoolFree: {
          const int ptr_reg = ins.op == Op::kFree ? ins.a : ins.b;
          const int element = pta.var_element(static_cast<int>(f), ptr_reg);
          entry.node = pta.pointee_node(element);
          entry.is_free = true;
          break;
        }
        default:
          continue;
      }
      entry.site = ins.site;
      entry.pool = entry.node >= 0 ? pool_of(entry.node) : -1;
      entry.elided = uaf.node_safe(entry.node);
      table.push_back(entry);
    }
  }
  return table;
}

}  // namespace

TransformResult pool_allocate(const Module& input) {
  const PointsToAnalysis pta(input);
  EscapeResult placement = place_pools(input, pta);
  const std::vector<std::set<int>> need = compute_needs(input, placement);
  const std::vector<std::int64_t> elem_hints = infer_elem_sizes(input, placement);
  const UafAnalysis uaf(input, pta);

  Module out;
  out.globals = input.globals;
  out.site_safety = build_site_safety(input, pta, placement, uaf);

  const int nfun = static_cast<int>(input.functions.size());
  for (int f = 0; f < nfun; ++f) {
    const Function& fn = input.functions[static_cast<std::size_t>(f)];
    Function nfn;
    nfn.name = fn.name;
    nfn.params = fn.params;
    nfn.reg_names = fn.reg_names;

    // Pool descriptor registers: extra trailing params for needed pools,
    // fresh locals for homed pools.
    std::map<int, int> pool_reg;  // pool index -> register
    for (const int p : need[static_cast<std::size_t>(f)]) {
      const std::string name = "__pool" + std::to_string(p);
      pool_reg[p] = static_cast<int>(nfn.reg_names.size());
      nfn.reg_names.push_back(name);
      nfn.params.push_back(name);
    }
    // NOTE: extra params must be *trailing*, and parser laid params out as
    // the first registers. The interpreter binds call arguments by parameter
    // order, looking the registers up by name, so appending names is enough.
    std::vector<int> homed;  // pool indices created here
    for (std::size_t p = 0; p < placement.pools.size(); ++p) {
      if (placement.pools[p].home_function == f) {
        const std::string name = "__pool" + std::to_string(p);
        pool_reg[static_cast<int>(p)] = static_cast<int>(nfn.reg_names.size());
        nfn.reg_names.push_back(name);
        homed.push_back(static_cast<int>(p));
      }
    }

    const auto pool_reg_of_site = [&](std::uint32_t site) -> int {
      const int node = pta.node_of_site(site);
      const PoolPlacement* pool = placement.pool_of_node(node);
      if (pool == nullptr) return -1;
      const auto it = placement.node_to_pool.find(node);
      const auto rit = pool_reg.find(it->second);
      return rit == pool_reg.end() ? -1 : rit->second;
    };
    const auto pool_reg_of_ptr = [&](int reg) -> int {
      const int node = pta.pointee_node(pta.var_element(f, reg));
      if (node < 0) return -1;
      const auto it = placement.node_to_pool.find(pta.find(node));
      if (it == placement.node_to_pool.end()) return -1;
      const auto rit = pool_reg.find(it->second);
      return rit == pool_reg.end() ? -1 : rit->second;
    };

    // Plan the rewrite: poolinits go into a one-shot preamble (never a branch
    // target, so loop back-edges to old instruction 0 cannot re-init);
    // pooldestroys are inserted *before* every ret, and branch targets map to
    // the start of an instruction's insertion block so a jump straight to a
    // ret still runs the destroys.
    std::vector<Instr> preamble;
    for (const int p : homed) {
      Instr init;
      init.op = Op::kPoolInit;
      init.dst = pool_reg[p];
      init.imm = elem_hints[static_cast<std::size_t>(p)];  // sizeof(elem) or 0
      preamble.push_back(init);
    }
    std::vector<std::vector<Instr>> before(fn.body.size());
    for (std::size_t i = 0; i < fn.body.size(); ++i) {
      if (fn.body[i].op != Op::kRet) continue;
      for (auto it = homed.rbegin(); it != homed.rend(); ++it) {
        Instr destroy;
        destroy.op = Op::kPoolDestroy;
        destroy.a = pool_reg[*it];
        before[i].push_back(destroy);
      }
    }

    std::vector<int> new_index(fn.body.size());  // -> start of before-block
    int cursor = static_cast<int>(preamble.size());
    for (std::size_t i = 0; i < fn.body.size(); ++i) {
      new_index[i] = cursor;
      cursor += static_cast<int>(before[i].size()) + 1;
    }

    for (Instr& pre : preamble) nfn.body.push_back(pre);
    for (std::size_t i = 0; i < fn.body.size(); ++i) {
      for (Instr& pre : before[i]) nfn.body.push_back(pre);
      Instr ins = fn.body[i];
      switch (ins.op) {
        case Op::kMalloc: {
          const int preg = pool_reg_of_site(ins.site);
          if (preg >= 0) {
            ins.op = Op::kPoolAlloc;
            ins.b = ins.a;  // size register
            ins.a = preg;
          }
          break;
        }
        case Op::kFree: {
          const int preg = pool_reg_of_ptr(ins.a);
          if (preg >= 0) {
            ins.op = Op::kPoolFree;
            ins.b = ins.a;  // pointer register
            ins.a = preg;
          }
          break;
        }
        case Op::kCall: {
          const auto it = input.function_index.find(ins.callee);
          if (it != input.function_index.end()) {
            // Append descriptors for each pool the callee needs, in pool-
            // index order (matching the parameter order appended above).
            for (const int p : need[static_cast<std::size_t>(it->second)]) {
              const auto rit = pool_reg.find(p);
              if (rit == pool_reg.end()) {
                throw std::logic_error("pool_allocate: caller " + fn.name +
                                       " lacks descriptor for callee " +
                                       ins.callee);
              }
              ins.args.push_back(rit->second);
            }
          }
          break;
        }
        case Op::kBr:
          ins.target = new_index[static_cast<std::size_t>(ins.target)];
          break;
        case Op::kCbr:
          ins.target = new_index[static_cast<std::size_t>(ins.target)];
          ins.target2 = new_index[static_cast<std::size_t>(ins.target2)];
          break;
        default:
          break;
      }
      nfn.body.push_back(std::move(ins));
    }

    out.function_index.emplace(nfn.name, static_cast<int>(out.functions.size()));
    out.functions.push_back(std::move(nfn));
  }

  return TransformResult{std::move(out), std::move(placement)};
}

}  // namespace dpg::compiler
