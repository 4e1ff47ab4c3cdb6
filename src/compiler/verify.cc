#include "compiler/verify.h"

#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace dpg::compiler {

namespace {

class Verifier {
 public:
  explicit Verifier(const Module& module) : module_(module) {}

  std::vector<std::string> run() {
    check_function_index();
    std::set<std::uint32_t> sites;
    for (const Function& fn : module_.functions) {
      check_function(fn, sites);
    }
    check_site_safety();
    return std::move(diagnostics_);
  }

 private:
  void fail(const std::string& where, const std::string& what) {
    diagnostics_.push_back(where + ": " + what);
  }

  void check_function_index() {
    std::unordered_set<std::string> names;
    for (std::size_t i = 0; i < module_.functions.size(); ++i) {
      const std::string& name = module_.functions[i].name;
      if (!names.insert(name).second) {
        fail(name, "duplicate function name");
      }
      const auto it = module_.function_index.find(name);
      if (it == module_.function_index.end()) {
        fail(name, "missing from function_index");
      } else if (it->second != static_cast<int>(i)) {
        fail(name, "function_index points at the wrong slot");
      }
    }
  }

  void check_function(const Function& fn, std::set<std::uint32_t>& sites) {
    const int nregs = fn.num_regs();
    std::unordered_set<std::string> param_names;
    for (const std::string& param : fn.params) {
      if (!param_names.insert(param).second) {
        fail(fn.name, "duplicate parameter '" + param + "'");
      }
      bool found = false;
      for (const std::string& reg : fn.reg_names) found |= reg == param;
      if (!found) fail(fn.name, "parameter '" + param + "' has no register");
    }

    const auto reg_ok = [nregs](int r) { return r >= 0 && r < nregs; };
    const auto target_ok = [&fn](int t) {
      return t >= 0 && t < static_cast<int>(fn.body.size());
    };

    for (std::size_t i = 0; i < fn.body.size(); ++i) {
      const Instr& ins = fn.body[i];
      std::ostringstream where;
      where << fn.name << "[" << i << "]";

      const auto need_dst = [&] {
        if (!reg_ok(ins.dst)) fail(where.str(), "bad destination register");
      };
      const auto need_a = [&] {
        if (!reg_ok(ins.a)) fail(where.str(), "bad operand a");
      };
      const auto need_b = [&] {
        if (!reg_ok(ins.b)) fail(where.str(), "bad operand b");
      };
      const auto need_site = [&] {
        if (ins.site == 0) {
          fail(where.str(), "allocation/free site id missing");
        } else if (!sites.insert(ins.site).second) {
          fail(where.str(), "duplicate site id");
        }
      };

      switch (ins.op) {
        case Op::kConst:
          need_dst();
          break;
        case Op::kCopy:
          need_dst();
          need_a();
          break;
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kCmpLt:
        case Op::kCmpEq:
          need_dst();
          need_a();
          need_b();
          break;
        case Op::kMalloc:
          need_dst();
          need_a();
          need_site();
          break;
        case Op::kFree:
          need_a();
          need_site();
          break;
        case Op::kGetField:
          need_dst();
          need_a();
          break;
        case Op::kSetField:
          need_a();
          need_b();
          break;
        case Op::kGetFieldV:
          need_dst();
          need_a();
          need_b();
          break;
        case Op::kSetFieldV:
          need_a();
          need_b();
          if (!reg_ok(ins.c)) fail(where.str(), "bad operand c");
          break;
        case Op::kLoadG:
          need_dst();
          check_global(where.str(), ins.imm);
          break;
        case Op::kStoreG:
          need_a();
          check_global(where.str(), ins.imm);
          break;
        case Op::kCall: {
          const auto it = module_.function_index.find(ins.callee);
          if (it == module_.function_index.end()) {
            fail(where.str(), "call to unknown function '" + ins.callee + "'");
          } else {
            const Function& callee =
                module_.functions[static_cast<std::size_t>(it->second)];
            if (callee.params.size() != ins.args.size()) {
              fail(where.str(), "arity mismatch calling '" + ins.callee + "'");
            }
          }
          for (const int arg : ins.args) {
            if (!reg_ok(arg)) fail(where.str(), "bad call argument register");
          }
          if (ins.dst >= 0 && !reg_ok(ins.dst)) {
            fail(where.str(), "bad call destination");
          }
          break;
        }
        case Op::kRet:
          if (ins.a >= 0 && !reg_ok(ins.a)) {
            fail(where.str(), "bad return operand");
          }
          break;
        case Op::kBr:
          if (!target_ok(ins.target)) fail(where.str(), "branch target out of range");
          break;
        case Op::kCbr:
          need_a();
          if (!target_ok(ins.target)) fail(where.str(), "cbr target out of range");
          if (!target_ok(ins.target2)) fail(where.str(), "cbr fallthrough out of range");
          break;
        case Op::kOut:
          need_a();
          break;
        case Op::kPoolInit:
          need_dst();
          break;
        case Op::kPoolDestroy:
          need_a();
          break;
        case Op::kPoolAlloc:
          need_dst();
          need_a();
          need_b();
          need_site();
          break;
        case Op::kPoolFree:
          need_a();
          need_b();
          need_site();
          break;
      }
    }
  }

  // The guard-elision contract must survive IR surgery: every table entry
  // names a real site, no site appears twice, every alloc/free site is
  // covered, and elision is uniform per points-to node and per pool — so an
  // elided (canonical, unguarded) pointer can never reach the poolfree of a
  // guarded pool, nor a guarded (shadow) pointer an elided free.
  void check_site_safety() {
    if (module_.site_safety.empty()) return;  // contract absent: all guarded

    std::unordered_map<std::uint32_t, Op> site_ops;
    for (const Function& fn : module_.functions) {
      for (const Instr& ins : fn.body) {
        if (ins.op == Op::kMalloc || ins.op == Op::kFree ||
            ins.op == Op::kPoolAlloc || ins.op == Op::kPoolFree) {
          site_ops.emplace(ins.site, ins.op);
        }
      }
    }

    std::set<std::uint32_t> seen;
    std::unordered_map<int, bool> node_elided;
    std::unordered_map<int, bool> pool_elided;
    for (const SiteSafetyEntry& entry : module_.site_safety) {
      std::ostringstream where;
      where << "site_safety[site " << entry.site << "]";
      if (!seen.insert(entry.site).second) {
        fail(where.str(), "duplicate site entry");
        continue;
      }
      const auto op_it = site_ops.find(entry.site);
      if (op_it == site_ops.end()) {
        fail(where.str(), "site does not exist in the module");
        continue;
      }
      const bool is_free_op =
          op_it->second == Op::kFree || op_it->second == Op::kPoolFree;
      if (entry.is_free != is_free_op) {
        fail(where.str(), "alloc/free kind disagrees with the instruction");
      }
      if (entry.node >= 0) {
        const auto [it, inserted] = node_elided.emplace(entry.node, entry.elided);
        if (!inserted && it->second != entry.elided) {
          fail(where.str(), "node mixes elided and guarded sites");
        }
      } else if (entry.elided) {
        fail(where.str(), "elided site has no points-to node");
      }
      if (entry.pool >= 0) {
        const auto [it, inserted] = pool_elided.emplace(entry.pool, entry.elided);
        if (!inserted && it->second != entry.elided) {
          fail(where.str(),
               "pool mixes elided and guarded sites (elided site would reach "
               "a guarded pool)");
        }
      }
    }
    for (const auto& [site, op] : site_ops) {
      if (seen.count(site) == 0) {
        std::ostringstream where;
        where << "site_safety[site " << site << "]";
        fail(where.str(), "alloc/free site missing from the safety table");
      }
    }
  }

  void check_global(const std::string& where, std::int64_t index) {
    if (index < 0 || index >= static_cast<std::int64_t>(module_.globals.size())) {
      fail(where, "global index out of range");
    }
  }

  const Module& module_;
  std::vector<std::string> diagnostics_;
};

}  // namespace

std::vector<std::string> verify_module(const Module& module) {
  return Verifier(module).run();
}

}  // namespace dpg::compiler
