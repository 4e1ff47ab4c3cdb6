#include "compiler/interp.h"

#include <cstdlib>
#include <cstring>

#include "compiler/verify.h"

namespace dpg::compiler {

Interpreter::Interpreter(const Module& module, InterpOptions options)
    : module_(module), opts_(options) {
  if (opts_.verify) {
    const std::vector<std::string> problems = verify_module(module_);
    if (!problems.empty()) {
      throw InterpError("malformed module: " + problems.front() + " (+" +
                        std::to_string(problems.size() - 1) + " more)");
    }
  }
  globals_.assign(module_.globals.size(), 0);
  if (opts_.backend == Backend::kGuarded) {
    core::GuardConfig cfg;
    if (opts_.forced_rung >= 0 || opts_.sample_rate != 0) {
      // A/B rung pinning: a private governor keeps the run isolated from
      // process-wide ladder state in both directions.
      core::GovernorConfig gov_cfg;
      // recover_after = 0 disables upward hysteresis, so a pinned rung never
      // drifts. With --sample-rate alone the ladder stays adaptive.
      if (opts_.forced_rung >= 0) gov_cfg.recover_after = 0;
      if (opts_.sample_rate != 0) gov_cfg.sample_rate = opts_.sample_rate;
      governor_ = std::make_unique<core::DegradationGovernor>(gov_cfg);
      if (opts_.forced_rung >= 0) {
        governor_->force_mode(
            static_cast<core::GuardMode>(opts_.forced_rung));
      }
      cfg.governor = governor_.get();
    }
    ctx_ = std::make_unique<core::GuardedPoolContext>(cfg);
    global_pool_ = std::make_unique<core::GuardedPool>(*ctx_);
    // The guard-elision contract: sites the static UAF analysis proved SAFE
    // bypass the shadow engine entirely. The verifier (run above by default)
    // has already checked the table is per-node/per-pool consistent, so
    // elided pointers and guarded pointers never cross paths.
    if (opts_.honor_safety) {
      for (const SiteSafetyEntry& entry : module_.site_safety) {
        if (entry.elided) elided_sites_.insert(entry.site);
      }
    }
  }
}

Interpreter::~Interpreter() {
  if (opts_.backend == Backend::kNative) {
    for (const std::uint64_t addr : native_live_) {
      std::free(reinterpret_cast<void*>(addr));
    }
  }
}

std::size_t Interpreter::live_pools() const noexcept {
  std::size_t n = 0;
  for (const auto& pool : pools_) {
    if (pool != nullptr) n++;
  }
  return n;
}

InterpResult Interpreter::run(const std::vector<std::uint64_t>& args) {
  const Function* main_fn = module_.find("main");
  if (main_fn == nullptr) throw InterpError("module has no 'main'");
  steps_ = 0;
  output_.clear();
  call(*main_fn, args, 0);
  return InterpResult{output_, steps_};
}

std::uint64_t Interpreter::mem_alloc(core::GuardedPool* pool,
                                     std::uint64_t fields, std::uint32_t site) {
  const std::size_t bytes = static_cast<std::size_t>(fields ? fields : 1) * 8;
  if (opts_.backend == Backend::kNative) {
    void* p = std::malloc(bytes);
    if (p == nullptr) throw InterpError("native malloc failed");
    std::memset(p, 0, bytes);
    native_live_.insert(vm::addr(p));
    return vm::addr(p);
  }
  core::GuardedPool* target = pool != nullptr ? pool : global_pool_.get();
  if (elided_sites_.count(site) != 0) {
    // SAFE-classified site: canonical pool memory, no shadow alias. Still
    // zeroed (recycled canonical blocks hold stale bytes) and still bounded
    // by the pool's lifetime.
    void* p = target->alloc_unguarded(bytes, site);
    guards_elided_++;
    std::memset(p, 0, bytes);
    return vm::addr(p);
  }
  void* p = target->alloc(bytes, site);
  std::memset(p, 0, bytes);
  return vm::addr(p);
}

void Interpreter::mem_free(core::GuardedPool* pool, std::uint64_t addr,
                           std::uint32_t site) {
  if (opts_.backend == Backend::kNative) {
    if (native_live_.erase(addr) == 0) {
      throw InterpError("native free of unknown pointer");
    }
    std::free(reinterpret_cast<void*>(addr));
    return;
  }
  core::GuardedPool* target = pool != nullptr ? pool : global_pool_.get();
  if (elided_sites_.count(site) != 0) {
    // Elision is per points-to node, so a pointer reaching an elided free
    // site was allocated unguarded (verify_module enforces the pairing).
    target->free_unguarded(reinterpret_cast<void*>(addr), site);
    return;
  }
  target->free(reinterpret_cast<void*>(addr), site);
}

core::GuardedPool* Interpreter::pool_from_handle(std::uint64_t handle,
                                                 const char* what) {
  if (handle == 0 || handle > pools_.size()) {
    throw InterpError(std::string(what) + ": bad pool descriptor");
  }
  core::GuardedPool* pool = pools_[static_cast<std::size_t>(handle - 1)].get();
  if (pool == nullptr) {
    throw InterpError(std::string(what) + ": pool already destroyed");
  }
  return pool;
}

std::uint64_t Interpreter::call(const Function& fn,
                                const std::vector<std::uint64_t>& args,
                                int depth) {
  if (depth > opts_.max_depth) throw InterpError("call depth exceeded");
  std::vector<std::uint64_t> regs(static_cast<std::size_t>(fn.num_regs()), 0);

  // Bind arguments by parameter *name* (the pool transformation appends
  // parameters whose registers are not at the front of the register file).
  for (std::size_t i = 0; i < fn.params.size() && i < args.size(); ++i) {
    for (std::size_t r = 0; r < fn.reg_names.size(); ++r) {
      if (fn.reg_names[r] == fn.params[i]) {
        regs[r] = args[i];
        break;
      }
    }
  }

  std::size_t pc = 0;
  while (pc < fn.body.size()) {
    if (++steps_ > opts_.max_steps) throw InterpError("step budget exceeded");
    const Instr& ins = fn.body[pc];
    switch (ins.op) {
      case Op::kConst:
        regs[static_cast<std::size_t>(ins.dst)] = static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kCopy:
        regs[static_cast<std::size_t>(ins.dst)] = regs[static_cast<std::size_t>(ins.a)];
        break;
      case Op::kAdd:
        regs[static_cast<std::size_t>(ins.dst)] =
            regs[static_cast<std::size_t>(ins.a)] + regs[static_cast<std::size_t>(ins.b)];
        break;
      case Op::kSub:
        regs[static_cast<std::size_t>(ins.dst)] =
            regs[static_cast<std::size_t>(ins.a)] - regs[static_cast<std::size_t>(ins.b)];
        break;
      case Op::kMul:
        regs[static_cast<std::size_t>(ins.dst)] =
            regs[static_cast<std::size_t>(ins.a)] * regs[static_cast<std::size_t>(ins.b)];
        break;
      case Op::kCmpLt:
        regs[static_cast<std::size_t>(ins.dst)] =
            regs[static_cast<std::size_t>(ins.a)] < regs[static_cast<std::size_t>(ins.b)] ? 1 : 0;
        break;
      case Op::kCmpEq:
        regs[static_cast<std::size_t>(ins.dst)] =
            regs[static_cast<std::size_t>(ins.a)] == regs[static_cast<std::size_t>(ins.b)] ? 1 : 0;
        break;
      case Op::kMalloc:
        regs[static_cast<std::size_t>(ins.dst)] =
            mem_alloc(nullptr, regs[static_cast<std::size_t>(ins.a)], ins.site);
        break;
      case Op::kFree:
        mem_free(nullptr, regs[static_cast<std::size_t>(ins.a)], ins.site);
        break;
      case Op::kGetField: {
        // A dangling load is a genuine MMU trap, resolved by the fault
        // manager.
        const auto* obj = reinterpret_cast<const std::uint64_t*>(
            regs[static_cast<std::size_t>(ins.a)]);
        regs[static_cast<std::size_t>(ins.dst)] = obj[ins.imm];
        break;
      }
      case Op::kSetField: {
        auto* obj = reinterpret_cast<std::uint64_t*>(
            regs[static_cast<std::size_t>(ins.a)]);
        obj[ins.imm] = regs[static_cast<std::size_t>(ins.b)];
        break;
      }
      case Op::kGetFieldV: {
        const auto* obj = reinterpret_cast<const std::uint64_t*>(
            regs[static_cast<std::size_t>(ins.a)]);
        regs[static_cast<std::size_t>(ins.dst)] =
            obj[regs[static_cast<std::size_t>(ins.b)]];
        break;
      }
      case Op::kSetFieldV: {
        auto* obj = reinterpret_cast<std::uint64_t*>(
            regs[static_cast<std::size_t>(ins.a)]);
        obj[regs[static_cast<std::size_t>(ins.b)]] =
            regs[static_cast<std::size_t>(ins.c)];
        break;
      }
      case Op::kLoadG:
        regs[static_cast<std::size_t>(ins.dst)] = globals_[static_cast<std::size_t>(ins.imm)];
        break;
      case Op::kStoreG:
        globals_[static_cast<std::size_t>(ins.imm)] = regs[static_cast<std::size_t>(ins.a)];
        break;
      case Op::kCall: {
        const Function* callee = module_.find(ins.callee);
        if (callee == nullptr) {
          throw InterpError("call to unknown function " + ins.callee);
        }
        std::vector<std::uint64_t> call_args;
        call_args.reserve(ins.args.size());
        for (const int a : ins.args) {
          call_args.push_back(regs[static_cast<std::size_t>(a)]);
        }
        const std::uint64_t ret = call(*callee, call_args, depth + 1);
        if (ins.dst >= 0) regs[static_cast<std::size_t>(ins.dst)] = ret;
        break;
      }
      case Op::kRet:
        return ins.a >= 0 ? regs[static_cast<std::size_t>(ins.a)] : 0;
      case Op::kBr:
        pc = static_cast<std::size_t>(ins.target);
        continue;
      case Op::kCbr:
        pc = regs[static_cast<std::size_t>(ins.a)] != 0
                 ? static_cast<std::size_t>(ins.target)
                 : static_cast<std::size_t>(ins.target2);
        continue;
      case Op::kOut:
        output_.push_back(regs[static_cast<std::size_t>(ins.a)]);
        break;
      case Op::kPoolInit: {
        if (opts_.backend == Backend::kNative) {
          regs[static_cast<std::size_t>(ins.dst)] = 0;  // pools degrade to malloc
          break;
        }
        pools_.push_back(std::make_unique<core::GuardedPool>(
            *ctx_, static_cast<std::size_t>(ins.imm > 0 ? ins.imm : 0)));
        regs[static_cast<std::size_t>(ins.dst)] = pools_.size();
        break;
      }
      case Op::kPoolDestroy: {
        if (opts_.backend == Backend::kNative) break;
        const std::uint64_t handle = regs[static_cast<std::size_t>(ins.a)];
        core::GuardedPool* pool = pool_from_handle(handle, "pooldestroy");
        pool->destroy();
        pools_[static_cast<std::size_t>(handle - 1)].reset();
        break;
      }
      case Op::kPoolAlloc: {
        core::GuardedPool* pool =
            opts_.backend == Backend::kNative
                ? nullptr
                : pool_from_handle(regs[static_cast<std::size_t>(ins.a)], "poolalloc");
        regs[static_cast<std::size_t>(ins.dst)] =
            mem_alloc(pool, regs[static_cast<std::size_t>(ins.b)], ins.site);
        break;
      }
      case Op::kPoolFree: {
        core::GuardedPool* pool =
            opts_.backend == Backend::kNative
                ? nullptr
                : pool_from_handle(regs[static_cast<std::size_t>(ins.a)], "poolfree");
        mem_free(pool, regs[static_cast<std::size_t>(ins.b)], ins.site);
        break;
      }
    }
    pc++;
  }
  return 0;  // fell off the end: implicit ret 0
}

}  // namespace dpg::compiler
