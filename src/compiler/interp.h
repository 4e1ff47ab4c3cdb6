// PIR interpreter — executes (transformed or raw) modules on a chosen
// allocation backend.
//
// This closes the paper's loop in-process: parse a C-like program, run
// Automatic Pool Allocation on it, then *execute* it against the guarded
// runtime. A dangling dereference in the program (e.g. Figure 1's
// p->next->val) becomes a real MMU trap, caught and reported by the fault
// manager; after a pooldestroy the pool's virtual pages really do return to
// the shared free list.
//
// Backends:
//   kNative  — std::malloc/std::free, raw accesses. For well-behaved
//              programs only (a dangling access is genuine UB here, exactly
//              like running the original binary).
//   kGuarded — every allocation guarded. kPoolInit/kPoolDestroy manage
//              GuardedPools; plain malloc/free (untransformed programs, or
//              sites the transformation left alone) go to a long-lived
//              global pool, modelling the paper's "directly applied on the
//              binaries" mode.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "compiler/ir.h"
#include "core/guarded_pool.h"

namespace dpg::compiler {

enum class Backend { kNative, kGuarded };

struct InterpOptions {
  Backend backend = Backend::kGuarded;
  std::uint64_t max_steps = 200'000'000;
  int max_depth = 500;
  bool verify = true;  // run verify_module() up front; throw on diagnostics
  // Honor the module's SiteSafety guard-elision table: sites the static UAF
  // analysis proved SAFE allocate straight from the canonical heap (no
  // shadow alias, no PROT_NONE at free). Disable to force full guarding,
  // e.g. to measure the elision win or distrust an external table.
  bool honor_safety = true;
  // Degradation-ladder A/B knobs (pirc --rung / --sample-rate). forced_rung
  // pins a private governor to one rung for the interpreter's lifetime
  // (core::GuardMode numbering: 0 full-guard, 1 sampled, 2 quarantine-only;
  // -1 = adaptive process default). sample_rate fixes the
  // sampled rung's 1-in-N; 0 keeps the governor default (or DPG_SAMPLE_RATE).
  // Setting either knob gives the run its own governor, so A/B comparisons
  // do not perturb — or inherit pressure from — the process-wide ladder.
  int forced_rung = -1;
  std::size_t sample_rate = 0;
};

struct InterpResult {
  std::vector<std::uint64_t> output;  // values emitted by `out`
  std::uint64_t steps = 0;
};

class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Interpreter {
 public:
  explicit Interpreter(const Module& module, InterpOptions options = {});
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Runs `main` (binding `args` to its leading parameters). May be called
  // multiple times; guarded state persists across runs like a live process.
  [[nodiscard]] InterpResult run(const std::vector<std::uint64_t>& args = {});

  // Guarded-backend introspection for tests and benches.
  [[nodiscard]] core::GuardedPoolContext* context() noexcept { return ctx_.get(); }
  [[nodiscard]] std::size_t live_pools() const noexcept;

  // The private governor created for the --rung/--sample-rate knobs, or
  // nullptr when the run rides the adaptive process-wide ladder.
  [[nodiscard]] core::DegradationGovernor* governor() noexcept {
    return governor_.get();
  }

  // Allocations served unguarded under the elision contract, accumulated
  // across the interpreter's lifetime (pool destruction does not reset it).
  [[nodiscard]] std::uint64_t guards_elided() const noexcept {
    return guards_elided_;
  }

 private:
  std::uint64_t call(const Function& fn, const std::vector<std::uint64_t>& args,
                     int depth);
  [[nodiscard]] std::uint64_t mem_alloc(core::GuardedPool* pool,
                                        std::uint64_t fields,
                                        std::uint32_t site);
  void mem_free(core::GuardedPool* pool, std::uint64_t addr, std::uint32_t site);
  [[nodiscard]] core::GuardedPool* pool_from_handle(std::uint64_t handle,
                                                    const char* what);

  Module module_;  // owned copy: callers may pass temporaries
  InterpOptions opts_;
  // Declared before ctx_: the context's VA-release hook points at the
  // governor, so the governor must be destroyed after the context.
  std::unique_ptr<core::DegradationGovernor> governor_;
  std::unique_ptr<core::GuardedPoolContext> ctx_;
  std::unique_ptr<core::GuardedPool> global_pool_;
  std::vector<std::unique_ptr<core::GuardedPool>> pools_;
  std::vector<std::uint64_t> globals_;
  std::unordered_set<std::uint64_t> native_live_;
  std::unordered_set<std::uint32_t> elided_sites_;  // from module_.site_safety
  std::uint64_t guards_elided_ = 0;
  std::uint64_t steps_ = 0;
  std::vector<std::uint64_t> output_;
};

}  // namespace dpg::compiler
