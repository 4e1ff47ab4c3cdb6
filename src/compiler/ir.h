// PIR — a miniature pointer intermediate representation.
//
// The paper applies the (LLVM-based) Automatic Pool Allocation transformation
// to C programs. Reimplementing LLVM is out of scope; what the runtime needs
// from the compiler is a *contract* — pools whose lifetimes bound all
// pointers into them. PIR is the smallest IR rich enough to reproduce that
// pipeline end-to-end: points-to analysis -> escape analysis -> pool
// placement -> transformed program executing on the guarded runtime. The
// paper's running example (Figure 1/2) is expressible directly, dangling
// dereference included.
//
// Shape: non-SSA register machine. Heap objects are records of 8-byte word
// fields. Direct calls only (no function pointers), which keeps the call
// graph static, as Automatic Pool Allocation's DSA would anyway resolve for
// these programs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dpg::compiler {

enum class Op : std::uint8_t {
  kConst,     // r = const imm
  kCopy,      // r = copy a
  kAdd,       // r = add a, b
  kSub,       // r = sub a, b
  kMul,       // r = mul a, b
  kCmpLt,     // r = lt a, b      (1 or 0)
  kCmpEq,     // r = eq a, b
  kMalloc,    // r = malloc n     (n fields of 8 bytes; n from register a)
  kFree,      // free a
  kGetField,  // r = getfield a, imm
  kSetField,  // setfield a, imm, b
  kGetFieldV, // r = getfieldv a, b      (field index from register b)
  kSetFieldV, // setfieldv a, b, c       (object a, index b, value c)
  kLoadG,     // r = loadg global#imm
  kStoreG,    // storeg global#imm, a
  kCall,      // r = call callee(args...)   (r optional)
  kRet,       // ret [a]
  kBr,        // br target
  kCbr,       // cbr a, target, target2
  kOut,       // out a            (append to program output)
  // Inserted by the pool transformation:
  kPoolInit,     // r = poolinit            (fresh pool descriptor)
  kPoolDestroy,  // pooldestroy a
  kPoolAlloc,    // r = poolalloc a, n      (pool in a, n fields from b)
  kPoolFree,     // poolfree a, b           (pool in a, pointer in b)
};

struct Instr {
  Op op{};
  int dst = -1;          // destination register, -1 if none
  int a = -1;            // operand registers
  int b = -1;
  int c = -1;            // third operand (kSetFieldV value)
  std::int64_t imm = 0;  // constant / field index / global index
  int target = -1;       // branch target (instruction index)
  int target2 = -1;
  std::string callee;    // kCall
  std::vector<int> args; // kCall argument registers
  std::uint32_t site = 0;  // unique site id (malloc/free diagnostics)
};

struct Function {
  std::string name;
  std::vector<std::string> params;       // first registers are the params
  std::vector<std::string> reg_names;    // index -> name
  std::vector<Instr> body;

  [[nodiscard]] int num_regs() const { return static_cast<int>(reg_names.size()); }
};

// One row of the compiler->runtime guard-elision contract, the only table the
// compiler hands the runtime. The UAF analysis (uaf_analysis.h) classifies
// every points-to node; the pool transformation records one entry per
// alloc/free site of the transformed module. `elided` means the static
// analysis proved the site's node free of temporal errors, so the runtime may
// serve it from the canonical heap directly: no shadow alias mmap at
// allocation, no PROT_NONE mprotect at free. Every other site takes the
// paper's exact page guard. Elision is a
// per-node (hence per-pool) all-or-nothing property — verify_module rejects
// tables where a guarded and an elided site share a node or a pool, which is
// what guarantees an elided (canonical) pointer never reaches the guarded
// poolfree path and vice versa.
struct SiteSafetyEntry {
  std::uint32_t site = 0;
  int node = -1;        // points-to node root the site belongs to
  int pool = -1;        // pool index from placement; -1 = default/global pool
  bool is_free = false; // free/poolfree site (else alloc site)
  bool elided = false;  // SAFE-classified: runtime skips guarding entirely
};

struct Module {
  std::vector<std::string> globals;  // named module-level word slots
  std::vector<Function> functions;
  std::unordered_map<std::string, int> function_index;

  // Guard-elision contract; empty = everything guarded (the default for
  // hand-written or untransformed modules).
  std::vector<SiteSafetyEntry> site_safety;

  [[nodiscard]] const Function* find(const std::string& name) const {
    const auto it = function_index.find(name);
    return it == function_index.end() ? nullptr : &functions[it->second];
  }
  [[nodiscard]] Function* find(const std::string& name) {
    const auto it = function_index.find(name);
    return it == function_index.end() ? nullptr : &functions[it->second];
  }

  [[nodiscard]] int global_index(const std::string& name) const {
    for (std::size_t i = 0; i < globals.size(); ++i) {
      if (globals[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  // Pretty-printer (tests compare transformed programs against expectations).
  [[nodiscard]] std::string dump() const;
};

}  // namespace dpg::compiler
