// Diagnostic types produced when a dangling pointer use is detected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/backtrace.h"
#include "obs/trace.h"

namespace dpg::core {

// Site identifiers let callers tag allocation/free program points (the
// compiler substrate emits instruction ids; hand-written code can use any
// scheme, e.g. __LINE__). Zero means "unknown site".
using SiteId = std::uint32_t;

// What the dangling pointer was used for. The paper (Section 2.1): "use of a
// pointer is a read, write or free operation on that pointer".
enum class AccessKind : std::uint8_t {
  kRead,
  kWrite,
  kFree,        // free() of an already-freed object (double free)
  kInvalidFree, // free() of a pointer we never allocated
  kOverflow,    // access past a live object's last page (trailing guard)
  kUnknown,     // fault where read/write could not be classified
};

[[nodiscard]] constexpr const char* to_string(AccessKind k) noexcept {
  switch (k) {
    case AccessKind::kRead: return "read";
    case AccessKind::kWrite: return "write";
    case AccessKind::kFree: return "double-free";
    case AccessKind::kInvalidFree: return "invalid-free";
    case AccessKind::kOverflow: return "overflow";
    case AccessKind::kUnknown: return "access";
  }
  return "?";
}

struct DanglingReport {
  AccessKind kind = AccessKind::kUnknown;
  std::uintptr_t fault_address = 0;  // the dangling pointer value used
  std::uintptr_t object_base = 0;    // shadow address the program was given
  std::size_t object_size = 0;
  SiteId alloc_site = 0;
  SiteId free_site = 0;

  // Flight-recorder enrichment (DPG_TRACE=1): the faulting thread's most
  // recent events, oldest first, filled by the fault manager at dispatch so a
  // single production crash carries its own history. Empty when tracing is
  // off. The kFault event for this very report is recorded first, so it is
  // always the newest entry when tracing is on.
  static constexpr std::size_t kTraceDepth = 32;
  std::size_t trace_count = 0;
  obs::TraceEvent recent_trace[kTraceDepth] = {};

  // Raw return-address backtraces (deepest caller first) for the §4 diagnosis
  // triple: where the object was allocated, where it was freed, and where the
  // dangling use happened. Alloc/free stacks are copied out of the shadow
  // slot's ObjectRecord; the use stack comes from the faulting signal context
  // (or a normal-context walk for software-raised reports). All empty when
  // DPG_SITE_DEPTH=0. Symbolized offline by tools/dpg_report.
  static constexpr std::size_t kSiteStackDepth = obs::kMaxSiteFrames;
  static constexpr std::size_t kUseStackDepth = obs::kMaxUseFrames;
  std::size_t alloc_stack_depth = 0;
  std::size_t free_stack_depth = 0;
  std::size_t use_stack_depth = 0;
  std::uintptr_t alloc_stack[kSiteStackDepth] = {};
  std::uintptr_t free_stack[kSiteStackDepth] = {};
  std::uintptr_t use_stack[kUseStackDepth] = {};

  [[nodiscard]] std::string describe() const;
};

inline std::string DanglingReport::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "dangling %s of %p: object [%p, +%zu) allocated at site %u, "
                "freed at site %u",
                to_string(kind), reinterpret_cast<void*>(fault_address),
                reinterpret_cast<void*>(object_base), object_size, alloc_site,
                free_site);
  return buf;
}

}  // namespace dpg::core
