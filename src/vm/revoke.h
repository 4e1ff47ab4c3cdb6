// Revoker — where revocation is decided (DESIGN.md §16).
//
// The paper revokes a freed object's shadow pages with mprotect(PROT_NONE).
// Two backends do that job:
//
//   kMprotect  PROT_NONE through the arena (the paper's path).
//   kGuard     madvise(MADV_GUARD_INSTALL) puts guard markers in the span's
//              page-table entries (Linux 6.13; 6.15+ for the shared memfd
//              aliases used here). An access traps with SEGV_MAPERR. The
//              VMA keeps its protections, so the call neither splits it nor
//              takes the mmap write lock. A forked child inherits the
//              markers, and MAP_FIXED over the span clears them for reuse.
//
// Batching is orthogonal to the backend: the engine's revocation queue
// (GuardConfig::protect_batch, in pages) coalesces adjacent spans into one
// call per run under either backend.
//
// kAuto resolves once per process: DPG_REVOKE_BACKEND when set, else kGuard
// when a probe install on a one-page shared memfd mapping succeeds, else
// kMprotect. A kGuard request on a host whose probe failed runs kMprotect.
// The kernel refuses an install with EINVAL on a VM_LOCKED alias (mlock,
// mlockall); that run is revoked through mprotect instead, so detection is
// never weaker than under kMprotect.
//
// restore() is revoke()'s inverse, for a recycled shadow range that still
// aliases the canonical pages it is wanted for: guard markers come off with
// MADV_GUARD_REMOVE (mmap read lock, no VMA change, no TLB flush), PROT_NONE
// with MADV_DONTNEED and mprotect(RW). PROT_NONE keeps the page-table
// entries of the range's last generation, which the MAP_FIXED a restore
// replaces would have dropped; MADV_DONTNEED drops them, so a restored range
// holds only what its next generation touches. Once an EINVAL fallback has
// left PROT_NONE on any alias of the arena (PhysArena::revoked_prot_none),
// a kGuard restore lifts both, so it never leaves a PROT_NONE run behind.
#pragma once

#include <cstddef>

#include "vm/sys.h"

namespace dpg::vm {

class PhysArena;

enum class RevokeBackend : int {
  // A request only: resolved by init() as described above. A resolved
  // Revoker never reports kAuto.
  kAuto = 0,
  kMprotect,  // mprotect(PROT_NONE) per revoked run
  kGuard,     // madvise(MADV_GUARD_INSTALL) per revoked run
};

[[nodiscard]] const char* backend_name(RevokeBackend b) noexcept;

// Accepts "auto" | "mprotect" | "guard"; false on anything else.
[[nodiscard]] bool parse_backend(const char* s, RevokeBackend* out) noexcept;

// DPG_REVOKE_BACKEND, or kAuto when unset/unparsable (an unparsable value is
// reported to stderr once).
[[nodiscard]] RevokeBackend backend_from_env() noexcept;

class Revoker {
 public:
  // Resolves `requested` into the active backend and counts the result in
  // the dpg_revoke_backend_{mprotect,guard} metrics.
  void init(RevokeBackend requested) noexcept;

  // The backend init(requested) would make active, without counting it.
  [[nodiscard]] static RevokeBackend resolve(RevokeBackend requested) noexcept;

  [[nodiscard]] RevokeBackend active() const noexcept { return active_; }

  // Revokes [p, p+len): PROT_NONE through the arena (with its ENOMEM
  // relief-and-retry posture), or one guard-marker install.
  [[nodiscard]] sys::IoResult revoke(PhysArena& arena, void* p,
                                     std::size_t len) const noexcept;

  // Makes [p, p+len), a revoked alias of `arena`, accessible again in place:
  // one MADV_GUARD_REMOVE under kGuard; MADV_DONTNEED then mprotect(RW)
  // under kMprotect, and after the guard removal once the arena has a
  // fallback PROT_NONE run.
  [[nodiscard]] sys::IoResult restore(const PhysArena& arena, void* p,
                                      std::size_t len) const noexcept;

  // True when the kernel installs guard markers on a shared memfd mapping.
  // The probe's madvise goes through the fault-injectable shim; the result
  // is cached for the process and exported as dpg_guard_markers_supported.
  [[nodiscard]] static bool guard_supported() noexcept;

  // True when the CPU and kernel expose MPK (a host fact for benchmark
  // records; no backend uses it). Cached after the first call.
  [[nodiscard]] static bool mpk_supported() noexcept;

 private:
  RevokeBackend active_ = RevokeBackend::kMprotect;
};

}  // namespace dpg::vm
