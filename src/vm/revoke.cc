#include "vm/revoke.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "obs/env.h"
#include "obs/metrics.h"
#include "vm/page.h"
#include "vm/phys_arena.h"

#ifndef MADV_GUARD_INSTALL
#define MADV_GUARD_INSTALL 102
#endif
#ifndef MADV_GUARD_REMOVE
#define MADV_GUARD_REMOVE 103
#endif

namespace dpg::vm {

namespace {

// Exported as counters, so the JSON and Prometheus dumps and the .dpgcrash
// file all record which backend the run had.
std::atomic<std::uint64_t> g_guard_supported{0};
std::atomic<std::uint64_t> g_resolved_mprotect{0};
std::atomic<std::uint64_t> g_resolved_guard{0};

void register_backend_counters() noexcept {
  static const bool registered = [] {
    obs::register_counter("dpg_guard_markers_supported", &g_guard_supported);
    obs::register_counter("dpg_revoke_backend_mprotect", &g_resolved_mprotect);
    obs::register_counter("dpg_revoke_backend_guard", &g_resolved_guard);
    return true;
  }();
  (void)registered;
}

// One install on a one-page shared memfd mapping, the shape of a shadow
// alias. Only the madvise goes through the shim: the scaffolding calls are
// raw so the probe leaves the mmap/ftruncate fault-plan counts untouched.
bool probe_guard() noexcept {
  const int fd = static_cast<int>(::memfd_create("dpg-guard-probe", MFD_CLOEXEC));
  if (fd < 0) return false;
  bool ok = false;
  if (::ftruncate(fd, static_cast<off_t>(kPageSize)) == 0) {
    void* p = ::mmap(nullptr, kPageSize, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
    if (p != MAP_FAILED) {
      ok = sys::advise(p, kPageSize, MADV_GUARD_INSTALL).ok();
      ::munmap(p, kPageSize);
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace

const char* backend_name(RevokeBackend b) noexcept {
  switch (b) {
    case RevokeBackend::kAuto: return "auto";
    case RevokeBackend::kMprotect: return "mprotect";
    case RevokeBackend::kGuard: return "guard";
  }
  return "?";
}

bool parse_backend(const char* s, RevokeBackend* out) noexcept {
  if (s == nullptr) return false;
  if (std::strcmp(s, "auto") == 0) *out = RevokeBackend::kAuto;
  else if (std::strcmp(s, "mprotect") == 0) *out = RevokeBackend::kMprotect;
  else if (std::strcmp(s, "guard") == 0) *out = RevokeBackend::kGuard;
  else return false;
  return true;
}

RevokeBackend backend_from_env() noexcept {
  const char* spec = obs::env_str("DPG_REVOKE_BACKEND");
  if (spec == nullptr || spec[0] == '\0') return RevokeBackend::kAuto;
  RevokeBackend b = RevokeBackend::kAuto;
  if (!parse_backend(spec, &b)) {
    static const bool warned = [spec] {
      std::fprintf(stderr,
                   "dpguard: ignoring unknown DPG_REVOKE_BACKEND=\"%s\"\n",
                   spec);
      return true;
    }();
    (void)warned;
    return RevokeBackend::kAuto;
  }
  return b;
}

RevokeBackend Revoker::resolve(RevokeBackend requested) noexcept {
  const RevokeBackend want =
      requested == RevokeBackend::kAuto ? backend_from_env() : requested;
  // Probed on every request, so the exported support flag holds for
  // mprotect-pinned runs too.
  const bool guard = guard_supported();
  return want != RevokeBackend::kMprotect && guard ? RevokeBackend::kGuard
                                                   : RevokeBackend::kMprotect;
}

void Revoker::init(RevokeBackend requested) noexcept {
  active_ = resolve(requested);
  (active_ == RevokeBackend::kGuard ? g_resolved_guard : g_resolved_mprotect)
      .fetch_add(1, std::memory_order_relaxed);
}

sys::IoResult Revoker::revoke(PhysArena& arena, void* p,
                              std::size_t len) const noexcept {
  if (active_ == RevokeBackend::kGuard) {
    const sys::IoResult r = sys::advise(p, page_up(len), MADV_GUARD_INSTALL);
    // EINVAL: a VM_LOCKED alias refuses markers; PROT_NONE still works.
    if (r.ok() || r.err != EINVAL) return r;
  }
  return arena.try_revoke(p, len);
}

sys::IoResult Revoker::restore(const PhysArena& arena, void* p,
                               std::size_t len) const noexcept {
  if (active_ == RevokeBackend::kGuard) {
    const sys::IoResult r = sys::advise(p, page_up(len), MADV_GUARD_REMOVE);
    if (!r.ok() || !arena.revoked_prot_none()) return r;
  }
  const sys::IoResult r = sys::advise(p, page_up(len), MADV_DONTNEED);
  if (!r.ok()) return r;
  return PhysArena::try_protect_rw(p, len);
}

bool Revoker::guard_supported() noexcept {
  static const bool supported = [] {
    register_backend_counters();
    const bool ok = probe_guard();
    g_guard_supported.store(ok ? 1 : 0, std::memory_order_relaxed);
    return ok;
  }();
  return supported;
}

bool Revoker::mpk_supported() noexcept {
  static const bool supported = [] {
#if defined(__x86_64__) && defined(SYS_pkey_alloc)
    const long key = ::syscall(SYS_pkey_alloc, 0ul, 0ul);
    if (key < 0) return false;
    (void)::syscall(SYS_pkey_free, key);
    return true;
#else
    return false;
#endif
  }();
  return supported;
}

}  // namespace dpg::vm
