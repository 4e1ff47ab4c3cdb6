#include "vm/shadow_map.h"

#define _GNU_SOURCE 1
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "vm/vm_stats.h"

namespace dpg::vm {

namespace {

// One-shot probe: create a tiny shared mapping and try to duplicate it with
// mremap(old_size = 0). Some hardened kernels reject this. Deliberately uses
// raw syscalls, not the vm/sys shim: a fault-injection plan must not flip
// the alias strategy mid-test.
bool probe_mremap_alias() {
  int fd = static_cast<int>(memfd_create("dpguard-probe", MFD_CLOEXEC));
  if (fd < 0) return false;
  bool ok = false;
  if (ftruncate(fd, static_cast<off_t>(kPageSize)) == 0) {
    void* first =
        mmap(nullptr, kPageSize, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (first != MAP_FAILED) {
      void* dup = mremap(first, 0, kPageSize, MREMAP_MAYMOVE);
      if (dup != MAP_FAILED) {
        // Verify it is a true alias, not a fresh anonymous page.
        std::memset(first, 0xAB, 8);
        ok = std::memcmp(dup, first, 8) == 0;
        munmap(dup, kPageSize);
      }
      munmap(first, kPageSize);
    }
  }
  close(fd);
  return ok;
}

}  // namespace

bool ShadowMapper::mremap_alias_supported() {
  static const bool supported = probe_mremap_alias();
  return supported;
}

ShadowMapper::ShadowMapper(PhysArena& arena, AliasStrategy strategy)
    : arena_(arena), strategy_(strategy) {
  if (strategy_ == AliasStrategy::kMremap && !mremap_alias_supported()) {
    strategy_ = AliasStrategy::kMemfd;
  }
}

sys::MapResult ShadowMapper::try_alias(const void* canonical_page,
                                       std::size_t len, void* fixed) noexcept {
  if (strategy_ == AliasStrategy::kMemfd || fixed != nullptr) {
    // The MAP_FIXED reuse path always goes through the memfd: mremap cannot
    // place the duplicate at a chosen address without MREMAP_FIXED juggling.
    const sys::MapResult shadow =
        arena_.try_map_shadow(canonical_page, len, fixed);
    if (shadow.ok()) {
      obs::record_event(obs::EventKind::kShadowMap, addr(shadow.ptr),
                        page_up(len));
    }
    return shadow;
  }
  const sys::MapResult shadow =
      sys::remap_dup(const_cast<void*>(canonical_page), page_up(len));
  if (shadow.ok()) {
    obs::record_event(obs::EventKind::kShadowMap, addr(shadow.ptr),
                      page_up(len));
  }
  return shadow;
}

sys::MapResult ShadowMapper::try_alias_bulk(const void* canonical_window,
                                            std::size_t len,
                                            void* fixed) noexcept {
  const sys::MapResult shadow =
      arena_.try_map_shadow(canonical_window, len, fixed);
  if (shadow.ok()) {
    obs::record_event(obs::EventKind::kMagazineMap, addr(shadow.ptr),
                      page_up(len) / kPageSize);
  }
  return shadow;
}

void* ShadowMapper::alias(const void* canonical_page, std::size_t len,
                          void* fixed) {
  const sys::MapResult r = try_alias(canonical_page, len, fixed);
  if (!r.ok()) throw std::bad_alloc{};
  return r.ptr;
}

}  // namespace dpg::vm
