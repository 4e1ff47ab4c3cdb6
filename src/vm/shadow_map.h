// ShadowMapper — strategy object that creates the per-allocation shadow alias.
//
// Two interchangeable mechanisms produce "a fresh virtual page mapped to the
// same physical page" (paper Section 3.2):
//
//   kMemfd  — mmap() a second MAP_SHARED view of the arena's memfd at the
//             canonical offset (the paper's "mmap with an in-memory file
//             system" fallback; the default here).
//   kMremap — mremap(old_address, 0, len, MREMAP_MAYMOVE): duplicating a
//             shared mapping by remapping zero bytes, the paper's primary
//             (then-undocumented) Linux trick. Still works on modern kernels
//             for MAP_SHARED mappings; probed at startup.
//
// Both yield identical semantics; bench_micro compares their costs.
#pragma once

#include <cstddef>

#include "vm/phys_arena.h"

namespace dpg::vm {

enum class AliasStrategy {
  kMemfd,
  kMremap,  // falls back to kMemfd when the kernel refuses the trick
};

class ShadowMapper {
 public:
  explicit ShadowMapper(PhysArena& arena,
                        AliasStrategy strategy = AliasStrategy::kMemfd);

  // Aliases the canonical pages spanning [canonical_page, +len) at a fresh
  // virtual address, or exactly at `fixed` (MAP_FIXED reuse path). The try_
  // form reports kernel refusal as an errno Result (the guard layer feeds it
  // to the DegradationGovernor); the plain form throws std::bad_alloc.
  [[nodiscard]] sys::MapResult try_alias(const void* canonical_page,
                                         std::size_t len,
                                         void* fixed = nullptr) noexcept;
  [[nodiscard]] void* alias(const void* canonical_page, std::size_t len,
                            void* fixed = nullptr);

  // Bulk alias (slot magazines): maps a contiguous run of canonical pages —
  // a whole magazine window — in ONE syscall, so the per-object alias cost
  // amortizes to 1/N. Always goes through the memfd view regardless of the
  // configured strategy: mremap(old_size = 0) duplicates an existing mapping
  // wholesale and cannot window into the canonical heap at magazine
  // granularity, while an mmap of the arena fd at the window's offset can.
  // Offsets beyond the current file length are legal (memfd MAP_SHARED);
  // those trailing slots become usable the moment the arena grows over them,
  // and the engine only carves slots whose canonical pages exist.
  [[nodiscard]] sys::MapResult try_alias_bulk(const void* canonical_window,
                                              std::size_t len,
                                              void* fixed = nullptr) noexcept;

  [[nodiscard]] AliasStrategy strategy() const noexcept { return strategy_; }

  // True iff mremap(old_size=0) duplication works on this kernel.
  [[nodiscard]] static bool mremap_alias_supported();

 private:
  PhysArena& arena_;
  AliasStrategy strategy_;
};

}  // namespace dpg::vm
