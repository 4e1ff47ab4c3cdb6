// LockAndKeyLane — the middle detection lane between guard elision and the
// paper's page guard (DESIGN.md §14).
//
// The paper concedes an ~11x worst case on allocation-intensive workloads
// because every non-proven site pays two syscalls per object lifetime.
// DangKiller's implicit identifier checks and xTag's software pointer
// tagging (PAPERS.md) show the cheaper middle: embed a generation tag in
// the pointer's unused high bits (the *key*) and keep a per-slot generation
// word in memory (the *lock*); every load/store/free compares the two. No
// shadow alias, no mprotect, no VA burn — just one extra load and branch on
// each mediated access.
//
// Layout. Each slot is carved from the underlying (canonical) allocator
// with a 4-word header in front of the payload:
//
//     payload-32  magic          constant; interior and foreign pointers
//                                fail check_access's test of it (free
//                                admits only the lane's own slots)
//     payload-24  capacity       payload bytes (freelist bin)
//     payload-16  sites          alloc_site | last_free_site << 32
//     payload-8   generation     the lock; 1..(2^tag_bits - 1), 0 skipped
//     payload     user data
//
// A returned pointer is `payload | generation << kTagShift`. Free checks
// key == lock, then bumps the lock and recycles the slot onto a per-size
// freelist — the slot (and its generation word) stays inside the lane, so
// every stale pointer into it keeps a live lock to disagree with.
//
// Precision trade (mirrored exactly by the fuzz oracle): the generation
// counter wraps after 2^tag_bits - 1 frees of one slot. A pointer stale
// across exactly a whole wrap cycle carries a matching key again and is not
// detected — the *tag reuse window*. The page-guard lane has no such
// window; the scheme chooser therefore reserves this lane for MAY-UAF
// small-object allocation-hot sites where the page guard's cost is the
// paper's conceded worst case. Objects outliving the lane (pool destroy)
// are out of scope, as for the page lane's released spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "alloc/alloc_iface.h"
#include "core/report.h"
#include "core/stats.h"

namespace dpg::core {

class LockAndKeyLane {
 public:
  static constexpr unsigned kTagShift = 48;  // x86-64 user VA is 47-bit
  static constexpr unsigned kMaxTagBits = 15;
  static constexpr unsigned kDefaultTagBits = kMaxTagBits;
  static constexpr std::uint64_t kTagMask =
      (std::uint64_t{1} << kMaxTagBits) - 1;
  static constexpr std::size_t kHeaderBytes = 4 * sizeof(std::uint64_t);

  // `under` outlives the lane. Counter bumps (tagged_allocs/tagged_frees/
  // tag_mismatches, invalid_frees) go to `stats` — pass the owning engine's
  // counters so the lane shows up in the same stats()/metrics rollups as
  // the other lanes. `tag_bits` (clamped to [2, 15]) narrows the generation
  // space; tests and fuzz cells use small widths to force wraps.
  LockAndKeyLane(alloc::MallocLike& under, GuardCounters& stats,
                 unsigned tag_bits = kDefaultTagBits);
  ~LockAndKeyLane();

  LockAndKeyLane(const LockAndKeyLane&) = delete;
  LockAndKeyLane& operator=(const LockAndKeyLane&) = delete;

  // Returns a tagged pointer (strip() before raw access), or nullptr when
  // the underlying allocator refuses.
  [[nodiscard]] void* alloc(std::size_t size, SiteId site = 0);

  // Key-vs-lock checked free. A stale key raises a kTagMismatch report and
  // a pointer that is not one of this lane's slots (interior, misaligned or
  // foreign) a kInvalidFree report, before any header read, through
  // FaultManager::raise_software — same disposition as a hardware trap.
  void free(void* tagged, SiteId site = 0);

  // --- static access protocol (the guarded interpreter / harness side) ---
  // The checks are static because a slot header is self-describing: the
  // mediator of a load/store knows only the pointer, not the owning lane.

  [[nodiscard]] static bool is_tagged(std::uint64_t addr) noexcept {
    return ((addr >> kTagShift) & kTagMask) != 0;
  }
  [[nodiscard]] static void* strip(std::uint64_t addr) noexcept {
    return reinterpret_cast<void*>(addr &
                                   ~(kTagMask << kTagShift));
  }

  // Load/store gate: verifies the pointer's key against the slot's lock and
  // returns the stripped payload address. On mismatch (stale pointer, or a
  // slot whose lane died) raises a kTagMismatch report — with a probe armed
  // (catch_dangling) that unwinds, otherwise the process aborts, exactly
  // like an MMU trap. `addr` must satisfy is_tagged().
  [[nodiscard]] static void* check_access(std::uint64_t addr);

  // Oracle introspection (src/fuzz): does the pointer's key currently match
  // its slot's lock? True for live objects — and, after a generation wrap,
  // for stale pointers inside the tag reuse window (the documented
  // precision hole the oracle mirrors). Never raises.
  [[nodiscard]] static bool tag_matches(std::uint64_t addr) noexcept;

  // Access-path mismatches detected by check_access (process-wide; the
  // free-path ones are in GuardStats::tag_mismatches per engine).
  [[nodiscard]] static std::uint64_t access_mismatches() noexcept;

  [[nodiscard]] unsigned tag_bits() const noexcept { return tag_bits_; }

 private:
  alloc::MallocLike& under_;
  GuardCounters& stats_;
  unsigned tag_bits_;
  std::uint64_t max_gen_;

  std::mutex mu_;
  // capacity -> recycled payload addresses (untagged). Slots never leave
  // the lane while it lives; that is what keeps stale locks checkable.
  std::map<std::size_t, std::vector<void*>> freelists_;
  // Every payload this lane ever carved: free() admits only these.
  std::unordered_set<void*> blocks_;
};

}  // namespace dpg::core
