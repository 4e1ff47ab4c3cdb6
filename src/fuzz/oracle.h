// Reference oracle — the pure model side of the differential fuzzer.
//
// The oracle maintains the abstract state the paper's exactness claim is
// stated over: every object is live, freed, or released, and carries the
// *guardedness* the real stack gave it at allocation time (guarded with a
// shadow alias, or ledgered on the fast path). From that state it predicts,
// for each trace op, the exact set of permitted outcomes:
//
//   rung kFullGuard   a freed object's use MUST trap once its revocation is
//                     applied, MUST silently read the stale (unreused) fill
//                     while the free still sits in a revocation queue or on
//                     a remote-free list; a double free MUST report (the
//                     kLive->kFreed CAS is window-independent); an interior
//                     free of a live object MUST report invalid-free.
//   kSampled          the 1-in-N winners carry a shadow alias and behave
//                     exactly like kFullGuard objects; the unsampled rest
//                     take the ledgered fast path: dangling reads/writes are
//                     silent (the ledger free quarantines the block, so reads
//                     still observe the stale fill) but a double free and an
//                     interior free MUST report — the ledger keeps both
//                     exact.
//   kQuarantineOnly   the sampled rung with no winners: every allocation is
//                     a fast-path object with exactly the promises above —
//                     detection of uses suspended, never falsified.
//
// Whether a guarded free's revocation has been applied is not modelled — it
// is *introspected* from the real stack (ShadowEngine::revocation_applied)
// at probe time, which is deterministic under the serialized executor. This
// collapses the only may-window in the spec to an exact verdict per op. The
// `oracle_bug` config flag suppresses exactly that collapse (queued
// revocations are predicted as applied), providing the known-bad oracle the
// shrink/replay acceptance demo drives.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fuzz/trace.h"

namespace dpg::fuzz {

// Guardedness the real stack assigned to an allocation (executor feedback:
// registry record present -> kGuarded; else kSampledFast).
enum class Guardness : std::uint8_t {
  kGuarded,
  // No shadow alias (a sampled-rung loser, or any allocation on the bottom
  // rung): canonical pointer + exact alloc/free ledger (core/sampled.h). The
  // sampled WINNERS classify as kGuarded — the per-allocation decision is
  // introspected from the stack (registry record present), never
  // re-modelled, so the oracle stays exact whatever the sampling pattern was.
  kSampledFast,
};

enum class Phase : std::uint8_t { kLive, kFreed, kReleased };

// What actually happened when the executor ran an op.
enum class Outcome : std::uint8_t {
  kSilent,             // completed, no report
  kTrap,               // hardware trap (or software access report)
  kReportDoubleFree,   // software report, AccessKind::kFree
  kReportInvalidFree,  // software report, AccessKind::kInvalidFree
  kSkipped,            // executor did not run the op (predicted.execute=false)
};

[[nodiscard]] const char* outcome_name(Outcome o) noexcept;

// Exact permitted-outcome set for one op. Exactly one of the allow_* flags is
// set for every executed op — the oracle never answers "either way".
struct Prediction {
  bool execute = true;
  bool allow_silent = false;
  bool allow_trap = false;
  bool allow_double_free = false;
  bool allow_invalid_free = false;
  // With allow_silent on a read: the byte read MUST equal fill (stale-but-
  // unreused for freed objects — the revoked-then-reused detector).
  bool check_stale = false;
  const char* why = "";

  [[nodiscard]] bool permits(Outcome o) const noexcept {
    switch (o) {
      case Outcome::kSilent: return allow_silent;
      case Outcome::kTrap: return allow_trap;
      case Outcome::kReportDoubleFree: return allow_double_free;
      case Outcome::kReportInvalidFree: return allow_invalid_free;
      case Outcome::kSkipped: return !execute;
    }
    return false;
  }
};

class Oracle {
 public:
  explicit Oracle(const FuzzConfig& cfg) : cfg_(cfg) {}

  struct MObj {
    Phase phase = Phase::kLive;
    Guardness guard = Guardness::kGuarded;
    std::uint32_t size = 0;
    std::uint8_t fill = 0;
    std::uint32_t pool = 0;  // 0 = base pool / heap
  };

  // nullptr when the object was never (successfully) allocated in this run —
  // the executor skips ops on unknown ids (shrinker robustness).
  [[nodiscard]] const MObj* find(std::uint32_t id) const;

  // Every object the model ever saw — the end-of-run exactness sweep walks
  // this (in sorted-id order, for determinism).
  [[nodiscard]] const std::unordered_map<std::uint32_t, MObj>& objects()
      const noexcept {
    return objects_;
  }

  // The exact permitted outcome for `op` given the current model state.
  // `revocation_applied` is the introspected SUT state for the target object
  // (ignored unless the op acts on a freed guarded object).
  [[nodiscard]] Prediction predict(const Op& op, bool revocation_applied) const;

  // --- state advancement (executor feedback) -------------------------------
  // Registers a successful allocation with the guardedness the stack chose.
  void on_alloc(std::uint32_t id, std::uint32_t size, Guardness g,
                std::uint32_t pool);
  void on_free(std::uint32_t id);          // live -> freed
  std::uint8_t on_write(std::uint32_t id); // rotates and returns the new fill
  void on_pool_destroyed(std::uint32_t pool);  // its objects -> released

  // Deterministic per-object base fill byte (never 0).
  [[nodiscard]] static std::uint8_t base_fill(std::uint32_t id) noexcept {
    return static_cast<std::uint8_t>(0x11 + (id * 37u) % 199u);
  }

 private:
  FuzzConfig cfg_;
  std::unordered_map<std::uint32_t, MObj> objects_;
};

}  // namespace dpg::fuzz
