#include "fuzz/oracle.h"

namespace dpg::fuzz {

const char* outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::kSilent: return "silent";
    case Outcome::kTrap: return "trap";
    case Outcome::kReportDoubleFree: return "double-free-report";
    case Outcome::kReportInvalidFree: return "invalid-free-report";
    case Outcome::kSkipped: return "skipped";
  }
  return "?";
}

const Oracle::MObj* Oracle::find(std::uint32_t id) const {
  const auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

void Oracle::on_alloc(std::uint32_t id, std::uint32_t size, Guardness g,
                      std::uint32_t pool) {
  MObj o;
  o.phase = Phase::kLive;
  o.guard = g;
  o.size = size;
  o.fill = base_fill(id);
  o.pool = pool;
  objects_[id] = o;
}

void Oracle::on_free(std::uint32_t id) {
  const auto it = objects_.find(id);
  if (it != objects_.end()) it->second.phase = Phase::kFreed;
}

std::uint8_t Oracle::on_write(std::uint32_t id) {
  auto& o = objects_.at(id);
  std::uint8_t next = static_cast<std::uint8_t>(o.fill + 13u);
  if (next == 0) next = 1;
  o.fill = next;
  return next;
}

void Oracle::on_pool_destroyed(std::uint32_t pool) {
  for (auto& [id, o] : objects_) {
    if (o.pool == pool) o.phase = Phase::kReleased;
  }
}

namespace {

Prediction skip(const char* why) {
  Prediction p;
  p.execute = false;
  p.why = why;
  return p;
}

Prediction silent(const char* why, bool check_stale = false) {
  Prediction p;
  p.allow_silent = true;
  p.check_stale = check_stale;
  p.why = why;
  return p;
}

Prediction trap(const char* why) {
  Prediction p;
  p.allow_trap = true;
  p.why = why;
  return p;
}

Prediction report_double_free(const char* why) {
  Prediction p;
  p.allow_double_free = true;
  p.why = why;
  return p;
}

Prediction report_invalid_free(const char* why) {
  Prediction p;
  p.allow_invalid_free = true;
  p.why = why;
  return p;
}

}  // namespace

Prediction Oracle::predict(const Op& op, bool revocation_applied) const {
  switch (op.kind) {
    case OpKind::kMalloc:
    case OpKind::kFlush:
    case OpKind::kPoolCreate:
    case OpKind::kPoolDestroy:
      // Allocation and lifecycle management never report; allocation failure
      // (nullptr) is a harness error, not an outcome.
      return silent("lifecycle op");
    default:
      break;
  }

  const MObj* o = find(op.obj);
  if (o == nullptr) return skip("unknown object (shrunken malloc)");
  if (o->phase == Phase::kReleased) {
    // Pool-destroyed: the shadow VA may already back a new object; touching
    // it proves nothing either way.
    return skip("released object");
  }
  const bool live = o->phase == Phase::kLive;

  // kUafRead on a live object degrades to a clean read, kDoubleFree on a live
  // object to a clean free, etc. — state-directed semantics (trace.h) keep
  // shrunken traces meaningful.
  switch (op.kind) {
    case OpKind::kRead:
    case OpKind::kUafRead:
      if (live) return silent("live read", /*check_stale=*/true);
      switch (o->guard) {
        case Guardness::kGuarded:
          if (cfg_.oracle_bug) {
            // Deliberately broken: claims queued revocations already trap.
            return trap("freed guarded read [buggy oracle]");
          }
          return revocation_applied
                     ? trap("freed guarded read, revocation applied")
                     : silent("freed guarded read inside revocation window",
                              /*check_stale=*/true);
        case Guardness::kSampledFast:
          // The ledger free parked the block in the delayed-reuse
          // quarantine, so the read is silent AND observes the stale fill —
          // never another owner's bytes, never a trap.
          return silent("freed sampled fast-path read", /*check_stale=*/true);
      }
      break;

    case OpKind::kWrite:
    case OpKind::kUafWrite:
      if (live) return silent("live write");
      switch (o->guard) {
        case Guardness::kGuarded:
          if (cfg_.oracle_bug) return trap("freed guarded write [buggy oracle]");
          return revocation_applied
                     ? trap("freed guarded write, revocation applied")
                     : silent("freed guarded write inside revocation window");
        case Guardness::kSampledFast:
          // Quarantined block: writing cannot corrupt a new owner.
          return silent("freed sampled fast-path write");
      }
      break;

    case OpKind::kFree:
    case OpKind::kDoubleFree:
      if (live) return silent("live free");
      switch (o->guard) {
        case Guardness::kGuarded:
          // The kLive->kFreed CAS makes this exact in EVERY config: batched,
          // remote, mid-window — the report never waits for the mprotect.
          return report_double_free("guarded double free");
        case Guardness::kSampledFast:
          // The ledger's freed entry makes this double free exact — report,
          // never absorb.
          return report_double_free("sampled fast-path double free");
      }
      break;

    case OpKind::kInvalidFree:
      if (!live) return skip("interior free needs a live object");
      if (o->guard == Guardness::kSampledFast) {
        // Misses the ledger (no object starts there) and the registry (a
        // canonical address is never a shadow page).
        return report_invalid_free("interior pointer free (fast path)");
      }
      return report_invalid_free("interior pointer free");

    case OpKind::kRealloc:
      if (!live) return skip("realloc needs a live object");
      return silent("realloc moves");

    default:
      break;
  }
  return skip("unreachable");
}

}  // namespace dpg::fuzz
