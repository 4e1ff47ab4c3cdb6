#include "core/gc_scan.h"

#include <unordered_map>

#include "core/registry.h"

namespace dpg::core {

void ConservativeScanner::add_root(const void* base, std::size_t length) {
  roots_.push_back(Root{base, length});
}

namespace {

// A freed span under consideration: its owner reclaims it unless a scanned
// word points into it.
struct Candidate {
  ObjectRecord* rec;
  ShadowEngine* owner;
  bool marked = false;
};
using Candidates = std::unordered_map<const ObjectRecord*, Candidate>;

// Scans [base, base+length) for word-aligned values the registry resolves to
// a candidate (any page of its span, so interior pointers count) and marks it.
void scan_range(const void* base, std::size_t length, Candidates& candidates) {
  const ShadowRegistry& registry = ShadowRegistry::global();
  const auto start = vm::addr(base);
  const std::uintptr_t aligned = (start + sizeof(std::uintptr_t) - 1) &
                                 ~(sizeof(std::uintptr_t) - 1);
  const std::uintptr_t end = start + length;
  for (std::uintptr_t a = aligned; a + sizeof(std::uintptr_t) <= end;
       a += sizeof(std::uintptr_t)) {
    const std::uintptr_t word = *reinterpret_cast<const std::uintptr_t*>(a);
    const ObjectRecord* rec = registry.lookup(word);
    if (rec == nullptr) continue;
    const auto it = candidates.find(rec);
    if (it != candidates.end()) it->second.marked = true;
  }
}

}  // namespace

ConservativeScanner::Result ConservativeScanner::collect(
    std::span<ShadowEngine* const> engines) {
  Result result;

  Candidates candidates;
  for (ShadowEngine* engine : engines) {
    for (ObjectRecord* rec : engine->freed_records()) {
      candidates.emplace(rec, Candidate{rec, engine});
      result.freed_candidates++;
    }
  }
  if (candidates.empty()) return result;

  // Mark from explicit roots.
  for (const Root& root : roots_) {
    scan_range(root.base, root.length, candidates);
  }
  // Mark from the payloads of all live guarded objects. One pass suffices:
  // freed memory is unreadable, so a chain of references to a freed span must
  // end in live memory or a root, all of which we scan.
  for (ShadowEngine* engine : engines) {
    for (const ObjectRecord* rec : engine->live_records()) {
      scan_range(reinterpret_cast<const void*>(rec->user_shadow),
                 rec->user_size, candidates);
    }
  }

  for (auto& [key, c] : candidates) {
    if (c.marked) {
      result.retained++;
      continue;
    }
    result.bytes_reclaimed += c.rec->span_length;
    c.owner->reclaim(c.rec);
    result.reclaimed++;
  }
  return result;
}

}  // namespace dpg::core
