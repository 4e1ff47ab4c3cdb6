// Flight recorder — lock-free per-thread event rings for the guard runtime.
//
// The paper's overhead story lives entirely on the malloc/free/mprotect path;
// when a production process faults on a dangling use, the question is always
// "what led up to this?". Each thread records fixed-size events (alloc, free,
// shadow-map, mprotect-batch, VA-reclaim, fault, pool lifetime) into a small
// ring; the last N events are attached to every DanglingReport and dumped by
// the metrics exporter, so a single crash is self-diagnosing.
//
// Concurrency contract (TSan-clean by construction):
//   - every ring word is a relaxed std::atomic<uint64_t>; the head counter is
//     bumped with fetch_add, so even two threads sharing a ring (the overflow
//     case when more than kMaxRings threads exist) claim distinct slots;
//   - readers (exporter, fault path, another thread) acquire-load the head
//     and read slot words relaxed. A reader racing the writer on the *oldest*
//     slot may observe a half-overwritten record; flight-recorder consumers
//     tolerate one torn record at the tail, and all accesses stay atomic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dpg::obs {

enum class EventKind : std::uint16_t {
  kNone = 0,
  kAlloc,         // addr = user pointer, arg = requested size
  kFree,          // addr = user pointer, arg = object size
  kShadowMap,     // addr = shadow base,  arg = span bytes
  kProtectBatch,  // addr = first span,   arg = frees flushed in the batch
  kVaReclaim,     // addr = span base,    arg = pages recycled
  kFault,         // addr = fault addr,   arg = AccessKind
  kPoolInit,      // addr = pool scope
  kPoolDestroy,   // addr = pool scope
  kDegrade,       // addr = new GuardMode, arg = old GuardMode
  kMagazineMap,   // addr = magazine shadow base, arg = slot pages mapped
  kRemoteDrain,   // addr = shard id, arg = remote frees drained
};

[[nodiscard]] constexpr const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kAlloc: return "alloc";
    case EventKind::kFree: return "free";
    case EventKind::kShadowMap: return "shadow-map";
    case EventKind::kProtectBatch: return "protect-batch";
    case EventKind::kVaReclaim: return "va-reclaim";
    case EventKind::kFault: return "fault";
    case EventKind::kPoolInit: return "pool-init";
    case EventKind::kPoolDestroy: return "pool-destroy";
    case EventKind::kDegrade: return "degrade";
    case EventKind::kMagazineMap: return "magazine-map";
    case EventKind::kRemoteDrain: return "remote-drain";
  }
  return "?";
}

// Plain decoded record (what consumers see).
struct TraceEvent {
  std::uint64_t ns = 0;    // CLOCK_MONOTONIC timestamp
  std::uint64_t addr = 0;  // event-specific address (see EventKind)
  std::uint64_t arg = 0;   // event-specific payload (see EventKind)
  std::uint32_t site = 0;  // allocation/free SiteId when known
  std::uint16_t kind = 0;  // EventKind
  std::uint16_t tid = 0;   // small per-process thread index
};

class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 256;  // events; power of two

  void push(EventKind kind, std::uint64_t addr, std::uint64_t arg,
            std::uint32_t site, std::uint16_t tid, std::uint64_t ns) noexcept {
    const std::uint64_t h = head_.fetch_add(1, std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = &words_[(h & (kCapacity - 1)) * kWords];
    w[0].store(ns, std::memory_order_relaxed);
    w[1].store(addr, std::memory_order_relaxed);
    w[2].store(arg, std::memory_order_relaxed);
    const std::uint64_t meta = (static_cast<std::uint64_t>(site) << 32) |
                               (static_cast<std::uint64_t>(kind) << 16) | tid;
    // Release: a reader that acquire-loads head sees this slot complete.
    w[3].store(meta, std::memory_order_release);
  }

  // Copies up to `max` most-recent events into `out`, oldest first.
  // Async-signal-safe. Returns the number written.
  std::size_t capture(TraceEvent* out, std::size_t max) const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    std::uint64_t n = h < kCapacity ? h : kCapacity;
    if (n > max) n = max;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = h - n + i;
      const std::atomic<std::uint64_t>* w =
          &words_[(idx & (kCapacity - 1)) * kWords];
      TraceEvent& e = out[i];
      e.ns = w[0].load(std::memory_order_relaxed);
      e.addr = w[1].load(std::memory_order_relaxed);
      e.arg = w[2].load(std::memory_order_relaxed);
      const std::uint64_t meta = w[3].load(std::memory_order_relaxed);
      e.site = static_cast<std::uint32_t>(meta >> 32);
      e.kind = static_cast<std::uint16_t>((meta >> 16) & 0xFFFF);
      e.tid = static_cast<std::uint16_t>(meta & 0xFFFF);
    }
    return static_cast<std::size_t>(n);
  }

  // Total events ever pushed (not clamped to capacity).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kWords = 4;  // one cache-line-friendly record

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> words_[kCapacity * kWords] = {};
};

}  // namespace dpg::obs
