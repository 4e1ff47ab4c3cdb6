#include "core/lockandkey.h"

#include <atomic>
#include <mutex>

#include "core/fault_manager.h"
#include "obs/metrics.h"

namespace dpg::core {

namespace {

// Aperiodic (golden-ratio) constant: no byte-shifted overlay of header
// words can reconstruct it, so an interior pointer's pseudo-header fails
// the magic check deterministically.
constexpr std::uint64_t kMagic = 0x9E3779B97F4A7C15ULL;

struct SlotHeader {
  std::uint64_t magic;
  std::uint64_t capacity;
  std::uint64_t sites;  // alloc_site | last_free_site << 32
  std::uint64_t generation;
};
static_assert(sizeof(SlotHeader) == LockAndKeyLane::kHeaderBytes);

SlotHeader* header_of(void* payload) noexcept {
  return reinterpret_cast<SlotHeader*>(static_cast<char*>(payload) -
                                       LockAndKeyLane::kHeaderBytes);
}

std::uint64_t tag_of(std::uint64_t addr) noexcept {
  return (addr >> LockAndKeyLane::kTagShift) & LockAndKeyLane::kTagMask;
}

std::atomic<std::uint64_t> g_access_mismatches{0};

DanglingReport stale_report(std::uint64_t addr, const SlotHeader* hdr) {
  DanglingReport report;
  report.kind = AccessKind::kTagMismatch;
  report.fault_address = static_cast<std::uintptr_t>(addr);
  // The stale pointer itself is the best object identity the lane has: the
  // slot's header describes the *current* generation's owner, so only the
  // size (a slot property) is copied from it. alloc/free sites stay 0 —
  // claiming another object's sites would misdirect the diagnosis.
  report.object_base = static_cast<std::uintptr_t>(addr);
  report.object_size =
      hdr != nullptr ? static_cast<std::size_t>(hdr->capacity) : 0;
  return report;
}

}  // namespace

LockAndKeyLane::LockAndKeyLane(alloc::MallocLike& under, GuardCounters& stats,
                               unsigned tag_bits)
    : under_(under),
      stats_(stats),
      tag_bits_(tag_bits < 2        ? 2
                : tag_bits > kMaxTagBits ? kMaxTagBits
                                         : tag_bits),
      max_gen_((std::uint64_t{1} << tag_bits_) - 1) {
  // Register the process-wide access-mismatch counter once (the registry
  // does not dedupe names); per-lane counters live in `stats`.
  static std::once_flag once;
  std::call_once(once, [] {
    obs::register_counter("dpg_tag_access_mismatches", &g_access_mismatches);
  });
}

LockAndKeyLane::~LockAndKeyLane() {
  // Recycled slots go back to the underlying allocator; live slots are the
  // owner's problem (a pool destroy reclaims their extents wholesale).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [cap, list] : freelists_) {
    for (void* payload : list) {
      under_.free(static_cast<char*>(payload) - kHeaderBytes);
    }
  }
}

void* LockAndKeyLane::alloc(std::size_t size, SiteId site) {
  const std::size_t cap = size == 0 ? 8 : (size + 7) & ~std::size_t{7};
  void* payload = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = freelists_.find(cap);
    if (it != freelists_.end() && !it->second.empty()) {
      payload = it->second.back();
      it->second.pop_back();
    }
  }
  if (payload == nullptr) {
    void* block = under_.malloc(kHeaderBytes + cap);
    if (block == nullptr) return nullptr;
    payload = static_cast<char*>(block) + kHeaderBytes;
    SlotHeader* hdr = header_of(payload);
    hdr->magic = kMagic;
    hdr->capacity = cap;
    hdr->generation = 1;  // locks start at 1; 0 never a valid key
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.insert(payload);
  }
  SlotHeader* hdr = header_of(payload);
  hdr->sites = site;  // last free site cleared: the slot has a new owner
  stats_.tagged_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t addr = reinterpret_cast<std::uint64_t>(payload) |
                             (hdr->generation << kTagShift);
  return reinterpret_cast<void*>(addr);
}

void LockAndKeyLane::free(void* tagged, SiteId site) {
  const auto addr = reinterpret_cast<std::uint64_t>(tagged);
  const std::uint64_t key = tag_of(addr);
  void* payload = strip(addr);
  // Validate before the first header read: a misaligned or foreign pointer
  // may sit on an unmapped page, and only the lane's own slots have one.
  bool known = false;
  if (key != 0 && addr % alignof(SlotHeader) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    known = blocks_.count(payload) != 0;
  }
  if (!known) {
    // Interior or foreign pointer: no slot header. Same verdict as the page
    // lane's unknown-pointer free.
    stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report;
    report.kind = AccessKind::kInvalidFree;
    report.fault_address = static_cast<std::uintptr_t>(addr);
    report.free_site = site;
    FaultManager::instance().raise_software(report);
  }
  SlotHeader* hdr = header_of(payload);
  if (hdr->generation != key) {
    // Stale free: double free or use-after-free of the slot's previous
    // generation. One report kind — the lane cannot tell the two apart.
    stats_.tag_mismatches.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report = stale_report(addr, hdr);
    report.kind = AccessKind::kTagMismatch;
    report.free_site = site;
    FaultManager::instance().raise_software(report);
  }
  hdr->sites |= static_cast<std::uint64_t>(site) << 32;
  hdr->generation = hdr->generation == max_gen_ ? 1 : hdr->generation + 1;
  stats_.tagged_frees.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  freelists_[static_cast<std::size_t>(hdr->capacity)].push_back(payload);
}

void* LockAndKeyLane::check_access(std::uint64_t addr) {
  void* payload = strip(addr);
  const SlotHeader* hdr = header_of(payload);
  if (hdr->magic == kMagic && hdr->generation == tag_of(addr)) {
    return payload;
  }
  // Key/lock disagreement (or the slot's lane is gone): a dangling use,
  // reported synchronously — the software twin of the MMU trap.
  g_access_mismatches.fetch_add(1, std::memory_order_relaxed);
  FaultManager::instance().raise_software(
      stale_report(addr, hdr->magic == kMagic ? hdr : nullptr));
}

bool LockAndKeyLane::tag_matches(std::uint64_t addr) noexcept {
  const SlotHeader* hdr = header_of(strip(addr));
  return hdr->magic == kMagic && hdr->generation == tag_of(addr);
}

std::uint64_t LockAndKeyLane::access_mismatches() noexcept {
  return g_access_mismatches.load(std::memory_order_relaxed);
}

}  // namespace dpg::core
