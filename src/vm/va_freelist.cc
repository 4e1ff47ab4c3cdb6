#include "vm/va_freelist.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

namespace dpg::vm {

namespace {

// Process-wide trim tally across every VaFreeList instance (heaps, pool
// contexts come and go; the fleet counter must survive them).
std::atomic<std::uint64_t> g_va_trims{0};

void register_trim_counter() noexcept {
  static const bool once = [] {
    obs::register_counter("dpg_va_trims", &g_va_trims);
    return true;
  }();
  (void)once;
}

}  // namespace

VaFreeList::VaFreeList() { register_trim_counter(); }

VaFreeList::~VaFreeList() { release_all(); }

void VaFreeList::put(PageRange range, std::size_t offset) {
  assert(page_offset(range.base) == 0);
  assert(range.length % kPageSize == 0);
  if (range.length == 0) return;
  bool over_water = false;
  {
    std::lock_guard lock(mu_);
    buckets_[range.pages()][offset].push_back(range.base);
    bytes_ += range.length;
    ++count_;
    over_water = trim_limit_ != 0 && count_ >= trim_limit_;
    if (over_water) ++trims_;
  }
  // High-water crossing: reuse is not keeping up with donation, and every
  // held range is one VMA against vm.max_map_count. Drain the whole list
  // through the coalescing release path — adjacent ranges merge into a
  // handful of munmap calls, so the trim amortizes to far less than one
  // syscall per range (a retail unmap-per-put here measurably halves
  // multi-thread throughput). Draining while the kernel still has map-slot
  // headroom is the point: at the hard limit even munmap can fail, because
  // unmapping the interior of a VMA must split it.
  if (over_water) {
    g_va_trims.fetch_add(1, std::memory_order_relaxed);
    release_all();
  }
}

void VaFreeList::set_trim_limit(std::size_t ranges) noexcept {
  std::lock_guard lock(mu_);
  trim_limit_ = ranges;
}

std::size_t VaFreeList::trims() const {
  std::lock_guard lock(mu_);
  return trims_;
}

VaFreeList::Held VaFreeList::carve_locked(Buckets::iterator it,
                                          Bucket::iterator bases,
                                          std::size_t want) {
  const std::size_t rest_pages = it->first - want / kPageSize;
  const std::size_t bound = bases->first;
  const std::uintptr_t base = bases->second.back();
  bases->second.pop_back();
  if (bases->second.empty()) it->second.erase(bases);
  if (it->second.empty()) buckets_.erase(it);
  if (rest_pages > 0) {
    buckets_[rest_pages][bound == kUnbound ? kUnbound : bound + want]
        .push_back(base + want);
  } else {
    --count_;
  }
  bytes_ -= want;
  return Held{PageRange{base, want}, bound};
}

std::optional<VaFreeList::Held> VaFreeList::take(std::size_t len,
                                                 std::size_t offset) {
  const std::size_t want = page_up(len);
  const std::size_t want_pages = want / kPageSize;
  std::lock_guard lock(mu_);
  // Exact-size bucket first (the common case: uniform shadow pages).
  const auto exact = buckets_.find(want_pages);
  if (exact != buckets_.end()) {
    for (const std::size_t b : {offset, kUnbound}) {
      if (auto bases = exact->second.find(b); bases != exact->second.end()) {
        return carve_locked(exact, bases, want);
      }
    }
  }
  // Then split the smallest larger unbound range: a range bound elsewhere is
  // spent only once no unbound VA that would do is left.
  for (auto it = buckets_.upper_bound(want_pages); it != buckets_.end();
       ++it) {
    if (auto bases = it->second.find(kUnbound); bases != it->second.end()) {
      return carve_locked(it, bases, want);
    }
  }
  const auto it =
      exact != buckets_.end() ? exact : buckets_.upper_bound(want_pages);
  if (it == buckets_.end()) return std::nullopt;
  return carve_locked(it, it->second.begin(), want);
}

void VaFreeList::set_release_hook(ReleaseHook hook, void* ctx) noexcept {
  std::lock_guard lock(mu_);
  hook_ = hook;
  hook_ctx_ = ctx;
}

std::vector<PageRange> VaFreeList::take_all() {
  std::vector<PageRange> all;
  std::lock_guard lock(mu_);
  all.reserve(count_);
  for (const auto& [pages, bucket] : buckets_) {
    for (const auto& [offset, bases] : bucket) {
      for (std::uintptr_t a : bases) {
        all.push_back(PageRange{a, pages * kPageSize});
      }
    }
  }
  buckets_.clear();
  bytes_ = 0;
  count_ = 0;
  return all;
}

std::size_t VaFreeList::release_all() noexcept {
  ReleaseHook hook = nullptr;
  void* hook_ctx = nullptr;
  {
    std::lock_guard lock(mu_);
    hook = hook_;
    hook_ctx = hook_ctx_;
  }
  std::vector<PageRange> all = take_all();
  if (all.empty()) return 0;
  // Coalesce: pool pages often re-enter the list in allocation order, so
  // sorting and merging adjacent ranges turns thousands of per-object spans
  // into a handful of munmap calls — this path runs when the kernel is
  // already refusing us VMAs, so economy matters.
  std::sort(all.begin(), all.end(),
            [](const PageRange& a, const PageRange& b) {
              return a.base < b.base;
            });
  std::size_t released = 0;
  PageRange run = all.front();
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].base == run.end()) {
      run.length += all[i].length;
      continue;
    }
    sys::unmap(reinterpret_cast<void*>(run.base), run.length);
    released += run.length;
    run = all[i];
  }
  sys::unmap(reinterpret_cast<void*>(run.base), run.length);
  released += run.length;
  if (hook != nullptr) hook(hook_ctx, all.size());
  return released;
}

std::size_t VaFreeList::bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

std::size_t VaFreeList::ranges() const {
  std::lock_guard lock(mu_);
  return count_;
}

}  // namespace dpg::vm
