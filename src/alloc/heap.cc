#include "alloc/heap.h"

#include <sys/mman.h>

#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "obs/metrics.h"
#include "vm/vm_stats.h"

namespace dpg::alloc {

namespace {

std::atomic<std::uint64_t> g_heap_lock_contended{0};

}  // namespace

void HeapLock::lock() noexcept {
  if (pthread_mutex_trylock(&mu_) == 0) return;
  g_heap_lock_contended.fetch_add(1, std::memory_order_relaxed);
  pthread_mutex_lock(&mu_);
}

MmapSource::~MmapSource() {
  freelist_.drain([](vm::PageRange r) {
    munmap(reinterpret_cast<void*>(r.base), r.length);
  });
}

vm::PageRange MmapSource::obtain(std::size_t bytes) {
  if (auto reused = freelist_.take(bytes)) return reused->range;
  const std::size_t span = vm::page_up(bytes);
  void* p = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  vm::syscall_counters().mmap.fetch_add(1, std::memory_order_relaxed);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  mapped_bytes_ += span;
  return vm::PageRange{vm::addr(p), span};
}

SegregatedHeap::SegregatedHeap(CanonicalSource& source) : source_(source) {
  static const bool registered = obs::register_counter(
      "dpg_heap_lock_contended", &g_heap_lock_contended);
  (void)registered;
  // Payload capacities. Block stride = capacity + header; strides chosen so a
  // whole number of blocks fits a 4-page span without pathological waste.
  for (std::size_t cap : {16u, 32u, 48u, 64u, 96u, 128u, 192u, 256u, 384u,
                          512u, 768u, 1024u, 1520u, 2032u, 4080u}) {
    class_sizes_.push_back(cap);
  }
  free_lists_.assign(class_sizes_.size(), nullptr);
}

void* SegregatedHeap::malloc(std::size_t size) {
  if (size == 0) size = 1;
  std::lock_guard lock(mu_);
  stats_.allocations++;
  stats_.bytes_requested += size;
  stats_.live_objects++;
  if (size <= kMaxSmall) {
    for (std::size_t cls = 0; cls < class_sizes_.size(); ++cls) {
      if (size <= class_sizes_[cls]) return alloc_small(size, cls);
    }
  }
  return alloc_large(size);
}

void* SegregatedHeap::alloc_small(std::size_t size, std::size_t cls) {
  if (free_lists_[cls] == nullptr) carve_span(cls);
  FreeBlock* block = free_lists_[cls];
  free_lists_[cls] = block->next;
  auto* header = reinterpret_cast<BlockHeader*>(block);
  header->payload_size = size;
  header->magic = kMagicLive;
  header->size_class = static_cast<std::uint32_t>(cls);
  return reinterpret_cast<std::byte*>(header) + kHeaderSize;
}

void SegregatedHeap::carve_span(std::size_t cls) {
  const std::size_t stride = class_sizes_[cls] + kHeaderSize;
  const vm::PageRange span = source_.obtain(kSpanPages * vm::kPageSize);
  stats_.spans_created++;
  const std::size_t count = span.length / stride;
  assert(count > 0);
  // Blocks go out page-interleaved: the k-th allocation from a fresh span
  // lands on page k mod kSpanPages, so a class that cycles through a handful
  // of blocks spreads them over the span's pages instead of packing them
  // onto one. first[p] is the first block starting on page p.
  std::array<std::size_t, kSpanPages + 1> first{};
  for (std::size_t p = 0; p < kSpanPages; ++p) {
    first[p] = (p * vm::kPageSize + stride - 1) / stride;
  }
  first[kSpanPages] = count;
  FreeBlock** link = &free_lists_[cls];  // empty: carving refills a dry list
  for (std::size_t rank = 0;; ++rank) {
    bool any = false;
    for (std::size_t p = 0; p < kSpanPages; ++p) {
      const std::size_t i = first[p] + rank;
      if (i >= first[p + 1]) continue;
      auto* block = reinterpret_cast<FreeBlock*>(span.base + i * stride);
      *link = block;
      link = &block->next;
      any = true;
    }
    if (!any) break;
  }
  *link = nullptr;
}

void* SegregatedHeap::alloc_large(std::size_t size) {
  const std::size_t need = vm::page_up(size + kHeaderSize);
  const std::size_t pages = need / vm::kPageSize;
  vm::PageRange run{};
  if (auto it = run_cache_.find(pages);
      it != run_cache_.end() && !it->second.empty()) {
    run = it->second.back();
    it->second.pop_back();
  } else {
    run = source_.obtain(need);
  }
  auto* header = reinterpret_cast<BlockHeader*>(run.base);
  header->payload_size = size;
  header->magic = kMagicLive;
  header->size_class = kLargeClass;
  return reinterpret_cast<std::byte*>(run.base) + kHeaderSize;
}

void SegregatedHeap::free(void* p) {
  if (p == nullptr) return;
  std::lock_guard lock(mu_);
  BlockHeader* header = header_of(p);
  if (header->magic != kMagicLive) {
    // Double or invalid free against the allocator's own metadata. The guard
    // layer detects these earlier with full diagnostics; the bare heap keeps
    // a hard check so it can also be used standalone.
    throw std::logic_error("SegregatedHeap::free: invalid or double free");
  }
  stats_.frees++;
  stats_.live_objects--;
  header->magic = kMagicFree;
  if (header->size_class == kLargeClass) {
    const std::size_t pages =
        vm::pages_for(static_cast<std::size_t>(header->payload_size) + kHeaderSize);
    run_cache_[pages].push_back(
        vm::PageRange{vm::addr(header), pages * vm::kPageSize});
    return;
  }
  auto* block = reinterpret_cast<FreeBlock*>(header);
  block->next = free_lists_[header->size_class];
  free_lists_[header->size_class] = block;
}

std::size_t SegregatedHeap::size_of(const void* p) const {
  const BlockHeader* header = header_of(p);
  return static_cast<std::size_t>(header->payload_size);
}

HeapStats SegregatedHeap::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace dpg::alloc
