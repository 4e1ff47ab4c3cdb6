// Process-wide counters for the memory-management syscalls dpguard issues.
//
// Table 1 / Table 3 of the paper break total overhead into a system-call
// component and a TLB component; the "PA + dummy syscalls" column isolates
// the former. These counters let the bench harness report exactly how many
// mmap/mprotect/madvise/mremap calls each configuration performed.
//
// Every counter sits on its own cache line: this struct is a single
// process-wide instance bumped from every thread's alloc/free path, and with
// the thread-sharded engines the syscall shim is the last piece of state all
// shards still share — unpadded, the line holding `mmap` and `mprotect`
// ping-pongs between cores on every guarded operation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace dpg::vm {

// GCC warns on any use of hardware_destructive_interference_size because its
// value is ABI-affecting under mixed -mtune flags; here it only pads private
// counters, so the portability concern doesn't apply.
#ifdef __cpp_lib_hardware_interference_size
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
inline constexpr std::size_t kCacheLine =
    std::hardware_destructive_interference_size;
#pragma GCC diagnostic pop
#else
inline constexpr std::size_t kCacheLine = 64;
#endif

struct SyscallCounters {
  alignas(kCacheLine) std::atomic<std::uint64_t> mmap{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> munmap{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> mprotect{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> mremap{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> ftruncate{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> madvise{0};

  [[nodiscard]] std::uint64_t total() const noexcept {
    return mmap.load(std::memory_order_relaxed) +
           munmap.load(std::memory_order_relaxed) +
           mprotect.load(std::memory_order_relaxed) +
           mremap.load(std::memory_order_relaxed) +
           ftruncate.load(std::memory_order_relaxed) +
           madvise.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    mmap = 0;
    munmap = 0;
    mprotect = 0;
    mremap = 0;
    ftruncate = 0;
    madvise = 0;
  }
};

// Single process-wide instance; cheap relaxed increments on the alloc path.
SyscallCounters& syscall_counters() noexcept;

}  // namespace dpg::vm
