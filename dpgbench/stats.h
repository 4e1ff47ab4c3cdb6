// Measurement helpers shared by the benchmark binaries: a monotonic clock
// that matches Python's time.monotonic_ns() (so the orchestrator can time
// set-up across a process boundary), a bounded reservoir with exact
// percentiles, a bounded in-memory span log, and a tiny JSON writer.
//
// Header-only and free of dpguard includes: mt_server links nothing from the
// library it measures.
#pragma once

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace dpgbench {

inline std::uint64_t now_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// xorshift64*: deterministic inputs from the workload seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}
  std::uint64_t next() noexcept {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1Dull;
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t s_;
};

// Uniform sample of at most `cap` values (Vitter's algorithm R).
// Percentiles are exact over the sample, never bucketed, so two runs never
// read the same by quantisation.
class Reservoir {
 public:
  Reservoir() = default;
  explicit Reservoir(std::size_t cap) : cap_(cap) {}

  void add(std::uint64_t v) {
    ++count_;
    if (sample_.size() < cap_) {
      sample_.push_back(v);
      return;
    }
    const std::uint64_t j = rng_.below(count_);
    if (j < cap_) sample_[j] = v;
  }

  // Pools another reservoir's sample (per-thread reservoirs of similar size).
  void merge(const Reservoir& o) {
    count_ += o.count_;
    sample_.insert(sample_.end(), o.sample_.begin(), o.sample_.end());
  }

  // Nearest-rank percentile of the sample, q in [0, 1]; 0 when empty.
  [[nodiscard]] double pct(double q) const {
    if (sample_.empty()) return 0;
    std::vector<std::uint64_t> s = sample_;
    const std::size_t k = std::min(
        s.size() - 1, static_cast<std::size_t>(q * static_cast<double>(s.size())));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k), s.end());
    return static_cast<double>(s[k]);
  }

 private:
  std::size_t cap_ = std::size_t{1} << 16;
  std::uint64_t count_ = 0;  // values offered so far
  std::vector<std::uint64_t> sample_;
  Rng rng_{0x5EED};
};

// One traced interval. `parent` is the op the span belongs to (0 = none).
struct Span {
  std::uint32_t kind;
  std::uint32_t parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

// Spans kept in memory and written out once, when the program ends. Bounded:
// past `cap` spans the log stops growing (the aggregates that feed the
// metrics are kept separately and see every span).
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = std::size_t{1} << 18) : cap_(cap) {}
  void add(std::uint32_t kind, std::uint32_t parent, std::uint64_t s,
           std::uint64_t e) {
    if (spans_.size() < cap_) spans_.push_back(Span{kind, parent, s, e});
  }
  void append(const SpanLog& o) {
    for (const Span& s : o.spans_) {
      if (spans_.size() >= cap_) break;
      spans_.push_back(s);
    }
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  // CSV: kind,parent,start_ns,end_ns. Returns false when the file cannot be
  // written.
  bool write_csv(const std::string& path, const char* const* kind_names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("kind,parent,start_ns,end_ns\n", f);
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%u,%llu,%llu\n", kind_names[s.kind], s.parent,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Flat JSON object writer: {"key": number, ...}.
class JsonOut {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += buf;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s}\n", body_.c_str());
    return std::fclose(f) == 0;
  }

 private:
  std::string body_;
};

// Lines of /proc/self/maps (= VMAs), read with raw syscalls so the count
// neither allocates nor takes a heap lock.
inline long count_vmas() {
  const int fd = ::open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  char buf[1 << 16];
  long lines = 0;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) lines += buf[i] == '\n';
  }
  ::close(fd);
  return lines;
}

// Peak resident set (VmHWM) in KiB, or -1.
inline long vm_hwm_kib() {
  const int fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  char buf[8192];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return -1;
  buf[n] = '\0';
  const char* p = std::strstr(buf, "VmHWM:");
  if (p == nullptr) return -1;
  return std::strtol(p + 6, nullptr, 10);
}

}  // namespace dpgbench
