// mt_server — the `mt_server` workload of the dpguard benchmark: a plain
// multi-threaded request loop that links nothing from dpguard. Run it with
// LD_PRELOAD=libdpg_preload.so to measure the interposer at its shipped
// defaults, or without to get the native pass it is compared against.
//
//   mt_server --seed N --threads T --requests R --out result.json
//             [--trace 0|1] [--spans spans.csv] [--latencies lat.bin]
//             [--probes 0|1] [--setup-only]
//   mt_server --probe read|write|double-free|control --seed N
//
// Closed loop, T workers in one long-lived process, R requests each per
// pass. One request: malloc a buffer (a seeded mix of sub-page and 4/8 KiB
// sizes), fill it, then free it; a seeded quarter of the buffers is handed
// over an SPSC ring to the next worker, which checks and frees it (the
// cross-thread free path). Every buffer is checked before its free, and the
// sum of per-buffer tags must equal the sum over the generated inputs.
//
// After set-up the process serves passes on command from stdin (see main),
// so the orchestrator can interleave native and guarded passes without a
// process exit between them.
//
// --probes runs, at the end, one fresh single-thread child of this binary per
// probe kind under the same environment: read, write and double-free
// children must die with the "=== dpguard" report, the control child must
// exit cleanly.
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stats.h"

namespace {

using dpgbench::now_ns;
using dpgbench::Reservoir;

constexpr std::size_t kSubPage[] = {24, 48, 64, 96, 128, 200, 256, 384, 512, 1024, 2048};
constexpr std::size_t kPageSizes[] = {4096, 8192};
constexpr std::uint64_t kMagic = 0xD06B'E4C4'0000'0000ull;

struct Request {
  std::uint32_t size;
  bool handoff;
};

// A buffer's first 16 bytes name its request; the rest is a byte pattern
// derived from them. The freeing thread recomputes and checks both.
struct Header {
  std::uint64_t tag;   // kMagic | thread << 24 | index
  std::uint64_t size;
};

std::uint64_t tag_of(unsigned t, std::uint64_t i) {
  return kMagic | (static_cast<std::uint64_t>(t) << 24) | i;
}
unsigned char fill_byte(std::uint64_t tag) {
  return static_cast<unsigned char>((tag * 0x9E3779B97F4A7C15ull) >> 56);
}
std::uint64_t mix(std::uint64_t tag) {
  return (tag ^ (tag >> 29)) * 0xBF58476D1CE4E5B9ull;
}

std::vector<Request> make_inputs(std::uint64_t seed, unsigned t, std::uint64_t n) {
  dpgbench::Rng rng(seed * 0x100000001B3ull + t + 1);
  std::vector<Request> v(n);
  for (Request& r : v) {
    const std::uint64_t x = rng.next();
    r.size = static_cast<std::uint32_t>(
        (x & 1) != 0 ? kPageSizes[(x >> 1) % std::size(kPageSizes)]
                     : kSubPage[(x >> 8) % std::size(kSubPage)]);
    r.handoff = ((x >> 32) & 3) == 0;
  }
  return v;
}

struct alignas(64) Ring {
  static constexpr std::size_t kCap = 1024;
  std::atomic<std::size_t> head{0};
  std::atomic<std::size_t> tail{0};
  void* slots[kCap] = {};

  bool push(void* p) {
    const std::size_t t = tail.load(std::memory_order_relaxed);
    if (t - head.load(std::memory_order_acquire) == kCap) return false;
    slots[t % kCap] = p;
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
  void* pop() {
    const std::size_t h = head.load(std::memory_order_relaxed);
    if (h == tail.load(std::memory_order_acquire)) return nullptr;
    void* p = slots[h % kCap];
    head.store(h + 1, std::memory_order_release);
    return p;
  }
};

enum SpanKind : std::uint32_t { kOp, kMalloc, kFree, kKinds };
constexpr const char* kSpanNames[kKinds] = {"op", "malloc", "free"};

struct Worker {
  std::vector<Request> inputs;
  std::vector<std::uint32_t> lat_ns;  // every request's latency
  std::uint64_t checksum = 0;
  std::uint64_t bad = 0;    // corrupted buffers
  std::uint64_t nulls = 0;  // failed mallocs
  std::uint64_t expected = 0;
  // Traced.
  Reservoir malloc_ns, free_ns, self_ns;
  double span_ns = 0, parts_ns = 0;
  dpgbench::SpanLog log{std::size_t{1} << 16};
};

bool g_trace = false;
bool g_record_lat = false;

// Checks the buffer and frees it; returns the free's duration (0 untraced).
std::uint64_t check_and_free(Worker& w, void* p) {
  Header h;
  std::memcpy(&h, p, sizeof h);
  const auto* bytes = static_cast<const unsigned char*>(p);
  const unsigned char b = fill_byte(h.tag);
  if ((h.tag & 0xFFFF'FFFF'0000'0000ull) != kMagic || h.size < sizeof h ||
      bytes[sizeof h] != b || bytes[h.size - 1] != b) {
    ++w.bad;
  } else {
    w.checksum += mix(h.tag);
  }
  if (!g_trace) {
    std::free(p);
    return 0;
  }
  const std::uint64_t s = now_ns();
  std::free(p);
  const std::uint64_t e = now_ns();
  w.free_ns.add(e - s);
  return e - s;
}

// Rep barrier: the main thread opens rep r by setting `open` to r (kQuit
// ends the workers); each worker bumps `done` when it has finished that rep.
// Both sides block rather than spin, so an idle process takes no CPU.
struct Reps {
  static constexpr unsigned kQuit = ~0u;
  std::mutex mu;
  std::condition_variable cv;
  unsigned open = 0;  // guarded by mu
  unsigned done = 0;  // guarded by mu
};

void run_requests(Worker& w, unsigned t, Ring& inbox, Ring& outbox) {
  const std::uint64_t n = w.inputs.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request r = w.inputs[i];
    const std::uint64_t t0 = now_ns();
    std::uint64_t child = 0;
    void* p = std::malloc(r.size);
    if (g_trace) {
      const std::uint64_t d = now_ns() - t0;
      w.malloc_ns.add(d);
      w.log.add(kMalloc, static_cast<std::uint32_t>(i), t0, t0 + d);
      child += d;
    }
    if (p == nullptr) {
      ++w.nulls;
    } else {
      const Header h{tag_of(t, i), r.size};
      std::memcpy(p, &h, sizeof h);
      std::memset(static_cast<char*>(p) + sizeof h, fill_byte(h.tag), r.size - sizeof h);
      w.expected += mix(h.tag);
      if (!r.handoff || !outbox.push(p)) child += check_and_free(w, p);
    }
    while (void* q = inbox.pop()) child += check_and_free(w, q);
    const std::uint64_t t1 = now_ns();
    if (g_record_lat) {
      w.lat_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
    }
    if (g_trace) {
      const std::uint64_t span = t1 - t0;
      const std::uint64_t self = span > child ? span - child : 0;
      w.self_ns.add(self);
      w.span_ns += static_cast<double>(span);
      w.parts_ns += static_cast<double>(self + child);
      w.log.add(kOp, static_cast<std::uint32_t>(i), t0, t1);
    }
  }
}

void worker_loop(Worker& w, unsigned t, Ring& inbox, Ring& outbox, Reps& reps) {
  for (unsigned r = 1;; ++r) {
    {
      std::unique_lock lock(reps.mu);
      reps.cv.wait(lock, [&] { return reps.open >= r; });
      if (reps.open == Reps::kQuit) return;
    }
    run_requests(w, t, inbox, outbox);
    {
      std::lock_guard lock(reps.mu);
      ++reps.done;
    }
    reps.cv.notify_all();
  }
}

// --- probes ------------------------------------------------------------------

// Probe child: some single-thread churn from the seed, then K freed objects
// and one live control; the probe touches one of them and exits 0 if it
// survives.
int run_probe_child(const std::string& kind, std::uint64_t seed) {
  const std::vector<Request> in = make_inputs(seed, 99, 4096);
  for (const Request& r : in) {
    void* p = std::malloc(r.size);
    if (p == nullptr) return 3;
    std::memset(p, 1, r.size);
    std::free(p);
  }
  constexpr int kObjects = 8;
  char* objs[kObjects];
  for (int i = 0; i < kObjects; ++i) {
    objs[i] = static_cast<char*>(std::malloc(in[static_cast<std::size_t>(i)].size));
    if (objs[i] == nullptr) return 3;
    std::memset(objs[i], 0x5A, 16);
  }
  volatile char* victim = objs[seed % kObjects];
  if (kind == "control") {
    const char c = victim[3];
    return c == 0x5A ? 0 : 4;
  }
  for (char* p : objs) std::free(p);
  if (kind == "read") {
    (void)victim[3];
  } else if (kind == "write") {
    victim[3] = 1;
  } else if (kind == "double-free") {
    std::free(const_cast<char*>(victim));
  } else {
    return 2;
  }
  return 0;  // survived: the dangling use went undetected
}

struct ProbeTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t died_reporting = 0;   // freed probes that died with a report
  std::uint64_t control_reports = 0;  // control children that reported
};

// Runs one probe child to completion, returning (died by signal, reported).
std::pair<bool, bool> spawn_probe(const char* kind, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return {false, false};
  const std::string seed_s = std::to_string(seed);
  const pid_t pid = fork();
  if (pid == 0) {
    const int null = open("/dev/null", O_RDWR);
    dup2(null, 0);
    dup2(null, 1);
    dup2(fds[1], 2);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "mt_server", "--probe", kind, "--seed", seed_s.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string err;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      err.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) return {false, false};
  return {WIFSIGNALED(status), err.find("=== dpguard") != std::string::npos};
}

ProbeTally run_probes(std::uint64_t seed) {
  ProbeTally t;
  for (const char* kind : {"read", "write", "double-free"}) {
    const auto [died, reported] = spawn_probe(kind, seed);
    ++t.attempted;
    if (died && reported) {
      ++t.died_reporting;
    } else {
      ++t.failed;
    }
  }
  const auto [died, reported] = spawn_probe("control", seed);
  ++t.attempted;
  if (died || reported) ++t.failed;
  t.control_reports += reported ? 1 : 0;
  return t;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: mt_server --seed N --threads T --requests R --out FILE "
               "[--trace 0|1] [--spans FILE] [--latencies FILE] [--probes 0|1] "
               "[--setup-only]\n"
               "       mt_server --probe read|write|double-free|control --seed N\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1, requests = 0;
  unsigned threads = 0;
  bool setup_only = false, probes = false;
  std::string out, spans, probe, lat_out;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (k == "--seed") seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--threads") threads = static_cast<unsigned>(std::strtoul(val().c_str(), nullptr, 10));
    else if (k == "--requests") requests = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--trace") g_trace = val() == "1";
    else if (k == "--probes") probes = val() == "1";
    else if (k == "--setup-only") setup_only = true;
    else if (k == "--out") out = val();
    else if (k == "--spans") spans = val();
    else if (k == "--latencies") lat_out = val();
    else if (k == "--probe") probe = val();
    else usage();
  }
  if (!probe.empty()) return run_probe_child(probe, seed);
  if (threads == 0 || requests == 0 || out.empty()) usage();
  const bool want_lat = !lat_out.empty();
  const bool want_trace = g_trace;

  // --- set-up: inputs, rings, parked workers ----------------------------------
  std::vector<Worker> workers(threads);
  for (unsigned t = 0; t < threads; ++t) workers[t].inputs = make_inputs(seed, t, requests);
  std::vector<Ring> rings(threads);
  Reps reps;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      worker_loop(workers[t], t, rings[t], rings[(t + 1) % threads], reps);
    });
  }
  unsigned opened = 0;
  // Runs one rep: every worker replays its inputs once. Returns seconds.
  auto rep = [&] {
    const std::uint64_t r0 = now_ns();
    {
      std::unique_lock lock(reps.mu);
      reps.open = ++opened;
      reps.cv.notify_all();
      reps.cv.wait(lock, [&] { return reps.done >= opened * threads; });
    }
    // A producer can leave buffers in a ring after its consumer finished.
    for (unsigned t = 0; t < threads; ++t) {
      while (void* q = rings[t].pop()) check_and_free(workers[t], q);
    }
    return static_cast<double>(now_ns() - r0) * 1e-9;
  };
  auto quit = [&] {
    {
      std::lock_guard lock(reps.mu);
      reps.open = Reps::kQuit;
    }
    reps.cv.notify_all();
    for (std::thread& th : pool) th.join();
  };

  const std::uint64_t first_op_ns = now_ns();
  dpgbench::JsonOut o;
  o.num("first_op_ns", static_cast<double>(first_op_ns));
  if (setup_only) {
    quit();
    return o.write(out) ? 0 : 1;
  }

  // --- serve: one command per stdin line, one JSON reply per stdout line ----
  //   rep K    run K timed reps; reply with the mean rep time
  //   warm K   the same, but latencies and spans are not recorded
  //   census   one unrecorded rep while a side thread samples /proc/self/maps
  //   end      stop, write the result file, run the probes
  // The recording flags change only while the workers are parked; the rep
  // barrier's mutex orders them before the workers' next reads.
  std::uint64_t n = 0;
  std::string cmd;
  char line[64];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    cmd = line;
    const bool timed = cmd.rfind("rep ", 0) == 0;
    g_record_lat = timed && want_lat;
    g_trace = timed && want_trace;
    if (timed || cmd.rfind("warm ", 0) == 0) {
      const unsigned k = static_cast<unsigned>(std::strtoul(cmd.c_str() + cmd.find(' ') + 1, nullptr, 10));
      double total = 0;
      for (unsigned r = 0; r < k; ++r) total += rep();
      n += static_cast<std::uint64_t>(k) * requests * threads;
      std::printf("{\"seconds\":%.9f,\"requests\":%llu}\n", total / k,
                  static_cast<unsigned long long>(requests * threads));
    } else if (cmd.rfind("census", 0) == 0) {
      std::atomic<bool> sampling{true};
      std::atomic<long> vma_max{0};
      std::thread sampler([&] {
        while (sampling.load(std::memory_order_relaxed)) {
          vma_max.store(std::max(vma_max.load(), dpgbench::count_vmas()));
          usleep(20000);
        }
      });
      rep();
      n += requests * threads;
      sampling.store(false);
      sampler.join();
      std::printf("{\"vma_peak\":%ld}\n", vma_max.load());
    } else {
      break;
    }
    std::fflush(stdout);
  }
  quit();

  std::uint64_t checksum = 0, expected = 0, bad = 0, nulls = 0;
  std::vector<std::uint32_t> lat;
  Reservoir malloc_ns, free_ns, self_ns;
  double span_ns = 0, parts_ns = 0;
  dpgbench::SpanLog log;
  for (Worker& w : workers) {
    checksum += w.checksum;
    expected += w.expected;
    bad += w.bad;
    nulls += w.nulls;
    lat.insert(lat.end(), w.lat_ns.begin(), w.lat_ns.end());
    malloc_ns.merge(w.malloc_ns);
    free_ns.merge(w.free_ns);
    self_ns.merge(w.self_ns);
    span_ns += w.span_ns;
    parts_ns += w.parts_ns;
    log.append(w.log);
  }
  if (!lat_out.empty()) {
    // Raw request latencies, native-endian uint32 ns.
    std::FILE* f = std::fopen(lat_out.c_str(), "wb");
    if (f == nullptr || std::fwrite(lat.data(), sizeof lat[0], lat.size(), f) != lat.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "mt_server: cannot write %s\n", lat_out.c_str());
      return 1;
    }
  }
  o.num("requests", static_cast<double>(n));
  o.num("rss_peak_mb", static_cast<double>(dpgbench::vm_hwm_kib()) / 1024.0);
  o.num("bad", static_cast<double>(bad + (checksum != expected ? 1 : 0)));
  o.num("nulls", static_cast<double>(nulls));
  if (want_trace) {
    o.num("interpose.malloc_ns.p50", malloc_ns.pct(0.50));
    o.num("interpose.malloc_ns.p99", malloc_ns.pct(0.99));
    o.num("interpose.free_ns.p50", free_ns.pct(0.50));
    o.num("interpose.free_ns.p99", free_ns.pct(0.99));
    o.num("app.self_ns.p50", self_ns.pct(0.50));
    o.num("waterfall_span_ns", span_ns);
    o.num("waterfall_parts_ns", parts_ns);
    o.num("spans_recorded", static_cast<double>(log.size()));
    if (!spans.empty() && !log.write_csv(spans, kSpanNames)) {
      std::fprintf(stderr, "mt_server: cannot write %s\n", spans.c_str());
      return 1;
    }
  }
  if (probes) {
    const ProbeTally t = run_probes(seed);
    o.num("probes_attempted", static_cast<double>(t.attempted));
    o.num("probes_failed", static_cast<double>(t.failed));
    o.num("probe_freed_reports", static_cast<double>(t.died_reporting));
    o.num("probe_control_reports", static_cast<double>(t.control_reports));
  }
  return o.write(out) ? 0 : 1;
}
