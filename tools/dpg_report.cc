// dpg_report — offline analyzer for .dpgcrash postmortem dumps.
//
// A production fault leaves a self-contained binary dump (obs/dump.h); this
// tool turns it back into a diagnosis: it validates the CRC trailer,
// symbolizes the alloc/free/use backtraces against the dump's own
// /proc/self/maps module table (addr2line batch per module, dladdr fallback,
// module+offset when symbols are stripped), and derives a *stable dedup
// signature* — an FNV-1a hash over the access kind and the top-K symbolized
// frames of the alloc/free/use triple. Frames hash as symbol names or
// module-relative offsets, never absolute addresses, so the same bug dedups
// across ASLR'd runs and across hosts.
//
// Usage:
//   dpg_report FILE.dpgcrash [--json] [--no-symbols] [--sig-depth K]
//   dpg_report --aggregate DIR [--json] [--no-symbols] [--sig-depth K]
//
// --aggregate scans DIR for *.dpgcrash, groups by signature, and prints a
// fleet summary per signature: occurrence count, first/last seen, and the
// degradation-rung distribution at dump time. Corrupt dumps are skipped and
// counted, never fatal to the sweep.
//
// Exit codes: 0 = ok; 1 = usage or IO error; 3 = corrupt dump (bad magic,
// version, truncation, or CRC mismatch — for --aggregate, only when every
// dump in the directory is corrupt).
#include <dirent.h>
#include <dlfcn.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/dump.h"
#include "obs/trace.h"

namespace {

namespace dump = dpg::obs::dump;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitCorrupt = 3;

// Numeric values mirror core::AccessKind (the dump stores the raw value; the
// analyzer links only dpg_obs, so the names are duplicated here on purpose).
// Index 6 is the retired lock-and-key lane's "tag-mismatch": the runtime no
// longer raises it, but .dpgcrash files written before the lane went still
// carry it and must print.
const char* kind_name(std::uint32_t k) {
  static const char* names[] = {"read",     "write",  "double-free",
                                "invalid-free", "overflow", "access",
                                "tag-mismatch"};
  return k < 7 ? names[k] : "?";
}

// Mirrors core::GuardMode.
const char* mode_name(std::uint32_t m) {
  static const char* names[] = {"full-guard", "sampled", "quarantine-only"};
  return m < 3 ? names[m] : "?";
}

// Rung label for fleet aggregation: the sampled rung is only meaningful
// together with its effective rate ("sampled:1-in-64" and "sampled:1-in-8192"
// are different operating points), so the N the governor was running at dump
// time is folded into the key.
std::string rung_label(std::uint32_t mode, std::uint32_t sample_rate) {
  std::string label = mode_name(mode);
  if (mode == 1 && sample_rate != 0) {
    label += ":1-in-" + std::to_string(sample_rate);
  }
  return label;
}

const char* event_kind_name(std::uint16_t k) {
  static const char* names[] = {
      "none",       "alloc",        "free",       "shadow-map",
      "protect-batch", "va-reclaim", "fault",     "pool-init",
      "pool-destroy",  "degrade",    "magazine-map", "remote-drain"};
  return k < 12 ? names[k] : "?";
}

std::string format_time(std::uint64_t realtime_ns) {
  const auto secs = static_cast<time_t>(realtime_ns / 1000000000ull);
  tm tmv{};
  gmtime_r(&secs, &tmv);
  char buf[40];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tmv);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- dump parsing -----------------------------------------------------------

struct ParsedHistogram {
  dump::HistogramHeader hdr{};
  std::vector<dump::HistogramBucket> buckets;
};

struct ParsedRing {
  dump::RingHeader hdr{};
  std::vector<dpg::obs::TraceEvent> events;
};

struct ParsedDump {
  dump::MetaSection meta{};
  bool has_meta = false;
  dump::CrashReport report{};
  bool has_report = false;
  std::vector<dump::CounterEntry> counters;
  std::vector<ParsedHistogram> hists;
  std::vector<ParsedRing> rings;
  std::string maps_text;
  dump::VmStatsSection vmstats{};
  bool has_vmstats = false;
  dump::LadderHeader ladder_hdr{};
  std::vector<dump::LadderEntry> ladder;
  bool has_ladder = false;
};

// Copies n entries of a section payload into v. An empty vector's data() may
// be null, and memcpy must not see a null pointer even for zero bytes.
template <typename T>
void assign_array(std::vector<T>& v, const char* p, std::size_t n) {
  v.resize(n);
  if (n != 0) std::memcpy(v.data(), p, n * sizeof(T));
}

// Returns kExitOk / kExitUsage (unreadable) / kExitCorrupt. On corruption,
// *err names the defect so the operator knows which invariant failed.
int parse_dump(const std::string& path, ParsedDump* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return kExitUsage;
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof(dump::FileHeader)) {
    *err = "truncated: shorter than the file header";
    return kExitCorrupt;
  }
  dump::FileHeader fh{};
  std::memcpy(&fh, bytes.data(), sizeof fh);
  if (std::memcmp(fh.magic, dump::kMagic, sizeof dump::kMagic) != 0) {
    *err = "bad magic (not a .dpgcrash file)";
    return kExitCorrupt;
  }
  if (fh.version != dump::kVersion) {
    *err = "unsupported version " + std::to_string(fh.version);
    return kExitCorrupt;
  }

  std::size_t off = sizeof fh;
  bool end_seen = false;
  while (off + sizeof(dump::TlvHeader) <= bytes.size()) {
    dump::TlvHeader tlv{};
    std::memcpy(&tlv, bytes.data() + off, sizeof tlv);
    const std::size_t payload = off + sizeof tlv;
    if (tlv.length > bytes.size() - payload) {
      *err = "truncated: TLV payload runs past end of file";
      return kExitCorrupt;
    }
    const char* p = bytes.data() + payload;
    const std::size_t len = static_cast<std::size_t>(tlv.length);
    switch (static_cast<dump::Tag>(tlv.tag)) {
      case dump::Tag::kMeta:
        if (len >= sizeof out->meta) {
          std::memcpy(&out->meta, p, sizeof out->meta);
          out->has_meta = true;
        }
        break;
      case dump::Tag::kReport:
        if (len >= sizeof out->report) {
          std::memcpy(&out->report, p, sizeof out->report);
          out->has_report = true;
        }
        break;
      case dump::Tag::kCounters: {
        const std::size_t n = len / sizeof(dump::CounterEntry);
        assign_array(out->counters, p, n);
        break;
      }
      case dump::Tag::kHistogram: {
        if (len < sizeof(dump::HistogramHeader)) break;
        ParsedHistogram h;
        std::memcpy(&h.hdr, p, sizeof h.hdr);
        const std::size_t avail =
            (len - sizeof h.hdr) / sizeof(dump::HistogramBucket);
        const std::size_t n =
            std::min<std::size_t>(h.hdr.n_buckets, avail);
        assign_array(h.buckets, p + sizeof h.hdr, n);
        out->hists.push_back(std::move(h));
        break;
      }
      case dump::Tag::kRing: {
        if (len < sizeof(dump::RingHeader)) break;
        ParsedRing r;
        std::memcpy(&r.hdr, p, sizeof r.hdr);
        const std::size_t avail =
            (len - sizeof r.hdr) / sizeof(dpg::obs::TraceEvent);
        const std::size_t n = std::min<std::size_t>(r.hdr.count, avail);
        assign_array(r.events, p + sizeof r.hdr, n);
        out->rings.push_back(std::move(r));
        break;
      }
      case dump::Tag::kMaps:
        out->maps_text.assign(p, len);
        break;
      case dump::Tag::kVmStats:
        if (len >= sizeof out->vmstats) {
          std::memcpy(&out->vmstats, p, sizeof out->vmstats);
          out->has_vmstats = true;
        }
        break;
      case dump::Tag::kLadder: {
        if (len < sizeof(dump::LadderHeader)) break;
        std::memcpy(&out->ladder_hdr, p, sizeof out->ladder_hdr);
        const std::size_t avail =
            (len - sizeof out->ladder_hdr) / sizeof(dump::LadderEntry);
        const std::size_t n =
            std::min<std::size_t>(out->ladder_hdr.count, avail);
        assign_array(out->ladder, p + sizeof out->ladder_hdr, n);
        out->has_ladder = true;
        break;
      }
      case dump::Tag::kEnd: {
        if (len < sizeof(dump::EndSection)) {
          *err = "truncated: short kEnd payload";
          return kExitCorrupt;
        }
        dump::EndSection end{};
        std::memcpy(&end, p, sizeof end);
        std::uint32_t crc = dump::crc32_init();
        crc = dump::crc32_update(crc, bytes.data(), off);
        crc = dump::crc32_final(crc);
        if (crc != end.crc32) {
          *err = "CRC mismatch (dump was truncated or corrupted in flight)";
          return kExitCorrupt;
        }
        end_seen = true;
        break;
      }
      default:
        break;  // unknown tags are skippable by construction
    }
    off = payload + len;
    if (end_seen) break;
  }
  if (!end_seen) {
    *err = "truncated: no kEnd/CRC trailer (writer died mid-dump)";
    return kExitCorrupt;
  }
  return kExitOk;
}

// --- module table & symbolization -------------------------------------------

struct Module {
  std::string path;
  std::uint64_t lo = UINT64_MAX;  // lowest mapped address
  std::uint64_t hi = 0;           // highest mapped end
  std::uint64_t bias = UINT64_MAX;  // min(start - file_offset): load bias
  int e_type = 0;  // ELF e_type; 0 = not probed, -1 = unreadable
};

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Rebuilds the module table from the dump's own maps text. One entry per
// distinct file path; the bias is min(start - offset) across that file's
// mappings (the r--p segment at offset 0 in the common case).
std::vector<Module> build_modules(const std::string& maps_text) {
  std::map<std::string, Module> by_path;
  std::size_t pos = 0;
  while (pos < maps_text.size()) {
    std::size_t eol = maps_text.find('\n', pos);
    if (eol == std::string::npos) eol = maps_text.size();
    const std::string line = maps_text.substr(pos, eol - pos);
    pos = eol + 1;
    unsigned long long start = 0, end = 0, offset = 0;
    char perms[8] = {};
    if (std::sscanf(line.c_str(), "%llx-%llx %7s %llx", &start, &end, perms,
                    &offset) != 4) {
      continue;
    }
    const std::size_t slash = line.find('/');
    if (slash == std::string::npos) continue;
    const std::string path = line.substr(slash);
    Module& m = by_path[path];
    m.path = path;
    m.lo = std::min<std::uint64_t>(m.lo, start);
    m.hi = std::max<std::uint64_t>(m.hi, end);
    if (start >= offset) {
      m.bias = std::min<std::uint64_t>(m.bias, start - offset);
    }
  }
  std::vector<Module> mods;
  mods.reserve(by_path.size());
  for (auto& [_, m] : by_path) mods.push_back(std::move(m));
  return mods;
}

// Reads e_type from the ELF header so the analyzer knows whether addr2line
// wants absolute vaddrs (ET_EXEC) or bias-relative ones (ET_DYN / PIE).
int elf_type(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return -1;
  unsigned char hdr[18] = {};
  f.read(reinterpret_cast<char*>(hdr), sizeof hdr);
  if (f.gcount() < 18 || hdr[0] != 0x7f || hdr[1] != 'E' || hdr[2] != 'L' ||
      hdr[3] != 'F') {
    return -1;
  }
  return hdr[16] | (hdr[17] << 8);
}

struct Symbol {
  std::string func;        // demangled function, empty when unknown
  std::string loc;         // file:line, empty when unknown
  std::string module;      // module basename, empty when no module covers it
  std::uint64_t module_off = 0;  // ASLR-stable module-relative offset
  // Display string plus the ASLR-stable token the dedup signature hashes.
  std::string pretty(std::uint64_t addr) const {
    std::string s = hex64(addr);
    if (!func.empty()) s += " " + func;
    if (!loc.empty() && loc != "??:0" && loc != "??:?") s += " (" + loc + ")";
    if (func.empty() && !module.empty()) {
      s += " " + module + "+" + hex64(module_off);
    }
    return s;
  }
  std::string stable_token() const {
    if (!func.empty()) return func;
    if (!module.empty()) return module + "+" + hex64(module_off);
    return "?";
  }
};

class Symbolizer {
 public:
  Symbolizer(std::vector<Module> mods, bool enabled)
      : mods_(std::move(mods)), enabled_(enabled) {}

  // Batch-resolves every address up front: one addr2line invocation per
  // module, addresses translated to file vaddrs per the module's ELF type.
  void prime(const std::vector<std::uint64_t>& addrs) {
    std::map<const Module*, std::vector<std::uint64_t>> by_mod;
    for (const std::uint64_t a : addrs) {
      if (a == 0 || cache_.count(a) != 0) continue;
      Symbol sym;
      const Module* m = find_module(a);
      if (m != nullptr && m->bias != UINT64_MAX) {
        sym.module = basename_of(m->path);
        sym.module_off = a - m->bias;
        if (enabled_) by_mod[m].push_back(a);
      }
      cache_[a] = sym;  // module/offset fallback; refined below
    }
    for (auto& [m, list] : by_mod) run_addr2line(*m, list);
    if (enabled_) {
      // Last-ditch dladdr pass: only helps when the analyzer itself maps the
      // same module at the same bias (rare offline, free to try).
      for (const std::uint64_t a : addrs) {
        auto it = cache_.find(a);
        if (it == cache_.end() || !it->second.func.empty()) continue;
        Dl_info info{};
        if (dladdr(reinterpret_cast<void*>(a), &info) != 0 &&
            info.dli_sname != nullptr) {
          it->second.func = info.dli_sname;
        }
      }
    }
  }

  const Symbol& resolve(std::uint64_t addr) {
    static const Symbol kEmpty;
    auto it = cache_.find(addr);
    return it == cache_.end() ? kEmpty : it->second;
  }

 private:
  const Module* find_module(std::uint64_t addr) const {
    for (const Module& m : mods_) {
      if (addr >= m.lo && addr < m.hi) return &m;
    }
    return nullptr;
  }

  void run_addr2line(const Module& mod, const std::vector<std::uint64_t>& as) {
    // A quote in a mapped path would need real shell escaping; punt to the
    // module+offset fallback rather than risk a mangled command.
    if (mod.path.find('\'') != std::string::npos) return;
    int et = mod.e_type;
    if (et == 0) et = elf_type(mod.path);
    if (et == -1) return;  // unreadable on this host: keep module+offset
    const bool absolute = et == 2;  // ET_EXEC
    std::string cmd = "addr2line -e '" + mod.path + "' -f -C -a";
    for (const std::uint64_t a : as) {
      cmd += " " + hex64(absolute ? a : a - mod.bias);
    }
    cmd += " 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return;
    // With -a the output is 3 lines per address (0xADDR, function,
    // file:line) in input order.
    std::size_t idx = 0;
    char line[1024];
    int field = 0;  // 0 = expect address echo, 1 = function, 2 = location
    while (idx < as.size() && std::fgets(line, sizeof line, pipe) != nullptr) {
      std::string s(line);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (field == 0) {
        if (s.rfind("0x", 0) == 0) field = 1;
        continue;
      }
      Symbol& sym = cache_[as[idx]];
      if (field == 1) {
        if (s != "??") sym.func = s;
        field = 2;
      } else {
        if (s != "??:0" && s != "??:?" && s.rfind("??", 0) != 0) sym.loc = s;
        field = 0;
        ++idx;
      }
    }
    pclose(pipe);
  }

  std::vector<Module> mods_;
  bool enabled_;
  std::map<std::uint64_t, Symbol> cache_;
};

// --- dedup signature --------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Stable across ASLR and hosts: hashes the access kind plus symbol names (or
// module-relative offsets) of the top sig_depth frames of each stack.
std::uint64_t signature_of(const ParsedDump& d, Symbolizer& sym,
                           std::size_t sig_depth) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (!d.has_report) {
    // Snapshot dumps (sigusr2, demotion) dedup by reason instead.
    h = fnv1a(h, d.meta.reason, std::strlen(d.meta.reason));
    return h;
  }
  h = fnv1a(h, &d.report.kind, sizeof d.report.kind);
  const struct {
    const char* tag;
    const std::uint64_t* frames;
    std::uint32_t depth;
  } stacks[] = {
      {"a", d.report.alloc_stack, d.report.alloc_stack_depth},
      {"f", d.report.free_stack, d.report.free_stack_depth},
      {"u", d.report.use_stack, d.report.use_stack_depth},
  };
  for (const auto& st : stacks) {
    h = fnv1a(h, st.tag, 1);
    const std::size_t n = std::min<std::size_t>(st.depth, sig_depth);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string tok = sym.resolve(st.frames[i]).stable_token();
      h = fnv1a(h, tok.data(), tok.size());
    }
  }
  return h;
}

std::vector<std::uint64_t> report_addresses(const ParsedDump& d) {
  std::vector<std::uint64_t> addrs;
  if (!d.has_report) return addrs;
  const auto& r = d.report;
  for (std::uint32_t i = 0; i < r.alloc_stack_depth; ++i) {
    addrs.push_back(r.alloc_stack[i]);
  }
  for (std::uint32_t i = 0; i < r.free_stack_depth; ++i) {
    addrs.push_back(r.free_stack[i]);
  }
  for (std::uint32_t i = 0; i < r.use_stack_depth; ++i) {
    addrs.push_back(r.use_stack[i]);
  }
  return addrs;
}

// --- single-dump output -----------------------------------------------------

void print_stack(const char* name, const std::uint64_t* frames,
                 std::uint32_t depth, Symbolizer& sym) {
  std::printf("  %s stack (%u frames):\n", name, depth);
  for (std::uint32_t i = 0; i < depth; ++i) {
    std::printf("    #%u %s\n", i, sym.resolve(frames[i]).pretty(frames[i]).c_str());
  }
}

void print_human(const std::string& path, const ParsedDump& d,
                 Symbolizer& sym, std::uint64_t sig) {
  std::printf("dump: %s\n", path.c_str());
  if (d.has_meta) {
    std::printf("  reason: %s   pid %u tid %u   %s   site-depth %u\n",
                d.meta.reason, d.meta.pid, d.meta.tid,
                format_time(d.meta.realtime_ns).c_str(), d.meta.site_depth);
  }
  std::printf("  signature: %016llx\n", static_cast<unsigned long long>(sig));
  if (d.has_report) {
    const auto& r = d.report;
    std::printf(
        "  dangling %s of %s: object [%s, +%llu) alloc-site %u free-site %u\n",
        kind_name(r.kind), hex64(r.fault_address).c_str(),
        hex64(r.object_base).c_str(),
        static_cast<unsigned long long>(r.object_size), r.alloc_site,
        r.free_site);
    print_stack("use", r.use_stack, r.use_stack_depth, sym);
    print_stack("alloc", r.alloc_stack, r.alloc_stack_depth, sym);
    print_stack("free", r.free_stack, r.free_stack_depth, sym);
    if (r.trace_count != 0) {
      std::printf("  recent trace (%u events, newest last):\n", r.trace_count);
      const std::uint32_t n = std::min<std::uint32_t>(r.trace_count, 8);
      for (std::uint32_t i = r.trace_count - n; i < r.trace_count; ++i) {
        const auto& e = r.recent_trace[i];
        std::printf("    %-13s addr=%s arg=%llu site=%u tid=%u\n",
                    event_kind_name(e.kind), hex64(e.addr).c_str(),
                    static_cast<unsigned long long>(e.arg), e.site, e.tid);
      }
    }
  }
  if (d.has_ladder) {
    std::printf("  guard mode: %s (%zu ladder transitions recorded)\n",
                rung_label(d.ladder_hdr.current_mode,
                           d.ladder_hdr.sample_rate)
                    .c_str(),
                d.ladder.size());
    for (const auto& e : d.ladder) {
      std::printf("    %s -> %s (%s)%s\n", mode_name(e.from_mode),
                  mode_name(e.to_mode), e.reason,
                  e.recovery != 0 ? " [recovery]" : "");
    }
  }
  if (d.has_vmstats) {
    std::printf("  vm: size %llu pages, rss %llu pages, %llu VMAs%s\n",
                static_cast<unsigned long long>(d.vmstats.vm_size_pages),
                static_cast<unsigned long long>(d.vmstats.rss_pages),
                static_cast<unsigned long long>(d.vmstats.map_lines),
                d.vmstats.modules_truncated != 0 ? " (module table clipped)"
                                                 : "");
  }
  std::size_t nonzero = 0;
  for (const auto& c : d.counters) nonzero += c.value != 0 ? 1 : 0;
  std::printf("  counters: %zu registered, %zu nonzero\n", d.counters.size(),
              nonzero);
  for (const auto& c : d.counters) {
    if (c.value == 0) continue;
    std::printf("    %-38s %llu\n", c.name,
                static_cast<unsigned long long>(c.value));
  }
  for (const auto& h : d.hists) {
    std::printf("  histogram %-14s count=%llu sum=%lluns max=%lluns\n",
                h.hdr.name, static_cast<unsigned long long>(h.hdr.count),
                static_cast<unsigned long long>(h.hdr.sum),
                static_cast<unsigned long long>(h.hdr.max));
  }
  std::size_t ring_events = 0;
  for (const auto& r : d.rings) ring_events += r.events.size();
  std::printf("  flight recorder: %zu thread rings, %zu events\n",
              d.rings.size(), ring_events);
}

void print_json_stack(const char* name, const std::uint64_t* frames,
                      std::uint32_t depth, Symbolizer& sym, bool* first) {
  if (!*first) std::printf(",");
  *first = false;
  std::printf("\"%s_stack\":[", name);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const Symbol& s = sym.resolve(frames[i]);
    std::printf("%s{\"addr\":\"%s\",\"func\":\"%s\",\"loc\":\"%s\","
                "\"module\":\"%s\",\"module_off\":\"%s\"}",
                i != 0 ? "," : "", hex64(frames[i]).c_str(),
                json_escape(s.func).c_str(), json_escape(s.loc).c_str(),
                json_escape(s.module).c_str(), hex64(s.module_off).c_str());
  }
  std::printf("]");
}

void print_json(const std::string& path, const ParsedDump& d, Symbolizer& sym,
                std::uint64_t sig) {
  std::printf("{\"file\":\"%s\",\"signature\":\"%016llx\"",
              json_escape(path).c_str(), static_cast<unsigned long long>(sig));
  if (d.has_meta) {
    std::printf(",\"reason\":\"%s\",\"pid\":%u,\"tid\":%u,"
                "\"realtime_ns\":%llu,\"time\":\"%s\",\"site_depth\":%u",
                json_escape(d.meta.reason).c_str(), d.meta.pid, d.meta.tid,
                static_cast<unsigned long long>(d.meta.realtime_ns),
                format_time(d.meta.realtime_ns).c_str(), d.meta.site_depth);
  }
  if (d.has_report) {
    const auto& r = d.report;
    std::printf(",\"report\":{\"kind\":\"%s\",\"fault_address\":\"%s\","
                "\"object_base\":\"%s\",\"object_size\":%llu,"
                "\"alloc_site\":%u,\"free_site\":%u,",
                kind_name(r.kind), hex64(r.fault_address).c_str(),
                hex64(r.object_base).c_str(),
                static_cast<unsigned long long>(r.object_size), r.alloc_site,
                r.free_site);
    bool first = true;
    print_json_stack("use", r.use_stack, r.use_stack_depth, sym, &first);
    print_json_stack("alloc", r.alloc_stack, r.alloc_stack_depth, sym, &first);
    print_json_stack("free", r.free_stack, r.free_stack_depth, sym, &first);
    std::printf("}");
  }
  if (d.has_ladder) {
    std::printf(",\"guard_mode\":\"%s\",\"sample_rate\":%u,\"ladder\":[",
                mode_name(d.ladder_hdr.current_mode),
                d.ladder_hdr.sample_rate);
    for (std::size_t i = 0; i < d.ladder.size(); ++i) {
      const auto& e = d.ladder[i];
      std::printf("%s{\"from\":\"%s\",\"to\":\"%s\",\"reason\":\"%s\","
                  "\"recovery\":%s}",
                  i != 0 ? "," : "", mode_name(e.from_mode),
                  mode_name(e.to_mode), json_escape(e.reason).c_str(),
                  e.recovery != 0 ? "true" : "false");
    }
    std::printf("]");
  }
  std::printf(",\"counters\":{");
  bool first = true;
  for (const auto& c : d.counters) {
    if (c.value == 0) continue;
    std::printf("%s\"%s\":%llu", first ? "" : ",", json_escape(c.name).c_str(),
                static_cast<unsigned long long>(c.value));
    first = false;
  }
  std::printf("}}\n");
}

// --- aggregation ------------------------------------------------------------

struct Group {
  std::uint64_t count = 0;
  std::uint64_t first_ns = UINT64_MAX;
  std::uint64_t last_ns = 0;
  std::map<std::string, std::uint64_t> rungs;  // rung label -> dumps
  std::string kind;
  std::string top_frame;  // exemplar use-site for the summary line
  std::string reason;
};

int aggregate(const std::string& dir, bool json, bool symbols,
              std::size_t sig_depth) {
  DIR* dp = opendir(dir.c_str());
  if (dp == nullptr) {
    std::fprintf(stderr, "dpg_report: cannot open directory %s\n",
                 dir.c_str());
    return kExitUsage;
  }
  std::vector<std::string> files;
  while (dirent* ent = readdir(dp)) {
    const std::string name = ent->d_name;
    if (name.size() > 9 && name.rfind(".dpgcrash") == name.size() - 9) {
      files.push_back(dir + "/" + name);
    }
  }
  closedir(dp);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "dpg_report: no .dpgcrash files in %s\n", dir.c_str());
    return kExitUsage;
  }

  std::map<std::uint64_t, Group> groups;
  std::size_t corrupt = 0;
  std::size_t parsed = 0;
  for (const std::string& f : files) {
    ParsedDump d;
    std::string err;
    if (parse_dump(f, &d, &err) != kExitOk) {
      ++corrupt;
      if (!json) {
        std::fprintf(stderr, "  skipping %s: %s\n", f.c_str(), err.c_str());
      }
      continue;
    }
    ++parsed;
    Symbolizer sym(build_modules(d.maps_text), symbols);
    sym.prime(report_addresses(d));
    const std::uint64_t sig = signature_of(d, sym, sig_depth);
    Group& g = groups[sig];
    ++g.count;
    if (d.has_meta) {
      g.first_ns = std::min(g.first_ns, d.meta.realtime_ns);
      g.last_ns = std::max(g.last_ns, d.meta.realtime_ns);
      g.reason = d.meta.reason;
    }
    ++g.rungs[d.has_ladder ? rung_label(d.ladder_hdr.current_mode,
                                        d.ladder_hdr.sample_rate)
                           : rung_label(0, 0)];
    if (d.has_report) {
      g.kind = kind_name(d.report.kind);
      if (g.top_frame.empty() && d.report.use_stack_depth != 0) {
        g.top_frame = sym.resolve(d.report.use_stack[0]).stable_token();
      }
    }
  }

  // Most frequent first: that is the fleet's loudest bug.
  std::vector<std::pair<std::uint64_t, const Group*>> order;
  for (const auto& [sig, g] : groups) order.emplace_back(sig, &g);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->count != b.second->count
               ? a.second->count > b.second->count
               : a.first < b.first;
  });

  if (json) {
    std::printf("{\"dumps\":%zu,\"corrupt\":%zu,\"signatures\":[", parsed,
                corrupt);
    bool first = true;
    for (const auto& [sig, g] : order) {
      std::printf("%s{\"signature\":\"%016llx\",\"count\":%llu,"
                  "\"kind\":\"%s\",\"reason\":\"%s\",\"top_frame\":\"%s\","
                  "\"first_seen\":\"%s\",\"last_seen\":\"%s\",\"rungs\":{",
                  first ? "" : ",", static_cast<unsigned long long>(sig),
                  static_cast<unsigned long long>(g->count),
                  json_escape(g->kind).c_str(), json_escape(g->reason).c_str(),
                  json_escape(g->top_frame).c_str(),
                  g->first_ns != UINT64_MAX ? format_time(g->first_ns).c_str()
                                            : "",
                  format_time(g->last_ns).c_str());
      bool rf = true;
      for (const auto& [rung, n] : g->rungs) {
        std::printf("%s\"%s\":%llu", rf ? "" : ",", json_escape(rung).c_str(),
                    static_cast<unsigned long long>(n));
        rf = false;
      }
      std::printf("}}");
      first = false;
    }
    std::printf("]}\n");
  } else {
    std::printf("%zu dumps (%zu corrupt, skipped), %zu distinct signatures\n",
                parsed + corrupt, corrupt, groups.size());
    for (const auto& [sig, g] : order) {
      std::printf("  %016llx  x%-4llu %-12s %-24s first %s  last %s\n",
                  static_cast<unsigned long long>(sig),
                  static_cast<unsigned long long>(g->count),
                  !g->kind.empty() ? g->kind.c_str() : g->reason.c_str(),
                  g->top_frame.c_str(),
                  g->first_ns != UINT64_MAX ? format_time(g->first_ns).c_str()
                                            : "-",
                  format_time(g->last_ns).c_str());
      std::printf("      rungs:");
      for (const auto& [rung, n] : g->rungs) {
        std::printf(" %s=%llu", rung.c_str(),
                    static_cast<unsigned long long>(n));
      }
      std::printf("\n");
    }
  }
  if (parsed == 0) return kExitCorrupt;  // every dump was damaged
  return kExitOk;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dpg_report FILE.dpgcrash [--json] [--no-symbols] "
      "[--sig-depth K]\n"
      "       dpg_report --aggregate DIR [--json] [--no-symbols] "
      "[--sig-depth K]\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string agg_dir;
  bool json = false;
  bool symbols = true;
  std::size_t sig_depth = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-symbols") {
      symbols = false;
    } else if (arg == "--sig-depth") {
      if (i + 1 >= argc) return usage();
      sig_depth = std::strtoull(argv[++i], nullptr, 0);
      if (sig_depth == 0) sig_depth = 1;
    } else if (arg == "--aggregate") {
      if (i + 1 >= argc) return usage();
      agg_dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      file = arg;
    }
  }

  if (!agg_dir.empty()) return aggregate(agg_dir, json, symbols, sig_depth);
  if (file.empty()) return usage();

  ParsedDump d;
  std::string err;
  const int rc = parse_dump(file, &d, &err);
  if (rc != kExitOk) {
    std::fprintf(stderr, "dpg_report: %s: %s\n", file.c_str(), err.c_str());
    return rc;
  }
  Symbolizer sym(build_modules(d.maps_text), symbols);
  sym.prime(report_addresses(d));
  const std::uint64_t sig = signature_of(d, sym, sig_depth);
  if (json) {
    print_json(file, d, sym, sig);
  } else {
    print_human(file, d, sym, sig);
  }
  return kExitOk;
}
