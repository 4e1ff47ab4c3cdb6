#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>

#include "baseline/efence.h"
#include "baseline/memcheck.h"
#include "core/fault_manager.h"
#include "fuzz/cross_checks.h"
#include "fuzz/oracle.h"

namespace dpg::fuzz {

namespace {

struct BObj {
  void* ptr = nullptr;
  std::uint32_t size = 0;
  bool live = false;
};

std::string label(const char* tool, const Op& op, const char* what) {
  return std::string(tool) + ": " + op_name(op.kind) + " obj " +
         std::to_string(op.obj) + " " + what;
}

}  // namespace

std::vector<Divergence> baseline_cross_check(std::uint64_t seed,
                                             std::size_t n_ops,
                                             std::ostream* log) {
  std::vector<Divergence> out;
  auto diverge = [&](std::size_t idx, const std::string& detail) {
    out.push_back(Divergence{idx, detail});
  };

  GenParams params;
  params.static_compatible = true;
  params.n_ops = n_ops;
  const Trace trace = generate(seed, params);

  // ---- Electric Fence / PageHeap: one object per page, PROT_NONE at free,
  // pages never reused — every dangling use must trap, every re-free must
  // report, and live reads must observe the exact fill (no sharing).
  {
    baseline::EfenceAllocator ef;
    std::unordered_map<std::uint32_t, BObj> rt;
    for (std::size_t idx = 0; idx < trace.ops.size(); ++idx) {
      const Op& op = trace.ops[idx];
      const auto it = rt.find(op.obj);
      std::optional<core::DanglingReport> rep;
      switch (op.kind) {
        case OpKind::kMalloc: {
          if (it != rt.end()) continue;
          void* p = nullptr;
          rep = core::catch_dangling([&] {
            p = ef.malloc(op.size, op.obj);
            if (p != nullptr) {
              std::memset(p, Oracle::base_fill(op.obj), op.size);
            }
          });
          if (rep.has_value() || p == nullptr) {
            diverge(idx, label("efence", op, "failed"));
            continue;
          }
          rt[op.obj] = BObj{p, op.size, true};
          break;
        }
        case OpKind::kFree:
        case OpKind::kDoubleFree: {
          if (it == rt.end()) continue;
          rep = core::catch_dangling([&] { ef.free(it->second.ptr, op.obj); });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("efence", op, "clean free reported"));
            }
            it->second.live = false;
          } else if (!rep.has_value() ||
                     rep->kind != core::AccessKind::kFree) {
            diverge(idx, label("efence", op,
                               "re-free did not report a double free"));
          }
          break;
        }
        case OpKind::kRead:
        case OpKind::kUafRead: {
          if (it == rt.end()) continue;
          const std::uint32_t off =
              it->second.size != 0 ? op.offset % it->second.size : 0;
          unsigned char v = 0;
          rep = core::catch_dangling([&] {
            v = *reinterpret_cast<volatile unsigned char*>(
                static_cast<unsigned char*>(it->second.ptr) + off);
          });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("efence", op, "live read trapped"));
            } else if (v != Oracle::base_fill(op.obj)) {
              diverge(idx, label("efence", op, "live read lost its fill"));
            }
          } else if (!rep.has_value()) {
            diverge(idx, label("efence", op, "dangling read did not trap"));
          }
          break;
        }
        case OpKind::kWrite:
        case OpKind::kUafWrite: {
          if (it == rt.end()) continue;
          rep = core::catch_dangling([&] {
            // Store the byte already there: traps on freed, no-op on live.
            volatile unsigned char* b =
                reinterpret_cast<volatile unsigned char*>(it->second.ptr);
            *b = *b;
          });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("efence", op, "live write trapped"));
            }
          } else if (!rep.has_value()) {
            diverge(idx, label("efence", op, "dangling write did not trap"));
          }
          break;
        }
        default:
          continue;
      }
    }

    // Interior-pointer epilogue (the static subset plants none): Electric
    // Fence must call out a free() of an address it never handed out.
    void* p = nullptr;
    auto rep = core::catch_dangling([&] { p = ef.malloc(64, 9001); });
    if (rep.has_value() || p == nullptr) {
      diverge(static_cast<std::size_t>(-1), "efence: epilogue malloc failed");
    } else {
      rep = core::catch_dangling(
          [&] { ef.free(static_cast<unsigned char*>(p) + 1, 9001); });
      if (!rep.has_value() || rep->kind != core::AccessKind::kInvalidFree) {
        diverge(static_cast<std::size_t>(-1),
                "efence: interior free did not report invalid-free");
      }
      rep = core::catch_dangling([&] { ef.free(p, 9001); });
      if (rep.has_value()) {
        diverge(static_cast<std::size_t>(-1),
                "efence: exact free after interior attempt reported");
      }
    }
  }

  // ---- Memcheck-lite: checks against the shadow bitmap must report on
  // freed-but-quarantined memory; clean accesses must pass. The quarantine
  // is 16MB and this trace frees well under that, so no evictions can hide
  // a dangling access (the documented heuristic hole stays out of frame).
  {
    auto& mc = baseline::MemcheckContext::global();
    std::unordered_map<std::uint32_t, BObj> rt;
    for (std::size_t idx = 0; idx < trace.ops.size(); ++idx) {
      const Op& op = trace.ops[idx];
      const auto it = rt.find(op.obj);
      std::optional<core::DanglingReport> rep;
      switch (op.kind) {
        case OpKind::kMalloc: {
          if (it != rt.end()) continue;
          void* p = nullptr;
          rep = core::catch_dangling([&] {
            p = mc.allocate(op.size);
            std::memset(p, Oracle::base_fill(op.obj), op.size);
          });
          if (rep.has_value() || p == nullptr) {
            diverge(idx, label("memcheck", op, "failed"));
            continue;
          }
          rt[op.obj] = BObj{p, op.size, true};
          break;
        }
        case OpKind::kFree:
        case OpKind::kDoubleFree: {
          if (it == rt.end()) continue;
          rep = core::catch_dangling([&] { mc.deallocate(it->second.ptr); });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("memcheck", op, "clean free reported"));
            }
            it->second.live = false;
          } else if (!rep.has_value() ||
                     rep->kind != core::AccessKind::kFree) {
            diverge(idx, label("memcheck", op,
                               "re-free did not report a double free"));
          }
          break;
        }
        case OpKind::kRead:
        case OpKind::kUafRead: {
          if (it == rt.end()) continue;
          const std::uint32_t off =
              it->second.size != 0 ? op.offset % it->second.size : 0;
          const unsigned char* addr =
              static_cast<const unsigned char*>(it->second.ptr) + off;
          rep = core::catch_dangling(
              [&] { mc.check(addr, 1, core::AccessKind::kRead); });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("memcheck", op, "live read reported"));
            } else if (*addr != Oracle::base_fill(op.obj)) {
              diverge(idx, label("memcheck", op, "live read lost its fill"));
            }
          } else if (!rep.has_value()) {
            diverge(idx, label("memcheck", op,
                               "freed-but-quarantined read went unreported"));
          }
          break;
        }
        case OpKind::kWrite:
        case OpKind::kUafWrite: {
          if (it == rt.end()) continue;
          rep = core::catch_dangling([&] {
            mc.check(it->second.ptr, 1, core::AccessKind::kWrite);
          });
          if (it->second.live) {
            if (rep.has_value()) {
              diverge(idx, label("memcheck", op, "live write reported"));
            }
          } else if (!rep.has_value()) {
            diverge(idx, label("memcheck", op,
                               "freed-but-quarantined write went unreported"));
          }
          break;
        }
        default:
          continue;
      }
    }
    // Objects the trace never freed: hand them back, or each leaks.
    for (const auto& [obj, o] : rt) {
      if (o.live) mc.deallocate(o.ptr);
    }
  }

  if (log != nullptr) {
    *log << "[baseline-check] seed=" << seed << " ops=" << trace.ops.size()
         << " divergences=" << out.size() << "\n";
    for (const Divergence& d : out) *log << "  " << d.detail << "\n";
  }
  return out;
}

}  // namespace dpg::fuzz
