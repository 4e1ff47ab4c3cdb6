// Differential harness — executes a Trace against the real stack and the
// reference oracle simultaneously, one op at a time.
//
// Determinism: multi-lane traces run on persistent worker lanes driven by a
// token scheduler — the main thread hands each op to its lane and waits for
// completion, so execution is fully serialized in trace order while still
// exercising the real cross-thread machinery (thread-pinned shards, the
// lock-free remote-free path, per-thread altstacks). Same (config, trace) in
// a fresh process => same syscall sequence, same outcomes, same divergences.
//
// Every executed op is checked three ways:
//   1. outcome: the observed result (silent / trap / double-free report /
//      invalid-free report) must be the oracle's exact prediction;
//   2. precision: a report on a guarded object must name that object
//      (alloc site == the fuzzer's object id, object base == its pointer);
//   3. value: silent reads must observe the model fill byte — on freed
//      objects this is the revoked-then-reused detector (quarantine and the
//      revocation window must expose stale bytes, never a new owner's).
//
// After the trace: a final flush, then an exactness sweep (every freed
// guarded object MUST now trap; every freed quarantined object MUST still
// hold its stale fill), then stats-invariant cross-checks against the
// engine's own counters and the process detections() delta.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/trace.h"

namespace dpg::fuzz {

// SIZE_MAX-valued op_index marks a run-level check (sweep or invariant), not
// a specific op.
struct Divergence {
  std::size_t op_index = static_cast<std::size_t>(-1);
  std::string detail;
};

struct RunResult {
  std::vector<Divergence> divergences;
  std::size_t executed = 0;
  std::size_t skipped = 0;
  std::uint64_t reports = 0;  // traps + software reports observed in-run
  [[nodiscard]] bool ok() const noexcept { return divergences.empty(); }
};

// Runs one (config, trace) cell on a thread of its own and waits for it.
// `log` (may be null) receives a one-line summary plus every divergence.
[[nodiscard]] RunResult run_trace(const FuzzConfig& cfg, const Trace& trace,
                                  std::ostream* log = nullptr);

// run_trace in a forked child that sends its verdict (and the `log` text)
// back through a pipe, so state a run leaves in the process — registry,
// governor ladder — cannot reach the next one. A
// child that dies without a verdict, or runs past a 60 s deadline (SIGALRM
// kills it), counts as a divergence. Falls back to an in-process run when
// fork is refused.
[[nodiscard]] RunResult run_trace_forked(const FuzzConfig& cfg,
                                         const Trace& trace,
                                         std::ostream* log = nullptr);

// The full config matrix: protect_batch pages {0,4,16} (256-page magazine
// windows on either backend, except immediate revocation under mprotect,
// which takes per-object aliases) x 1/4 shards x fault-injection plans x
// degradation forced/off x heap/pool modes. `n_ops` sizes every cell's
// generator.
[[nodiscard]] std::vector<FuzzConfig> matrix(std::size_t n_ops);

// The bounded 8-config subset the ctest `fuzz` label runs.
[[nodiscard]] std::vector<FuzzConfig> smoke_matrix(std::size_t n_ops);

// ddmin-style shrinker: returns the smallest subsequence of `trace.ops`
// (order preserved) that still diverges under `cfg`, bounded by `max_runs`
// re-executions, each one forked (run_trace_forked). Returns `trace`
// unchanged when it does not diverge.
[[nodiscard]] Trace shrink(const FuzzConfig& cfg, const Trace& trace,
                           std::size_t max_runs = 400);

}  // namespace dpg::fuzz
