#!/usr/bin/env python3
"""The dpguard benchmark: three workloads against the library as shipped.

    python3 dpgbench/run.py --workload servers|olden|mt_server --seed N \\
        --seconds S --trace 0|1
    python3 dpgbench/run.py --self-test

Run from anywhere inside a checkout; the library is built from ../src into
.bench_build/ at the checkout root on first use. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (END_TO_END and PER_LAYER below). Earlier lines are a readable
summary and the host record.

Workloads (all closed-loop: each caller waits for its reply):
  servers    the five Table 1 servers in-process under GuardedPolicy; one op
             is one connection, session or command (an outermost PoolScope).
  olden      health/treeadd/bisort/mst in-process under GuardedPolicy; one op
             is one guarded allocation.
  mt_server  a plain C++ request loop on nproc threads under
             LD_PRELOAD=libdpg_preload.so; one op is one request.

The benchmark sets no library knob: every DPG_* variable is removed from the
workload processes' environment. The traced run adds DPG_TRACE=1 so the obs
histograms fill, and mt_server processes get DPG_METRICS_PATH so the
interposer's counters can be read from its exit dump.

Failures are counted against attempts: an attempt is one op or one planted
probe; a failure is a probe miss, a false report on a live control object, a
checksum mismatch against the native pass, a corrupted buffer or a null
allocation. pass_ratio is (attempted - failed) / attempted, the complement of
the fail ratio, so that the metric is never 0.
"""

import argparse
import array
import atexit
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
BUILD = ROOT / ".bench_build" / "dpgbench"
WORK = ROOT / ".bench_build" / "runs"

WORKLOADS = ("servers", "olden", "mt_server")

# name -> unit (direction and bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "overhead_x": "ratio",
    "rss_peak_mb": "MiB",
    "vma_peak": "count",
    "pass_ratio": "ratio",
    "guarded_share": "ratio",
}
# Absolute speed of the guarded process. Measured on every run and printed
# with the end-to-end metrics, but published with the per-layer ones, which
# carry no bound: on a shared host these drift between runs by more than the
# largest bound a metric may have (0.25), while overhead_x, the ratio of
# adjacent passes, cancels the drift.
SPEED = {
    "throughput_ops_s": "ops/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
}
PER_LAYER = {
    **SPEED,
    "interpose.malloc_ns.p50": "ns",
    "interpose.malloc_ns.p99": "ns",
    "interpose.free_ns.p50": "ns",
    "interpose.free_ns.p99": "ns",
    "core.alloc_ns.p50": "ns",
    "core.alloc_ns.p99": "ns",
    "core.free_ns.p50": "ns",
    "core.free_ns.p99": "ns",
    "core.poolinit_ns.p50": "ns",
    "core.pooldestroy_ns.p50": "ns",
    "core.pooldestroy_ns.p99": "ns",
    "core.magazine_hits_per_map": "ratio",
    "core.frees_per_revoke": "ratio",
    "core.remote_free_share": "ratio",
    "core.trap_us.p50": "us",
    "core.degraded_allocs": "count",
    "core.guard_failures": "count",
    "vm.mmap_per_op": "1/op",
    "vm.mprotect_per_op": "1/op",
    "vm.munmap_per_op": "1/op",
    "vm.mremap_per_op": "1/op",
    "vm.syscall_share": "ratio",
    "vm.va_reuse_ratio": "ratio",
    "vm.fresh_va_pages_per_op": "1/op",
    "vm.va_trims": "1/pass",
    "alloc.pa_op_ns": "ns",
    "app.native_op_ns": "ns",
    "app.self_ns.p50": "ns",
    "app.waterfall_gap": "ratio",
    "obs.trace_overhead": "ratio",
}
# Per-layer metrics a workload's path never reaches read 0.

# The traced waterfall: app self time plus the guard child spans must add up
# to the op spans within this share.
WATERFALL_TOLERANCE = 0.01

# Timed processes per in-process run. servers' op latency follows the host's
# memory-bandwidth spells, so its time is split over three processes; an
# olden pair takes ~2 s, so olden keeps one process for enough pairs.
INPROC_PROCS = {"servers": 3, "olden": 1}
SETUP_SAMPLES = 5         # set-up times per in-process run (median reported)
MT_SETUP_SAMPLES = 9      # mt_server set-up is ~3 ms, so take more samples
MT_REQUESTS = 15000       # requests per mt_server thread and pass
# A native pass is ~100x shorter than a guarded one; its time is the mean
# of this many back-to-back reps, so both sides of a pair average over a
# similar stretch of the host's speed.
MT_NATIVE_REPS = 60
MT_WARM_PASSES = 3        # untimed guarded passes before the timed ones

# A run must end within 180 s of its start, the build excepted.
RUN_LIMIT_S = 170
DEADLINE = time.monotonic() + RUN_LIMIT_S


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def hermetic_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DPG_") and k != "LD_PRELOAD"}
    env.update(extra)
    return env


def build():
    """Configures and builds the benchmark binaries and the library; exits 1 on failure."""
    env = hermetic_env()
    cmds = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(PKG), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmds.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in cmds:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("dpgbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def pin_last_cpu():
    """Single-threaded workload processes stay on one CPU, so their caches stay warm."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def launch(argv, env, pin=False):
    """Runs one workload process; returns (spawn monotonic ns, result dict)."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    t0 = time.monotonic_ns()
    # Every child must end before the whole run's time limit.
    timeout = max(1.0, DEADLINE - time.monotonic())
    r = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       preexec_fn=pin_last_cpu if pin else None,
                       timeout=timeout)
    if r.returncode != 0 or not out.exists():
        log(f"dpgbench: {' '.join(argv)} exited {r.returncode}")
        sys.exit(1)
    return t0, json.loads(out.read_text())


def read_dump(path):
    """The interposer's exit dump: the last JSON line is the parent's."""
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    return json.loads(lines[-1])


def host_record():
    r = subprocess.run([str(BUILD / "dpgbench_inproc"), "--host"],
                       env=hermetic_env(), capture_output=True, text=True,
                       check=True)
    rec = json.loads(r.stdout)
    if rec["revoke_backend"] == "auto":
        rec["revoke_backend"] = "auto (per-free mprotect, no batching)"

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"
    thp = read("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp[thp.index("[") + 1:thp.index("]")]
    rec.update({
        "nproc": len(os.sched_getaffinity(0)),
        "max_map_count": read("/proc/sys/vm/max_map_count"),
        "thp": thp,
        "kernel": os.uname().release,
    })
    return rec


# --- in-process workloads (servers, olden) -----------------------------------

def inproc(workload, seed, seconds, trace, tag, census=True):
    exe = str(BUILD / "dpgbench_inproc")
    out = WORK / f"{workload}-{tag}.json"
    argv = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out),
            "--trace", "1" if trace else "0",
            "--census", "1" if census else "0"]
    env = hermetic_env(DPG_TRACE="1") if trace else hermetic_env()
    if trace:
        argv += ["--spans", str(WORK / f"{workload}-spans.csv")]
    t0, res = launch(argv, env, pin=True)
    res["setup_s"] = (res["first_op_ns"] - t0) * 1e-9
    return res


def inproc_setup_s(workload, seed, runs):
    exe = str(BUILD / "dpgbench_inproc")
    out = WORK / f"{workload}-setup.json"
    samples = []
    for _ in range(runs):
        t0, res = launch([exe, "--workload", workload, "--seed", str(seed),
                          "--seconds", "0", "--out", str(out),
                          "--setup-only"], hermetic_env(), pin=True)
        samples.append((res["first_op_ns"] - t0) * 1e-9)
    return samples


def tally(res):
    attempted = int(res["checked_ops"] + res["probes_attempted"])
    failed = int(res["probes_failed"] + res["mismatches"] + res["nulls"])
    return attempted, failed


def run_inproc(workload, seed, seconds, trace):
    if not trace:
        # The time is split over several processes and each figure is the
        # median of theirs, so one process in a slow spell of the host does
        # not set the result. Only the last one takes the VMA census.
        n = INPROC_PROCS[workload]
        setups = inproc_setup_s(workload, seed, SETUP_SAMPLES - n)
        procs = [inproc(workload, seed, seconds / n, False, f"run{k}",
                        census=k == n - 1)
                 for k in range(n)]
        setups += [p["setup_s"] for p in procs]
        attempted = failed = 0
        for p in procs:
            a, f = tally(p)
            attempted, failed = attempted + a, failed + f
        med = lambda key: statistics.median(p[key] for p in procs)
        m = {k: med(k) for k in ("throughput_ops_s", "op_p50_us", "op_p99_us",
                                 "overhead_x", "rss_peak_mb")}
        m["vma_peak"] = procs[-1]["vma_peak"]
        m["setup_s"] = statistics.median(setups)
        m["pass_ratio"] = (attempted - failed) / attempted
        m["guarded_share"] = sum(p["guarded_allocs"] for p in procs) / \
            sum(p["allocs"] for p in procs)
        info = {"processes": n,
                "pairs": sum(p["pairs"] for p in procs),
                "op_samples_per_process": min(p["op_samples"] for p in procs),
                "setup_samples": len(setups),
                "probe_freed_reports": sum(p["probe_freed_reports"] for p in procs),
                "probe_control_reports": sum(p["probe_control_reports"] for p in procs)}
        return m, attempted, failed, True, info

    half = max(1.0, seconds / 2)
    plain = inproc(workload, seed, half, False, "untraced", census=False)
    res = inproc(workload, seed, half, True, "traced", census=False)
    attempted, failed = tally(plain)
    a2, f2 = tally(res)
    attempted, failed = attempted + a2, failed + f2
    m = {k: res.get(k, 0.0) for k in PER_LAYER}
    m.update({k: plain[k] for k in SPEED})
    m["vm.va_trims"] = res["vm.va_trims"] / res["pairs"]
    gap = abs(res["waterfall_parts_ns"] - res["waterfall_span_ns"]) / \
        res["waterfall_span_ns"]
    m["app.waterfall_gap"] = gap
    m["obs.trace_overhead"] = res["throughput_ops_s"] / plain["throughput_ops_s"]
    info = {"traced_pairs": res["pairs"], "spans_kept": res["spans_recorded"],
            "waterfall_tolerance": WATERFALL_TOLERANCE,
            "probe_freed_reports": res["probe_freed_reports"],
            "probe_control_reports": res["probe_control_reports"]}
    return m, attempted, failed, gap <= WATERFALL_TOLERANCE, info


# --- mt_server -----------------------------------------------------------------

class MtServer:
    """One long-lived mt_server process serving passes on command."""

    live = []  # started and not yet waited for; see stop_all

    def __init__(self, seed, threads, tag, guarded, trace=False, probes=False,
                 latencies=False):
        self.out = WORK / f"mt-{tag}.json"
        self.out.unlink(missing_ok=True)
        self.lat_file = WORK / f"mt-{tag}.lat" if latencies else None
        self.dump = WORK / f"mt-{tag}.metrics.jsonl" if guarded else None
        argv = [str(BUILD / "mt_server"), "--seed", str(seed),
                "--threads", str(threads), "--requests", str(MT_REQUESTS),
                "--out", str(self.out), "--trace", "1" if trace else "0",
                "--probes", "1" if probes else "0"]
        if self.lat_file:
            argv += ["--latencies", str(self.lat_file)]
        extra = {}
        if guarded:
            self.dump.unlink(missing_ok=True)
            extra = mt_guard_env(self.dump, trace)
            if trace:
                argv += ["--spans", str(WORK / "mt_server-spans.csv")]
        t0 = time.monotonic_ns()
        self.proc = subprocess.Popen(argv, env=hermetic_env(**extra), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr)
        self.t0 = t0
        MtServer.live.append(self.proc)

    def ask(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        # One reply line per command; give up at the run's deadline.
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, DEADLINE - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            log(f"dpgbench: mt_server gave no reply to '{cmd}'")
            sys.exit(1)
        return json.loads(line)

    @staticmethod
    def stop_all():
        """Kills and reaps every server still running (error exits)."""
        for proc in MtServer.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def close(self):
        """Ends the process and returns its result (with the exit dump)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=max(1.0, DEADLINE - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -1
        MtServer.live.remove(self.proc)
        if code != 0 or not self.out.exists():
            log(f"dpgbench: mt_server exited {code}")
            sys.exit(1)
        res = json.loads(self.out.read_text())
        res["setup_s"] = (res["first_op_ns"] - self.t0) * 1e-9
        if self.dump:
            last = read_dump(self.dump)
            res["dump"], res["hist"] = last["counters"], last["histograms"]
        if self.lat_file:
            res["lat"] = array.array("I", self.lat_file.read_bytes())
        return res


def mt_guard_env(dump, trace=False):
    env = {"LD_PRELOAD": str(BUILD / "dpguard" / "libdpg_preload.so"),
           "DPG_METRICS_PATH": str(dump)}
    if trace:
        env["DPG_TRACE"] = "1"
    return env


def mt_setup_s(seed, threads, runs):
    """Set-up times of short-lived guarded processes that stop before op 1."""
    out = WORK / "mt-setup.json"
    samples = []
    for _ in range(runs):
        t0, res = launch([str(BUILD / "mt_server"), "--seed", str(seed),
                          "--threads", str(threads), "--requests", str(MT_REQUESTS),
                          "--out", str(out), "--setup-only"],
                         hermetic_env(**mt_guard_env(WORK / "mt-setup.metrics.jsonl")))
        samples.append((res["first_op_ns"] - t0) * 1e-9)
    return samples


def pct(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def mt_tally(results):
    attempted = failed = 0
    for r in results:
        attempted += int(r["requests"] + r.get("probes_attempted", 0))
        failed += int(r["bad"] + r["nulls"] + r.get("probes_failed", 0))
    return attempted, failed


def guarded_share(c):
    """Guarded allocations / allocations, from an interposer exit dump."""
    guarded = c["dpg_allocations"] - min(c["dpg_allocations"], c["dpg_guard_failures"])
    total = (c["dpg_allocations"] + c["dpg_heap_degraded_allocs"] +
             c["dpg_sampled_allocs"] + c["dpg_guards_elided"] + c["dpg_guard_errors"])
    return guarded / total


def run_mt(seed, seconds, trace):
    """mt_server: a native and a guarded process (plus a traced one with
    --trace 1) stay up for the whole run and take turns serving passes, so no
    process exit lands inside the timed region: an exiting guarded process
    leaves the host slower for seconds after it."""
    threads = len(os.sched_getaffinity(0))
    setups = [] if trace else mt_setup_s(seed, threads, MT_SETUP_SAMPLES - 1)
    native = MtServer(seed, threads, "native", False)
    guarded = MtServer(seed, threads, "guarded", True, probes=not trace,
                       latencies=True)
    traced = MtServer(seed, threads, "traced", True, trace=True, probes=True) \
        if trace else None
    # Untimed warm-up: the guarded process needs a few passes to fill the
    # shipped freed-VA budget, after which each pass costs about the same.
    native.ask("warm 1")
    guarded.ask(f"warm {MT_WARM_PASSES}")
    if traced:
        traced.ask(f"warm {MT_WARM_PASSES}")
    deadline = time.monotonic() + seconds
    ratios, rates, traced_rates, native_ns = [], [], [], []
    i = 0
    while i < 3 or time.monotonic() < deadline:
        def do_native():
            r = native.ask(f"rep {MT_NATIVE_REPS}")
            native_ns.append(r["seconds"] * 1e9 / r["requests"])
            return r

        def do_guarded():
            r = guarded.ask("rep 1")
            rates.append(r["requests"] / r["seconds"])
            return r
        # ABAB, flipping which side of the pair runs first.
        if i % 2 == 0:
            n, g = do_native(), do_guarded()
        else:
            g, n = do_guarded(), do_native()
        ratios.append(g["seconds"] / n["seconds"])
        if traced:
            r = traced.ask("rep 1")
            traced_rates.append(r["requests"] / r["seconds"])
        i += 1
    vma_peak = 0 if trace else guarded.ask("census")["vma_peak"]
    nres = native.close()
    gres = guarded.close()
    tres = traced.close() if traced else None

    if not trace:
        lat = sorted(gres["lat"])
        attempted, failed = mt_tally([nres, gres])
        m = {
            "setup_s": statistics.median(setups + [gres["setup_s"]]),
            "throughput_ops_s": statistics.median(rates),
            "op_p50_us": pct(lat, 0.50) * 1e-3,
            "op_p99_us": pct(lat, 0.99) * 1e-3,
            "overhead_x": statistics.median(ratios),
            "rss_peak_mb": gres["rss_peak_mb"],
            "vma_peak": vma_peak,
            "pass_ratio": (attempted - failed) / attempted,
            "guarded_share": guarded_share(gres["dump"]),
        }
        info = {"pairs": len(ratios), "threads": threads, "op_samples": len(lat),
                "setup_samples": len(setups) + 1,
                "probe_freed_reports": gres["probe_freed_reports"],
                "probe_control_reports": gres["probe_control_reports"]}
        return m, attempted, failed, True, info

    attempted, failed = mt_tally([nres, gres, tres])
    c, h = tres["dump"], tres["hist"]
    requests = tres["requests"]
    core_ns = h["alloc_ns"]["sum"] + h["free_ns"]["sum"]
    vm_ns = sum(h[k]["sum"] for k in ("mmap_ns", "mprotect_ns", "munmap_ns", "mremap_ns"))
    mapped, reused = c["dpg_shadow_pages_mapped"], c["dpg_shadow_pages_reused"]
    gap = abs(tres["waterfall_parts_ns"] - tres["waterfall_span_ns"]) / \
        tres["waterfall_span_ns"]
    lat = sorted(gres["lat"])
    m = {k: 0.0 for k in PER_LAYER}
    m.update({
        "throughput_ops_s": statistics.median(rates),
        "op_p50_us": pct(lat, 0.50) * 1e-3,
        "op_p99_us": pct(lat, 0.99) * 1e-3,
    })
    m.update({k: tres[k] for k in ("interpose.malloc_ns.p50", "interpose.malloc_ns.p99",
                                   "interpose.free_ns.p50", "interpose.free_ns.p99",
                                   "app.self_ns.p50")})
    m.update({
        "core.alloc_ns.p50": h["alloc_ns"]["p50"],
        "core.alloc_ns.p99": h["alloc_ns"]["p99"],
        "core.free_ns.p50": h["free_ns"]["p50"],
        "core.free_ns.p99": h["free_ns"]["p99"],
        "core.magazine_hits_per_map":
            c["dpg_magazine_hits"] / max(1, c["dpg_magazine_maps"]),
        "core.frees_per_revoke": c["dpg_frees"] / max(1, c["dpg_protect_calls"]),
        "core.remote_free_share": c["dpg_remote_frees"] / max(1, c["dpg_frees"]),
        "core.degraded_allocs": c["dpg_heap_degraded_allocs"],
        "core.guard_failures": c["dpg_guard_failures"],
        "vm.mmap_per_op": c["dpg_mmap_calls"] / requests,
        "vm.mprotect_per_op": c["dpg_mprotect_calls"] / requests,
        "vm.munmap_per_op": c["dpg_munmap_calls"] / requests,
        "vm.mremap_per_op": c["dpg_mremap_calls"] / requests,
        "vm.syscall_share": vm_ns / core_ns if core_ns else 0.0,
        "vm.va_reuse_ratio": reused / max(1, mapped + reused),
        "vm.fresh_va_pages_per_op": mapped / requests,
        "vm.va_trims": c["dpg_va_trims"] / (requests / (threads * MT_REQUESTS)),
        "app.native_op_ns": statistics.median(native_ns),
        "app.waterfall_gap": gap,
        "obs.trace_overhead": statistics.median(traced_rates) / statistics.median(rates),
    })
    info = {"pairs": len(ratios), "waterfall_tolerance": WATERFALL_TOLERANCE,
            "spans_kept": tres["spans_recorded"],
            "probe_freed_reports": tres["probe_freed_reports"],
            "probe_control_reports": tres["probe_control_reports"]}
    return m, attempted, failed, gap <= WATERFALL_TOLERANCE, info


# --- entry points ----------------------------------------------------------------

def run(workload, seed, seconds, trace):
    """Builds if needed, runs one workload; returns (result object, info)."""
    global DEADLINE
    build()
    DEADLINE = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    host = host_record()
    if workload == "mt_server":
        m, attempted, failed, ok, info = run_mt(seed, seconds, trace)
    else:
        m, attempted, failed, ok, info = run_inproc(workload, seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {workload} seed={seed} seconds={seconds} trace={int(trace)} "
          + json.dumps(info, sort_keys=True))
    shown = units if trace else {**END_TO_END, **SPEED}
    for k, unit in shown.items():
        print(f"  {k:28s} {m[k]:>16.6g} {unit}")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(m[k]), "unit": units[k]} for k in units},
    }
    return result, info


def self_test():
    """Short run of every workload, checking the contract of each result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {e["name"]: e["unit"] for e in spec["end_to_end"]},
        True: {e["name"]: e["unit"] for e in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            res, info = run(workload, 7, 2, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{workload} trace={int(trace)}"
            if got != declared[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{where}: failed {res['failed']} of {res['attempted']}")
            if not trace:
                if res["metrics"]["pass_ratio"]["value"] != 1.0:
                    problems.append(f"{where}: fail ratio is not 0")
                if res["metrics"]["guarded_share"]["value"] != 1.0:
                    problems.append(f"{where}: guarded_share is not 1")
            if info["probe_freed_reports"] == 0 or info["probe_control_reports"] != 0:
                problems.append(f"{where}: probes do not tell freed from live "
                                f"({info['probe_freed_reports']} freed reports, "
                                f"{info['probe_control_reports']} control reports)")
    for p in problems:
        log("self-test: " + p)
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    atexit.register(MtServer.stop_all)
    # Probe children abort on purpose; keep their core files out of the tree.
    resource.setrlimit(resource.RLIMIT_CORE, (0, resource.getrlimit(resource.RLIMIT_CORE)[1]))
    if a.self_test:
        return self_test()
    if a.workload is None:
        ap.error("--workload is required")
    if shutil.which("cmake") is None:
        log("dpgbench: cmake not found")
        return 1
    result, _ = run(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
