#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vswap simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <suite|anon-swap|file-mapper> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own) in release mode, then
runs one repetition of the workload per child process until `--seconds`
have passed. Every repetition is checked (golden corpus or golden
counter digest at the default seed, host and guest audits, unkilled
workloads, identical digests across repetitions). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it is a report with the machine
fingerprint, every sample, and the simulated-counter digest.

`--trace 0` reports the end-to-end metrics from untraced repetitions:
the fastest repetition's times, which a busy host disturbs least.
`--trace 1` runs the layer drivers, then alternates traced and untraced
repetitions, and reports the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("suite", "anon-swap", "file-mapper")
DEFAULT_SEED = 0x5EEDCAFE
SUITE_EXPERIMENTS = 21

# (name, unit) of every end-to-end metric, as BENCHMARK.json declares them.
END_TO_END = [
    ("wall_s", "s"),
    ("pages_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SUITE_IDS = [
    "fig03", "fig04", "fig05", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "tab01", "tab02", "tab03", "tab04", "tab05", "ablate",
    "chaos", "latency", "cluster", "devices", "cluster-chaos",
]

# Layer drivers: per-call median (ns) and its spread (IQR / median).
DRIVERS = [
    "obs.emit_ns.ring", "obs.emit_ns.disabled",
    "host.guest_access_ns.resident", "host.guest_access_ns.zero_fill",
    "host.guest_access_ns.swap_cycle", "host.virt_disk_read_ns.unmapped",
    "host.virt_disk_read_ns", "host.virt_disk_write_ns",
    "disk.submit_ns.hdd_seq", "disk.submit_ns.hdd_scattered",
    "disk.submit_ns.nvme_qd32",
    "guest.read_file_ns", "guest.touch_anon_ns",
    "mem.frame_alloc_ns", "mem.lru_requeue_ns", "mem.ept_map_unmap_ns",
]

# Exact simulated counts, taken from a repetition's counters.
COUNTS = [
    "obs.events_emitted", "obs.events_dropped",
    "guest.cache_hits", "guest.cache_misses", "guest.readahead_pages",
    "guest.reclaim_runs",
    "host.swap_ins", "host.swap_outs", "host.pages_scanned",
    "host.reclaim_runs", "host.named_discards", "host.named_refaults",
    "host.virtual_io_requests", "host.false_swap_reads",
    "host.silent_swap_writes",
    "disk.ops", "disk.seeks", "disk.sequential_ops", "disk.doorbells",
    "mapper.mapped_reads", "mapper.mapped_writes",
    "preventer.buffers_opened", "preventer.merges", "preventer.timeouts",
]

# Host times taken from the spans of traced repetitions: (name, unit).
TIMINGS = [
    ("suite.busy_s", "s"), ("suite.idle_frac", "frac"),
    *[(f"suite.exp.{i}.busy_s", "s") for i in SUITE_IDS],
    ("core.new_ms", "ms"), ("core.add_vm_ms", "ms"), ("core.steps", "count"),
    ("core.step_self_ms", "ms"), ("core.step_us.p50", "us"),
    ("core.step_us.p99", "us"), ("core.report_ms", "ms"),
    ("core.audit_ms", "ms"), ("guest.program_step_ms", "ms"),
]


# The end-to-end metrics each per-layer metric should move, and on which
# workloads: (name prefix, end-to-end metrics, workloads). The first
# matching prefix applies; a driver's `.spread` follows its metric.
MOVES = [
    ("suite.", ["wall_s"], ["suite"]),
    ("obs.", ["wall_s"], ["suite"]),
    ("core.new_ms", ["setup_s"], ["anon-swap", "file-mapper"]),
    ("core.add_vm_ms", ["setup_s"], ["anon-swap", "file-mapper"]),
    ("core.", ["wall_s"], ["anon-swap", "file-mapper"]),
    ("guest.", ["wall_s"], ["file-mapper"]),
    ("host.", ["wall_s", "pages_per_s"], ["anon-swap", "file-mapper"]),
    ("disk.", ["wall_s"], ["anon-swap", "file-mapper"]),
    ("mapper.", ["wall_s"], ["file-mapper"]),
    ("preventer.", ["wall_s"], ["file-mapper"]),
    ("mem.", ["wall_s"], ["anon-swap"]),
    # The cost of tracing itself: untraced runs never pay it.
    ("trace_overhead_frac", [], []),
]


def moves(name):
    """{"metrics", "workloads"} a per-layer metric should move."""
    for prefix, metrics, workloads in MOVES:
        if name.startswith(prefix):
            return {"metrics": metrics, "workloads": workloads}
    raise KeyError(name)


def per_layer_units():
    """(name, unit) of every per-layer metric, in reporting order."""
    units = [(name, unit) for name, unit in TIMINGS]
    units += [(name, "count") for name in COUNTS]
    units.append(("host.reclaim_yield", "ratio"))
    for name in DRIVERS:
        units += [(name, "ns"), (name + ".spread", "frac")]
    units.append(("trace_overhead_frac", "frac"))
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 bits")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or BENCH_DIR / "target").resolve()


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with code {done.returncode}", file=sys.stderr)
        return None
    return target_dir() / "release" / "vswap-perfbench"


def run_child(binary, args, timeout=150):
    """Runs the binary; returns its JSON line, or an error string."""
    try:
        done = subprocess.run([str(binary), *args], capture_output=True, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        return None, f"{args[0]} did not finish: {e}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"{args[0]} exited with code {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"{args[0]} printed invalid JSON: {e}"


def run_rep(binary, workload, seed, traced, trace_out=None):
    args = ["rep", "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    rep, err = run_child(binary, args)
    if rep is None:
        ops = SUITE_EXPERIMENTS if workload == "suite" else 1
        rep = {"traced": traced, "attempted": ops, "failed": ops, "failures": [err],
               "digest": None}
    return rep


def fingerprint(workload, seed):
    """CPU model, nproc, rustc version, git revision and source digest."""
    def run(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else "unavailable"
        except OSError:
            return "unavailable"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The source digest identifies the code when there is no git history.
    h = hashlib.sha256()
    for root in (Path("crates"), BENCH_DIR):
        for path in sorted(root.rglob("*")):
            if path.is_file() and "target" not in path.parts and path.suffix in (
                    ".rs", ".toml", ".golden", ".py", ".lock"):
                h.update(str(path.relative_to(root.parent)).encode())
                h.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": run(["rustc", "--version"]),
        "git_rev": run(["git", "rev-parse", "HEAD"]),
        "source_sha256": h.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def check_digests(reps):
    """Every repetition must reproduce the digest of the first one with
    the same seed. Returns (failure messages, indices of the repetitions
    that did not)."""
    first = {}
    failures, mismatched = [], set()
    for i, r in enumerate(reps):
        if not r.get("digest"):
            continue
        base = first.setdefault(r["seed"], r)
        if r["digest"] != base["digest"]:
            kind = "traced" if r["traced"] != base["traced"] else "repeated"
            failures.append(f"{kind} run digest {r['digest']} differs from {base['digest']}")
            mismatched.add(i)
    return failures, mismatched


def failed_operations(reps, mismatched):
    """Operations that failed, each counted once however many checks it
    failed. A digest mismatch fails every operation of its repetition."""
    return sum(r["attempted"] if i in mismatched else min(r["failed"], r["attempted"])
               for i, r in enumerate(reps))


def end_to_end(timed):
    """Times from the fastest repetition: interference from the rest of
    the host only ever adds time, and it comes in bursts and slow phases
    that shift a median but rarely reach every repetition of a run.
    Peak RSS is steady, so it keeps the median."""
    return {
        "wall_s": min((r["wall_s"] for r in timed), default=0.0),
        "pages_per_s": max((r["pages"] / r["wall_s"] for r in timed), default=0.0),
        "setup_s": min((r["setup_s"] for r in timed), default=0.0),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
    }


def per_layer(traced, untraced, drivers):
    values = {}
    for name, _ in TIMINGS:
        values[name] = median([r["timings"].get(name, 0.0) for r in traced])
    counters = traced[0]["counters"] if traced else {}
    for name in COUNTS:
        values[name] = counters.get(name, 0)
    scanned = counters.get("host.pages_scanned", 0)
    reclaimed = counters.get("host.swap_outs", 0) + counters.get("host.named_discards", 0)
    values["host.reclaim_yield"] = reclaimed / scanned if scanned else 0.0
    for name in DRIVERS:
        values[name] = drivers.get(name, 0.0)
        values[name + ".spread"] = drivers.get(name + ".spread", 0.0)
    t, u = median([r["wall_s"] for r in traced]), median([r["wall_s"] for r in untraced])
    values["trace_overhead_frac"] = (t - u) / u if u else 0.0
    return values


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None or not binary.is_file():
        return 3
    begin = time.monotonic()
    failures = []
    driver_metrics = {}
    trace_file = None
    if args.trace:
        driver_metrics, err = run_child(binary, ["drivers", "--seed", str(args.seed)])
        if driver_metrics is None:
            print(f"perfbench: layer drivers: {err}", file=sys.stderr)
            return 4
        trace_dir = target_dir() / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-{args.seed}.jsonl"

    # One untimed warm-up repetition fills the page cache. It runs at the
    # default seed, where the golden corpus and golden digests apply, so
    # every run checks the output against them whatever its own seed.
    reps = [run_rep(binary, args.workload, DEFAULT_SEED, traced=False)]
    timed = []
    window = time.monotonic()
    min_reps = 4 if args.trace else 3
    while len(timed) < min_reps or time.monotonic() - window < args.seconds:
        traced = bool(args.trace) and len(timed) % 2 == 1
        rep = run_rep(binary, args.workload, args.seed, traced,
                      trace_file if traced else None)
        reps.append(rep)
        timed.append(rep)
        if time.monotonic() - begin > 140:
            break

    attempted = sum(r["attempted"] for r in reps)
    for r in reps:
        failures += r["failures"]
    digest_failures, mismatched = check_digests(reps)
    failures += digest_failures
    failed = failed_operations(reps, mismatched)
    ok = [r for r in timed if "wall_s" in r]
    if args.trace:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"]]
        values = per_layer(traced, untraced, driver_metrics)
        units = per_layer_units()
    else:
        values = end_to_end(ok)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    first = next((r for r in ok if r.get("digest")), {})
    report = {
        "fingerprint": fingerprint(args.workload, args.seed),
        "repetitions": len(timed),
        "samples": {k: [r[k] for r in ok] for k in ("wall_s", "setup_s", "peak_rss_mb")},
        "traced": [r["traced"] for r in ok],
        "digest": first.get("digest"),
        "counters": first.get("counters", {}),
        "step_bins": next((r["step_bins"] for r in ok if "step_bins" in r), None),
        "trace_file": str(trace_file) if trace_file else None,
        "failures": sorted(set(failures)),
    }
    if args.trace:
        report["moves"] = {name: moves(name) for name, _ in units}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and len(ok) == len(timed), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
