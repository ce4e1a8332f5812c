#!/usr/bin/env python3
"""Job benchmark for `tpm mine`: end-to-end job time and throughput, with a
traced per-layer breakdown.

    python3 perfbench/run.py --workload coinc-d8k-t4 --seed 101 --seconds 20 --trace 0

Run from the repository root. The first run builds tpm_perfbench from
perfbench/ and src/ into .bench_build/perfbench; later runs reuse it. Each
run generates its input from --seed, then runs tpm_perfbench in a process of
its own. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1. End-to-end times
are scaled by a host-speed kernel timed in the same run. `--workload all`
runs every workload in turn. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tpm_perfbench")

# Seconds one run may take after the build; a run must end within 180 s.
DEADLINE_S = 170

# Host-speed kernel time the end-to-end times are scaled to (see README.md,
# "Host speed").
REF_KERNEL_S = 0.15

# Every workload mines QUEST data with content seed 101, 200 symbols and
# minsup 1% (constants in perfbench.cc); --seed only changes the order of the
# sequences in the input file (see README.md, "Seeds").

WORKLOADS = {
    "coinc-d8k-t4": dict(lang="coincidence", sequences=8000, fmt="tpmb",
                         threads=4, closed=False, setup_reps=25),
    "coinc-d8k-t1": dict(lang="coincidence", sequences=8000, fmt="tpmb",
                         threads=1, closed=False, setup_reps=25),
    "endpoint-text-d128k": dict(lang="endpoint", sequences=128000, fmt="tisd",
                                threads=4, closed=True, setup_reps=5),
}

# name -> unit, in print order.
END_TO_END = {
    "job_s_p50": "s",
    "seqs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "datagen.generate_s": "s",
    "io.save_s": "s",
    "io.load_s": "s",
    "io.load_mb_per_s": "MB/s",
    "io.parse_s": "s",
    "core.rep_build_s": "s",
    "miner.cooc_build_s": "s",
    "miner.build_s": "s",
    "miner.mine_s": "s",
    "miner.states_per_s": "1/s",
    "miner.speedup": "x",
    "miner.nodes": "count",
    "miner.candidates": "count",
    "miner.states": "count",
    "miner.patterns": "count",
    "prune.pair.hits": "count",
    "prune.postfix.hits": "count",
    "miner.node_yield": "ratio",
    "miner.peak_tracked_mb": "MiB",
    "miner.arena_peak_mb": "MiB",
    "analysis.filter_s": "s",
    "output.render_s": "s",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
    "host.kernel_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds tpm_perfbench; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "miner", "miner.h")):
        raise RuntimeError("library sources not found under " +
                           os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=900)


def run_json(cmd, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         timeout=timeout, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """Runs one workload, writes its results file and returns the result
    line."""
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[name]
    work = os.path.join(BUILD, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    data = os.path.join(work, "input." + w["fmt"])

    setup = run_json([BINARY, "setup", "--sequences", str(w["sequences"]),
                      "--seed", str(seed), "--output", data,
                      "--reps", str(w["setup_reps"])], deadline)
    run = run_json([BINARY, "run", "--input", data, "--lang", w["lang"],
                    "--threads", str(w["threads"]),
                    "--closed", str(int(w["closed"])), "--seconds", str(seconds),
                    "--out-dir", work, "--trace", str(int(trace))], deadline)

    problems = list(run["errors"])
    if not run["warmup_ok"]:
        problems.append("warm-up job failed")
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f)[name]
    if (run["patterns"], run["hash"]) != (pin["patterns"], pin["hash"]):
        problems.append("pattern set %d/%s differs from the pinned %d/%s" % (
            run["patterns"], run["hash"], pin["patterns"], pin["hash"]))

    attempted, failed = run["attempted"], run["failed"]
    wall = run["wall_s"]
    kernel_s = statistics.median(run["kernel_s"])
    setup_kernel_s = statistics.median(setup["kernel_s"])
    if min(kernel_s, setup_kernel_s) <= 0:
        raise RuntimeError("host-speed kernel did not run")
    scale = REF_KERNEL_S / kernel_s
    e2e = {
        "job_s_p50": statistics.median(wall) * scale,
        "seqs_per_s": w["sequences"] * len(wall) / (sum(wall) * scale),
        "peak_rss_mb": run["peak_rss_mib"],
        "setup_s": statistics.median(setup["setup_s"]) * REF_KERNEL_S / setup_kernel_s,
        "ok_frac": (attempted - failed) / attempted,
    }
    wall_clock = {
        "job_s_p50": statistics.median(wall),
        "seqs_per_s": w["sequences"] * len(wall) / sum(wall),
        "setup_s": statistics.median(setup["setup_s"]),
        "kernel_s": kernel_s,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": dict(run["build"], nproc=os.cpu_count()),
        "threads": w["threads"], "input_format": w["fmt"],
        "input_bytes": setup["input_bytes"], "dataset": setup["dataset"],
        "sequences": setup["sequences"], "intervals": setup["intervals"],
        "jobs": attempted, "fail_frac": failed / attempted,
        "wall_s": wall, "mine_s": run["mine_s"], "kernel_s": run["kernel_s"],
        "setup": setup, "end_to_end": e2e, "unscaled": wall_clock,
    }
    flags = run["build"]["flags"] + (
        ["debug-build"] if run["build"]["build_type"] == "Debug" else [])
    if flags:
        log("WARNING: result produced by a %s build" % ", ".join(flags))

    if trace:
        t = run["trace"]
        if not t["traced_ok"]:
            problems.append("traced job: " + t.get("traced_error", "failed"))
        if "speedup_error" in t:
            problems.append("1-thread mine: " + t["speedup_error"])
        if abs(t["trace.layer_sum_s"] + t["trace.uncovered_s"] - t["trace.job_s"]) > 1e-6:
            problems.append("layer spans and uncovered time do not add up to the job")
        if not t["baseline_ok"]:
            problems.append("%s disagrees with the miner: %s" % (
                t["baseline"], t.get("baseline_error", "%s/%s" % (
                    t.get("baseline_patterns"), t.get("baseline_hash")))))
        layer = {k: t[k] for k in PER_LAYER if k in t}
        layer["datagen.generate_s"] = statistics.median(setup["generate_s"])
        layer["io.save_s"] = statistics.median(setup["save_s"])
        layer["host.kernel_s"] = kernel_s
        record["per_layer"] = layer
        record["layers"] = t["layers"]
        record["baseline"] = {k: t[k] for k in t if k.startswith("baseline")}
        trace_copy = os.path.join(BUILD, "results", "trace-%s-s%d.json" % (name, seed))
        os.makedirs(os.path.dirname(trace_copy), exist_ok=True)
        shutil.copyfile(t["trace_file"], trace_copy)
        record["trace_file"] = trace_copy
        print_layers(t, trace_copy)
        metrics, units = layer, PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    record["problems"] = problems
    for p in problems:
        log("CHECK FAILED: " + p)
    correct = not problems and failed == 0
    results = os.path.join(BUILD, "results", "%s-s%d-trace%d.json" % (name, seed, int(trace)))
    os.makedirs(os.path.dirname(results), exist_ok=True)
    with open(results, "w") as f:
        json.dump(dict(record, correct=correct), f, indent=1)

    print("%s seed=%d jobs=%d fail_frac=%g input=%s %d bytes threads=%d" % (
        name, seed, attempted, failed / attempted, w["fmt"],
        setup["input_bytes"], w["threads"]))
    print("  unscaled: job_s_p50 %.6g s, seqs_per_s %.6g 1/s, setup_s %.6g s; "
          "host kernel %.6g s" % (wall_clock["job_s_p50"], wall_clock["seqs_per_s"],
                                 wall_clock["setup_s"], kernel_s))
    for k in units:
        print("  %-22s %14.6g %s" % (k, metrics[k], units[k]))
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return line


def print_layers(t, trace_path):
    print("  layer self times of the traced job (%s):" % trace_path)
    for l in t["layers"]:
        print("  %s%-26s total %9.4f s  self %9.4f s%s" % (
            "  " * l["depth"], l["name"], l["total_s"], l["self_s"],
            "" if l["depth"] or l["name"] == "bench.job" else "  (tid %d)" % l["tid"]))
    print("  layers %.6f s + uncovered %.6f s = job %.6f s" % (
        t["trace.layer_sum_s"], t["trace.uncovered_s"], t["trace.job_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.workload == "all":
        # Each workload in a process of its own, so VmHWM is its alone.
        lines = {}
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(out.stdout.splitlines(True)[:-1]))
            lines[name] = json.loads(out.stdout.strip().splitlines()[-1]) \
                if out.returncode == 0 else None
        print(json.dumps(lines))
        return 0 if all(l and l["correct"] for l in lines.values()) else 1
    try:
        line = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError,
            RuntimeError) as e:
        log("perfbench: run failed: %s" % e)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
