#!/usr/bin/env python3
"""Repository benchmark: build g5perf from ../src and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload boot-matrix --seed 1 \
        --seconds 32 --trace 0

Builds perfbench/ (CMake) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then repeats whole rounds of the workload until
--seconds have passed. A round is one g5perf process that sets the
workspace up and launches the workload cold, then one or more g5perf
processes that each reopen the database and launch it warm; every pass
checks the simulated results.

--trace 0 prints the end-to-end metrics (medians over the rounds);
--trace 1 runs a warm-up, an untraced and a traced round in one process
and prints the per-layer metrics, the tracing overhead and the chrome
trace's path.
The last line of stdout is the JSON result. --regen-reference rewrites
reference.json, the simulated-statistics digests a run compares with.
See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# Workloads, metric names and units, and the run length come from
# BENCHMARK.json, the one description of the benchmark.
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Worker count of every workload, passed to g5perf (and, for the
# forked error-study workers, to G5_WORKERS). With one worker, and every
# g5perf process on one CPU (see pin_to_one_cpu), each pass runs one
# thread at a time.
WORKERS = 1

PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build g5perf; return the binary's path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "g5perf")


def pin_to_one_cpu():
    """Run this process, and so every g5perf it starts, on one CPU.

    The passes then run one thread at a time whatever the backend: the
    launching thread and its worker thread (or forked worker process)
    hand work to each other on one CPU instead of waking another. On a
    virtual machine whose host is loaded by other guests, passes on two
    worker threads spread by 14-71% of their median from run to run,
    while the serial GPU workload stayed within 25%. The last CPU is
    taken: on the reference host it serves the fewest interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(workload):
    """The environment minus every g5art knob, plus the workload's own."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("G5_", "G5ART_"))}
    if workload == "error-study":
        env["G5_WORKERS"] = str(WORKERS)
    return env


def run_process(binary, workload, seed, work, mode, trace_path=None):
    """One g5perf process; returns its reports and its peak RSS."""
    os.makedirs(work, exist_ok=True)
    out_path = os.path.join(work, "g5perf-%s.out" % mode)
    cmd = [binary, workload, str(seed), str(WORKERS), work, mode]
    if trace_path:
        cmd.append(trace_path)
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, env=child_env(workload),
                                cwd=REPO)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("g5perf %s %s exited with %d" % (workload, mode, proc.returncode))
    return [json.loads(line) for line in lines], usage.ru_maxrss * 1024


def run_round(binary, workload, seed, work):
    """A cold process, then each warm pass in a process of its own."""
    (report,), rss = run_process(binary, workload, seed, work, "cold")
    report["peak_rss_bytes"] = rss
    for _ in range(report["warmPasses"]):
        (warm,), _ = run_process(binary, workload, seed, work, "warm")
        for key in ("passes", "checks", "digests"):
            report[key] += warm[key]
        report["db_bytes"] = warm["dbBytes"]
    return report


# ext4's "top of directory hierarchy" inode flag (chattr +T).
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
TOPDIR_FL = 0x00020000


def make_spread_dir(path):
    """Create @path; ask the file system to spread its subdirectories.

    On ext4 without a journal, the inode allocator avoids inodes freed
    less than about 30 s before, stepping over each one and reading
    it. After a round's thousands of files are deleted, creating a
    file in the same block group costs ~0.6 ms of kernel time instead
    of ~0.03 ms for half a minute, and set-up and the passes' file
    writes slow down tenfold. ext4 places each subdirectory of a
    directory marked top-level in a block group with the fewest
    directories, searching from a hash of its name, so a round's files
    mostly land away from the inodes the rounds before it freed. Where
    the flag is not supported the directory is left as it is.
    """
    os.makedirs(path, exist_ok=True)
    fd = os.open(path, os.O_RDONLY)
    try:
        buf = bytearray(8)
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, buf)
        flags = struct.unpack_from("i", buf)[0] | TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("iI", flags, 0))
    except OSError:
        pass
    finally:
        os.close(fd)


def run_rounds(binary, workload, seed, work, seconds):
    """Whole rounds until @seconds have passed.

    Each round's files are deleted between rounds, so every round after
    the first starts from the same file-system state whatever ran
    before this run. Round directories are named after the process as
    well, so no run places a round where the run before it just freed
    one (see make_spread_dir).
    """
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        round_dir = os.path.join(work, "r%d-%d" % (len(rounds), os.getpid()))
        rounds.append(run_round(binary, workload, seed, round_dir))
        remove_work(round_dir)
    return rounds


def remove_work(work):
    """Delete a work directory and write the deletion out now, not
    during the next round's measurement."""
    shutil.rmtree(work, ignore_errors=True)
    parent = os.path.dirname(work)
    if os.path.isdir(parent):
        fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def reference_key(workload, seed):
    # Only the error study's inputs (the flip matrix) depend on the seed.
    return workload + ("/seed-%d" % seed if workload == "error-study" else "")


def report_digest(workload, seed, digest):
    ref = load_reference().get(reference_key(workload, seed))
    if ref is None:
        verdict = "no stored reference"
    elif ref == digest:
        verdict = "matches the stored reference"
    else:
        verdict = "DIFFERS from the stored reference " + json.dumps(ref)
    print("%s digest: %s (%s)" % (workload, json.dumps(digest, sort_keys=True),
                                  verdict))


def account(rounds):
    """Sum attempted/failed over every pass; print them per pass."""
    attempted = failed = 0
    per_pass = {}
    for r in rounds:
        for p in r["passes"]:
            attempted += p["attempted"]
            failed += p["failed"]
            agg = per_pass.setdefault(p["pass"], [0, 0])
            agg[0] += p["attempted"]
            agg[1] += p["failed"]
    for name, (a, f) in per_pass.items():
        print("%s %s pass: %d operations attempted, %d failed (%d rounds)"
              % (rounds[0]["workload"], name, a, f, len(rounds)))
    return attempted, failed


def verdict(rounds):
    ok = True
    for r in rounds:
        for c in r["checks"]:
            if not c["ok"]:
                ok = False
                log("check failed: %s (%s)" % (c["name"], c["detail"]))
    digests = {json.dumps(d, sort_keys=True)
               for r in rounds for d in r["digests"]}
    if len(digests) != 1:
        ok = False
        log("simulated-statistics digest differs between passes")
    return ok


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds):
    def rate(name):
        # Pooled over every pass of the run: a noisy stretch of the host
        # then spoils a few samples, not a whole round's median.
        return statistics.median(p["runs"] / p["seconds"] for r in rounds
                                 for p in r["passes"] if p["pass"] == name)

    values = {
        "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
        "cold_runs_per_s": rate("cold"),
        "warm_runs_per_s": rate("warm"),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] / 1e6
                                         for r in rounds),
        "db_disk_mb": statistics.median(r["db_bytes"] / 1e6 for r in rounds),
    }
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}


def passes_seconds(r):
    return sum(p["seconds"] for p in r["passes"])


def regen_reference(binary, work):
    ref = {}
    for w in WORKLOADS:
        for seed in (range(1, 11) if w == "error-study" else [1]):
            r = run_round(binary, w, seed,
                          os.path.join(work, "%s-%d" % (w, seed)))
            if not verdict([r]):
                fail("%s seed %d failed its checks" % (w, seed))
            ref[reference_key(w, seed)] = r["digests"][0]
            log("reference: %s seed %d" % (w, seed))
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def traced_run(binary, args, work):
    """Warm-up, untraced and traced rounds; per-layer metrics."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_path = os.path.join(traces, "%s-seed%d.json"
                              % (args.workload, args.seed))
    rounds, _ = run_process(binary, args.workload, args.seed, work,
                            "trace", trace_path)
    plain, traced = rounds
    layers = dict(traced["layers"])
    layers["trace.overhead_ms"] = 1e3 * (passes_seconds(traced)
                                         - passes_seconds(plain))
    metrics = {k: metric(layers[k], u) for k, u in PER_LAYER.items()}
    for k, m in metrics.items():
        print("%-28s %16.6g %s" % (k, m["value"], m["unit"]))
    print("chrome trace: " + trace_path)
    return rounds, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite reference.json (seeds 1-10 for "
                         "error-study) and exit")
    args = ap.parse_args()

    binary = build()
    pin_to_one_cpu()
    make_spread_dir(os.path.join(build_dir(), "work"))
    work = os.path.join(build_dir(), "work", "%s-%d"
                        % (args.workload or "reference", os.getpid()))
    make_spread_dir(work)
    try:
        if args.regen_reference:
            regen_reference(binary, work)
            return
        if not args.workload:
            ap.error("--workload is required")
        if args.trace:
            rounds, metrics = traced_run(binary, args, work)
        else:
            rounds = run_rounds(binary, args.workload, args.seed, work,
                                args.seconds)
            metrics = end_to_end(rounds)
            for k, m in metrics.items():
                print("%-16s %14.6g %s" % (k, m["value"], m["unit"]))
    finally:
        remove_work(work)

    attempted, failed = account(rounds)
    correct = verdict(rounds)
    report_digest(args.workload, args.seed, rounds[0]["digests"][0])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
