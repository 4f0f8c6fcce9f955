#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary and the mrs libraries from source (CMake,
Release) into .bench_build/ at the checkout root, runs the workload in its
own process under a watchdog, and prints the metrics named in
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 prints the end-to-end
metrics; --trace 1 makes a traced run and prints the per-layer ones.
NOTES.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("iterate", "wordcount", "distsort-spill", "pi-ladder")

SETUP_CYCLES = 9

# Watchdog: a process that prints nothing for IDLE_DEADLINE_S (one unit
# takes about a second) has stalled; CYCLES_DEADLINE_S bounds the set-up
# process and TOTAL_MARGIN_S the measuring one beyond its window.  Each
# ends the run and counts the unit in flight as failed.
IDLE_DEADLINE_S = 30
CYCLES_DEADLINE_S = 60
TOTAL_MARGIN_S = 75


class BuildError(Exception):
    pass


def build():
    """Configure once, then build incrementally; returns the binary path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BuildError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BuildError("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    if subprocess.call([cmake, "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr) != 0:
        raise BuildError("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


class Stall(Exception):
    pass


def lines_with_deadline(proc, idle_s, total_s):
    """Yield the process's stdout lines; raise Stall past either deadline."""
    fd = proc.stdout.fileno()
    start = last = time.monotonic()
    buf = b""
    while True:
        wait = min(last + idle_s, start + total_s) - time.monotonic()
        if wait <= 0:
            raise Stall()
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            if buf:
                yield buf.decode()
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            last = time.monotonic()
            yield line.decode()


def watch(cmd, env, idle_s, total_s):
    """Run cmd, collecting its JSON lines until it exits or stalls.

    Returns (records, stalled, returncode).  A stalled process is killed
    and reaped before this returns.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    records = []
    stalled = False
    try:
        for line in lines_with_deadline(proc, idle_s, total_s):
            line = line.strip()
            if line.startswith("{"):
                records.append(json.loads(line))
    except Stall:
        stalled = True
        proc.kill()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        returncode = proc.wait()
    return records, stalled, returncode


def tally(units, broken):
    """(attempted, failed) units.  A run that ended early (stalled, crashed
    or without a summary) adds the unit in flight, which never delivered a
    verified result, to both."""
    attempted = len(units) + (1 if broken else 0)
    failed = sum(1 for u in units if not u["ok"]) + (1 if broken else 0)
    return attempted, failed


def merge_summaries(summaries):
    """The measuring process's summary, with the set-up and teardown
    samples of every process."""
    merged = dict(summaries[-1])
    for key in ("setup_s", "teardown_s"):
        merged[key] = [x for summary in summaries for x in summary[key]]
    return merged


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end_metrics(units, summary):
    par = [u["s"] for u in units if u["unit"] == "par" and u["ok"]]
    ser = [u["s"] for u in units if u["unit"] == "ser" and u["ok"]]
    return {
        "setup_s": stats.median(summary["setup_s"]),
        "teardown_s": stats.median(summary["teardown_s"]),
        "job_s": stats.median(par),
        "serial_job_s": stats.median(ser),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def per_layer_metrics(units, summary):
    metrics = dict(summary["layers"])
    par = [u for u in units if u["unit"] == "par" and u["ok"]]
    times = [u["s"] for u in par]
    first, last = stats.quarter_medians(times)
    pct, tail = stats.tail(times)
    traced = [u["s"] for u in par if u["traced"]]
    untraced = [u["s"] for u in par if not u["traced"]]
    overhead = 0.0
    if traced and untraced:
        overhead = (stats.median(traced) / stats.median(untraced) - 1) * 100
    warm = next(u["s"] for u in units if u["unit"] == "warm")
    metrics.update({
        "rt.first_job_s": warm,
        "rt.round_first_quarter_s": first,
        "rt.round_last_quarter_s": last,
        "rt.job_tail_s": tail,
        "rt.job_tail_pct": pct,
        "rt.units": len(times),
        "obs.tracing_overhead_pct": overhead,
    })
    return metrics


def select_metrics(spec, computed, trace):
    """Attach units from BENCHMARK.json; the two name sets must agree."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(computed) != names:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(names - set(computed)),
                                       sorted(set(computed) - names)))
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
            for m in wanted}


def info_lines(units, summary):
    """Per-part figures that are not gated, e.g. the π engine ladder."""
    info = summary.get("info", {})
    lines = []
    parts = [u["parts"] for u in units
             if u["unit"] == "par" and u["ok"] and "parts" in u]
    for i, name in enumerate(info.get("parts", [])):
        if parts:
            sec = stats.median([p[i] for p in parts])
            lines.append("  pi_%s_us_per_sample = %.6g us (%d jobs)" % (
                name, sec / info["samples"][i] * 1e6, len(parts)))
    return lines


def source_digest():
    """SHA-1 over the program and benchmark sources, a stand-in for the
    commit in checkouts that are not git repositories."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    try:
        binary = build()
    except BuildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=work_dir)
    # Untraced runs time set-up and teardown in a process of their own
    # (see perfbench.cpp), then measure the window in a fresh process.
    passes = [] if args.trace else [(["--cycles", str(SETUP_CYCLES)],
                                     CYCLES_DEADLINE_S)]
    passes.append(([], args.seconds + TOTAL_MARGIN_S))
    units, summaries, broken = [], [], False
    try:
        for extra, total_s in passes:
            records, stalled, returncode = watch(cmd + extra, env,
                                                 IDLE_DEADLINE_S, total_s)
            units += [r for r in records if "unit" in r]
            summary = next((r["summary"] for r in records
                            if "summary" in r), None)
            if stalled or returncode != 0 or summary is None:
                broken = True
                print("perfbench: run ended early (%s, exit %s)" % (
                    "stalled" if stalled else "no summary", returncode),
                    file=sys.stderr)
                break
            summaries.append(summary)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = tally(units, broken)
    summary = None if broken else merge_summaries(summaries)

    metrics = {}
    if summary is not None:
        computed = (per_layer_metrics if args.trace else end_to_end_metrics)(
            units, summary)
        metrics = select_metrics(spec, computed, args.trace)
        fingerprint = dict(summary["fingerprint"], commit=commit(),
                           source_sha1=source_digest())
        print("perfbench %s seed=%d trace=%d: %d units, failed_ratio %.4g" % (
            args.workload, args.seed, args.trace, attempted,
            stats.failed_ratio(attempted, failed)))
        for name, m in metrics.items():
            print("  %s = %.6g %s" % (name, m["value"], m["unit"]))
        for line in info_lines(units, summary):
            print(line)
        print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    correct = failed == 0 and summary is not None and \
        summary.get("replay_failures", 0) == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
