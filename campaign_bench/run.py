#!/usr/bin/env python3
"""Campaign benchmark for the Themis reproduction.

Builds campaign_bench (this directory's CMake package, which compiles ../src),
runs one workload and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 campaign_bench/run.py --workload newbugs --seed 7 --seconds 30 --trace 0
    python3 campaign_bench/run.py --smoke          # every workload, tiny budget
    python3 campaign_bench/run.py --write-pins     # regenerate pins.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The build goes to $CARGO_TARGET_DIR/campaign_bench (default
.bench_build/campaign_bench); per-run documents and span traces go next to it.
See README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("newbugs", "healthy", "historical-env")
DEFAULT_SEED = 1
HOURS = 24
SMOKE_HOURS = 2
# Extra processes that only set up, so setup_s is a median of nine.
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150
# Rounds (one campaign per flavor) pinned per workload for the default seed;
# about twice what a 30-second run reaches on the machine the pins came from.
PIN_ROUNDS = {"newbugs": 120, "healthy": 140, "historical-env": 260}
SMOKE_PIN_ROUNDS = 2
FLAVORS = 5
MATRIX_DEPTH = 400  # seeds per flavor in the matrix (kMatrixDepth in main.cc)


def log(message):
    print(f"campaign_bench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "campaign_bench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "campaign_bench")


def run_child(cmd):
    """Runs the binary; returns (JSON of its last stdout line, start time)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{' '.join(cmd)} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1]), start


def bench_args(binary, workload, seed, seconds, trace, hours, min_campaigns=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--hours", str(hours)]
    if min_campaigns is not None:
        cmd += ["--min-campaigns", str(min_campaigns)]
    return cmd


def pin_key(workload, hours):
    return f"{workload}@{hours}h"


def pin_value(record):
    return " ".join([record["digest"]] + record["bugs"])


def check_pins(doc, seed):
    """Marks every record that contradicts pins.json. Returns the count checked."""
    if not os.path.exists(PINS):
        return 0
    with open(PINS) as f:
        pins = json.load(f)
    if seed != pins["matrix_seed"]:
        return 0
    pinned = pins["sets"].get(pin_key(doc["workload"], doc["hours"]), {})
    checked = 0
    for record in doc["campaigns"]:
        want = pinned.get(str(record["index"]))
        if want is None:
            continue
        checked += 1
        if record["why"] == "" and pin_value(record) != want:
            record["why"] = f"digest/bugs {pin_value(record)!r} != pinned {want!r}"
    return checked


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "campaign_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(binary, workload, seed, seconds, trace, hours=HOURS, min_campaigns=None):
    """One benchmark run; returns (result line, full document)."""
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, start = run_child(
                [binary, "--workload", workload, "--seed", str(seed), "--setup-only",
                 "--hours", str(hours)])
            setups.append(probe["setup_end_mono"] - start)
    cmd = bench_args(binary, workload, seed, seconds, trace, hours, min_campaigns)
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{workload}-seed{seed}-trace{trace}")
    if trace:
        cmd += ["--trace-out", stem + ".spans.csv"]
    doc, start = run_child(cmd)
    setups.append(doc["setup_end_mono"] - start)

    pins_checked = check_pins(doc, seed)
    metrics = dict(doc["metrics"])
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    failed = sum(1 for r in doc["campaigns"] if r["why"]) + len(doc["checks"])
    problems = list(doc["checks"]) + [
        f"campaign {r['index']} ({r['flavor']}): {r['why']}" for r in doc["campaigns"] if r["why"]]
    wanted = declared_metrics(trace)
    if wanted is not None:
        missing = [name for name in wanted if name not in metrics]
        extra = [name for name in metrics if name not in wanted]
        if missing or extra:
            problems.append(f"metric set differs from BENCHMARK.json: missing {missing}, "
                            f"extra {extra}")
            failed += 1
        metrics = {name: metrics[name] for name in wanted if name in metrics}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            problems.append(f"metric {name} is not finite")
            failed += 1

    doc["fingerprint"].update(git_commit=git_commit(), source_digest=source_digest())
    doc["setup_samples_s"] = setups
    doc["pins_checked"] = pins_checked
    doc["problems"] = problems
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1)
    if not doc["fingerprint"]["optimized"]:
        log(f"WARNING: non-optimised build ({doc['fingerprint']['build_type']}); "
            "timings are not comparable")
    for problem in problems[:20]:
        log(f"check failed: {problem}")
    result = {"correct": failed == 0, "attempted": len(doc["campaigns"]), "failed": failed,
              "metrics": metrics}
    return result, doc


def smoke(binary):
    """Every workload, untraced and traced, at a tiny budget with all checks."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, doc = measure(binary, workload, DEFAULT_SEED, 0, trace, hours=SMOKE_HOURS,
                                  min_campaigns=SMOKE_PIN_ROUNDS * FLAVORS)
            good = result["correct"] and doc["pins_checked"] > 0
            ok = ok and good
            log(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                f"({result['attempted']} campaigns, {doc['pins_checked']} pinned)")
    return ok


def write_pins(binary):
    sets = {}
    for workload, rounds in PIN_ROUNDS.items():
        for hours, count in ((HOURS, rounds), (SMOKE_HOURS, SMOKE_PIN_ROUNDS)):
            doc, _ = run_child(bench_args(binary, workload, DEFAULT_SEED, 0, 0, hours,
                                          min_campaigns=count * FLAVORS))
            bad = [r for r in doc["campaigns"] if r["why"]] + doc["checks"]
            if bad:
                raise RuntimeError(f"cannot pin {workload}@{hours}h: {bad[:3]}")
            limit = {f * MATRIX_DEPTH + r for f in range(FLAVORS) for r in range(count)}
            sets[pin_key(workload, hours)] = {
                str(r["index"]): pin_value(r)
                for r in sorted(doc["campaigns"], key=lambda r: r["index"])
                if r["index"] in limit}
            log(f"pinned {len(sets[pin_key(workload, hours)])} campaigns of {workload}@{hours}h")
    with open(PINS, "w") as f:
        json.dump({"matrix_seed": DEFAULT_SEED, "sets": sets}, f, indent=0, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.write_pins or args.workload):
        parser.error("--workload is required")
    try:
        binary = build()
        if args.smoke:
            return 0 if smoke(binary) else 1
        if args.write_pins:
            write_pins(binary)
            return 0
        result, doc = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"fingerprint": doc["fingerprint"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
