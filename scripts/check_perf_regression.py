#!/usr/bin/env python3
"""Gate CI on throughput regressions.

Compares the `throughput.<flavor>.ops_per_sec` gauges of a freshly measured
bench summary against the checked-in baseline (BENCH_throughput.json) and
exits nonzero if any series dropped more than the allowed fraction.

Only the raw-execution ops_per_sec series are gated: they time a 30k-op
deterministic loop and are stable on shared runners. The campaign_* series
measure a full campaign whose wall time is milliseconds, so they are
reported for trend-watching but far too noisy to gate on. The same applies
to the `scale.*` prefix: matched by name across the two documents and
printed for trend, never delta-gated.

Two structural checks ARE hard failures, because they catch a broken bench
document rather than slow code:

  * a malformed or truncated BENCH_*.json (invalid JSON, missing or
    non-dict "gauges", non-numeric gauge values) exits 2 instead of
    silently gating on nothing;
  * a scale.<series>.n<N> row carrying ops_per_sec but neither
    campaign_ops_per_sec nor an explicit campaign_skipped marker exits 2 —
    a silently dropped campaign leg must not read as an intentional skip.

Usage: check_perf_regression.py BASELINE.json CURRENT.json [--max-drop 0.20]
"""

import argparse
import json
import sys

INFORMATIONAL_PREFIXES = ("scale.",)


def load_gauges(path):
    """Returns the gauges dict; exits 2 on a malformed bench document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        print(f"error: cannot read bench document {path}: {exc}")
        sys.exit(2)
    except json.JSONDecodeError as exc:
        print(f"error: bench document {path} is not valid JSON "
              f"(truncated write?): {exc}")
        sys.exit(2)
    if not isinstance(doc, dict) or "gauges" not in doc:
        print(f'error: bench document {path} has no "gauges" section')
        sys.exit(2)
    gauges = doc["gauges"]
    if not isinstance(gauges, dict):
        print(f'error: bench document {path} "gauges" is not an object')
        sys.exit(2)
    bad = sorted(k for k, v in gauges.items()
                 if isinstance(v, bool) or not isinstance(v, (int, float)))
    if bad:
        print(f"error: bench document {path} has non-numeric gauges: "
              f"{bad[:5]}")
        sys.exit(2)
    return gauges


def check_scale_rows(path, gauges):
    """Every scale row must resolve its campaign leg: measured or marked."""
    problems = []
    for key in sorted(gauges):
        if not key.startswith("scale.") or not key.endswith(".ops_per_sec"):
            continue
        if key.endswith(".campaign_ops_per_sec"):
            continue
        row = key[: -len(".ops_per_sec")]
        if (f"{row}.campaign_ops_per_sec" not in gauges
                and f"{row}.campaign_skipped" not in gauges):
            problems.append(row)
    if problems:
        print(f"error: {path} has scale rows with neither "
              f"campaign_ops_per_sec nor a campaign_skipped marker: "
              f"{problems}")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="maximum allowed fractional drop (default 0.20)")
    args = parser.parse_args()

    baseline = load_gauges(args.baseline)
    current = load_gauges(args.current)
    check_scale_rows(args.baseline, baseline)
    check_scale_rows(args.current, current)

    def gateable(key):
        return (key.startswith("throughput.") and key.endswith(".ops_per_sec")
                and not key.endswith(".campaign_ops_per_sec"))

    gated = sorted(k for k in baseline if gateable(k) and k in current)
    # Series on only one side are skipped, never failed: a freshly added
    # flavor or a scale.* sweep key lands in one file before the other, and
    # the gate must not block that first landing.
    only_baseline = sorted(k for k in baseline if gateable(k) and k not in current)
    only_current = sorted(k for k in current if gateable(k) and k not in baseline)
    if not gated:
        print(f"error: no common throughput.*.ops_per_sec gauges between "
              f"{args.baseline} and {args.current}")
        return 2

    failures = []
    print(f"{'series':<40} {'baseline':>12} {'current':>12} {'delta':>8}")
    for key in gated:
        base = float(baseline[key])
        cur = float(current[key])
        delta = (cur - base) / base if base > 0 else 0.0
        flag = ""
        if delta < -args.max_drop:
            failures.append(
                f"{key}: {base:.0f} -> {cur:.0f} ({delta:+.1%}, "
                f"limit -{args.max_drop:.0%})")
            flag = "  <-- REGRESSION"
        print(f"{key:<40} {base:>12.0f} {cur:>12.0f} {delta:>+7.1%}{flag}")
    for key in only_baseline:
        print(f"{key:<40} {float(baseline[key]):>12.0f} {'(absent)':>12} "
              f"{'skip':>8}")
    for key in only_current:
        print(f"{key:<40} {'(new)':>12} {float(current[key]):>12.0f} "
              f"{'skip':>8}")

    # Informational prefixes: matched by name across the two documents,
    # printed for trend-watching, never part of the delta gate.
    info_keys = sorted(k for k in set(baseline) | set(current)
                       if k.startswith(INFORMATIONAL_PREFIXES))
    if info_keys:
        print(f"\n{'informational series (not gated)':<40} {'baseline':>12} "
              f"{'current':>12}")
        for key in info_keys:
            base = (f"{float(baseline[key]):.0f}" if key in baseline
                    else "(absent)")
            cur = (f"{float(current[key]):.0f}" if key in current
                   else "(absent)")
            print(f"{key:<40} {base:>12} {cur:>12}")

    if failures:
        print("\nperf regression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    skipped = len(only_baseline) + len(only_current)
    print(f"\nperf regression gate passed ({len(gated)} series gated, "
          f"{skipped} skipped, max allowed drop {args.max_drop:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
