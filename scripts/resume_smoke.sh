#!/usr/bin/env bash
# CI resume-smoke: run a checkpointing campaign matrix, SIGKILL it the moment
# the first snapshot file lands on disk, resume from the surviving snapshots,
# and require the resumed --summary-json (per-job digests and result
# counters) to be byte-identical to an uninterrupted run's.
#
# Usage: scripts/resume_smoke.sh [path/to/themis_cli]
set -euo pipefail

CLI="${1:-./build/examples/themis_cli}"
if [[ ! -x "$CLI" ]]; then
  echo "resume-smoke: $CLI not found or not executable" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Two 24-virtual-hour campaigns on two worker threads: enough ops for
# several checkpoints per job, well under the CI time budget.
COMMON=(fuzz gluster --hours 24 --seed 20260806 --seeds 2 --jobs 2)

echo "resume-smoke: uninterrupted reference run"
"$CLI" "${COMMON[@]}" --summary-json="$WORK/reference.json" >/dev/null

CKPT="$WORK/ckpt"
mkdir -p "$CKPT"
echo "resume-smoke: checkpointing run (SIGKILL at first snapshot)"
"$CLI" "${COMMON[@]}" --checkpoint-dir="$CKPT" --checkpoint-every-ops 2000 \
    >/dev/null 2>&1 &
PID=$!
for _ in $(seq 1 6000); do
  if ls "$CKPT"/job-*.ckpt >/dev/null 2>&1; then break; fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.01
done
if kill -0 "$PID" 2>/dev/null; then
  kill -KILL "$PID"
  echo "resume-smoke: SIGKILLed pid $PID after the first checkpoint landed"
else
  # Also a valid path: resume then loads the final snapshots.
  echo "resume-smoke: campaign finished before the kill landed"
fi
wait "$PID" 2>/dev/null || true

echo "resume-smoke: surviving snapshots:"
ls -l "$CKPT"

echo "resume-smoke: resuming"
"$CLI" "${COMMON[@]}" --checkpoint-dir="$CKPT" --checkpoint-every-ops 2000 \
    --resume --summary-json="$WORK/resumed.json" >/dev/null

diff "$WORK/reference.json" "$WORK/resumed.json"
echo "resume-smoke: PASS — summaries byte-identical after SIGKILL + resume"
