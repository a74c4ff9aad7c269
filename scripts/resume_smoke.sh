#!/usr/bin/env bash
# CI resume-smoke: run a checkpointing campaign matrix, SIGKILL it the moment
# the first snapshot file lands on disk, resume from the surviving snapshots,
# and require the resumed --summary-json (per-job digests and result
# counters) to be byte-identical to an uninterrupted run's. Two matrices:
# GlusterFS on the Table 2 faults, and LeoFS on the historical corpus, whose
# snapshots carry the ring-weights record and a full fault history.
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

# Usage: kill_and_resume NAME FUZZ-ARGS...
kill_and_resume() {
  local name="$1"
  shift
  local common=("$@")
  local dir="$WORK/$name"
  local ckpt="$dir/ckpt"
  mkdir -p "$ckpt"

  echo "resume-smoke[$name]: uninterrupted reference run"
  "$CLI" "${common[@]}" --summary-json="$dir/reference.json" >/dev/null

  echo "resume-smoke[$name]: checkpointing run (SIGKILL at first snapshot)"
  "$CLI" "${common[@]}" --checkpoint-dir="$ckpt" --checkpoint-every-ops 2000 \
      >/dev/null 2>&1 &
  local pid=$!
  for _ in $(seq 1 6000); do
    if ls "$ckpt"/job-*.ckpt >/dev/null 2>&1; then break; fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.01
  done
  if kill -0 "$pid" 2>/dev/null; then
    kill -KILL "$pid"
    echo "resume-smoke[$name]: SIGKILLed pid $pid after the first checkpoint landed"
  else
    # Also a valid path: resume then loads the final snapshots.
    echo "resume-smoke[$name]: campaign finished before the kill landed"
  fi
  wait "$pid" 2>/dev/null || true

  echo "resume-smoke[$name]: surviving snapshots:"
  ls -l "$ckpt"

  echo "resume-smoke[$name]: resuming"
  "$CLI" "${common[@]}" --checkpoint-dir="$ckpt" --checkpoint-every-ops 2000 \
      --resume --summary-json="$dir/resumed.json" >/dev/null

  diff "$dir/reference.json" "$dir/resumed.json"
  echo "resume-smoke[$name]: PASS — summaries byte-identical after SIGKILL + resume"
}

# Two 24-virtual-hour campaigns on two worker threads each: enough ops for
# several checkpoints per job, well under the CI time budget.
kill_and_resume gluster fuzz gluster --hours 24 --seed 20260806 --seeds 2 --jobs 2
kill_and_resume leo-historical fuzz leo --historical --hours 24 --seed 20260806 --seeds 2 --jobs 2
