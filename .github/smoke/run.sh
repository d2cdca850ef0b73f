#!/usr/bin/env bash
# The sanitized CI checks, one per entry of .github/smoke/manifest.json:
#
#   .github/smoke/run.sh CHECK
#
# Run from the repository root after building the entry's targets into an
# ASan+UBSan tree at build-asan/. Files worth keeping land in smoke-out/.
set -euo pipefail
tools=build-asan/tools
out=smoke-out
mkdir -p "$out"

# The tier-1 suite: catches lifetime bugs the allocation-lean hot path
# could otherwise hide (recycled event slots, moved-from payload
# envelopes, flat-array timer state).
sanitize() {
  ctest --test-dir build-asan -L tier1 --output-on-failure
}

# Each fault kind x one protocol, every run checked for safety; then a
# guarded sweep must survive a throwing point, and --fail-fast must turn
# that failure into exit 1. The librabft leader crash makes node 0 store
# blocks from a BlockResponse in both repeats, so the shared block store
# runs on the sweep's worker threads.
fault_matrix() {
  "$tools/fault_matrix"
  cat > "$out/sweep.json" <<'JSON'
{"repeats": 2, "points": [
  {"protocol": "pbft", "n": 4, "decisions": 1, "seed": 1,
   "faults": {"crashes": [{"node": 1, "at_ms": 200, "duration_ms": 800}]}},
  {"protocol": "librabft", "n": 16, "decisions": 10, "seed": 1,
   "faults": {"crashes": [{"node": 0, "at_ms": 500, "duration_ms": 2000}]}},
  {"protocol": "no-such-protocol", "n": 4, "seed": 7}
]}
JSON
  "$tools/run_sweep" "$out/sweep.json" --jobs 2 --max-events 2000000 \
    --out "$out/sweep_outcome.json"
  "$tools/run_sweep" "$out/sweep.json" --jobs 2 --fail-fast \
    && exit 1 || test $? -eq 1
}

# The same seed gives the same trace fingerprint through every sink.
trace_determinism() {
  ctest --test-dir build-asan -R Determinism --output-on-failure
  echo '{"protocol": "hotstuff-ns", "n": 7, "decisions": 5, "seed": 42}' \
    > "$out/trace.json"
  local inspect=$tools/trace_inspect sink
  declare -A fp
  for sink in jsonl binary; do
    "$inspect" record "$out/trace.json" --sink "$sink" --out "$out/a.$sink" > /dev/null
    "$inspect" record "$out/trace.json" --sink "$sink" --out "$out/b.$sink" > /dev/null
    "$inspect" diff "$out/a.$sink" "$out/b.$sink"
    fp[$sink]=$("$inspect" fingerprint "$out/a.$sink" | cut -d' ' -f1)
    echo "$sink fingerprint: ${fp[$sink]}"
  done
  test "${fp[jsonl]}" = "${fp[binary]}"
  "$inspect" diff "$out/a.jsonl" "$out/a.binary"
}

# examples/configs/$1_sweep.json gives a byte-identical outcome at --jobs 1
# and --jobs 4 (--zero-wall removes the only wall-clock field), and the
# test battery matching $2 (goldens included) passes.
sweep_matrix() {
  local jobs
  for jobs in 1 4; do
    "$tools/run_sweep" "examples/configs/$1_sweep.json" --jobs "$jobs" \
      --zero-wall --out "$out/$1_jobs$jobs.json"
  done
  diff "$out/$1_jobs1.json" "$out/$1_jobs4.json"
  ctest --test-dir build-asan -R "$2" --output-on-failure
}
wan_matrix() { sweep_matrix wan Wan; }
workload_matrix() { sweep_matrix workload Workload; }

# The canary campaign finds the planted quorum bug and shrinks every
# finding; emitted findings and the checked-in corpus replay; real
# protocols come back clean; the report does not depend on --jobs.
fuzz_smoke() {
  local canary=(fuzz --canary --seed 1 --scenarios 12)
  "$tools/explore" "${canary[@]}" --jobs 4 --out "$out/canary_report.json" \
    --repro-dir "$out/canary" && exit 1 || test $? -eq 1  # 1: findings
  # At least one finding; each took a shrinking step and has a sub-minute
  # horizon.
  jq -se 'length >= 1 and all(.[]; .shrink_steps >= 1 and
    .config.max_time_ms <= 60000)' "$out"/canary/*.json
  "$tools/explore" replay "$out/canary" tests/data/findings
  "$tools/explore" fuzz --seed 3 --scenarios 20 --jobs 2 \
    --out "$out/clean_report.json"
  "$tools/explore" "${canary[@]}" --jobs 1 --out "$out/canary_jobs1.json" \
    && exit 1 || test $? -eq 1
  diff "$out/canary_report.json" "$out/canary_jobs1.json"
}

# A mini search finds nonzero damage and emits findings that replay; its
# report and table do not depend on --jobs.
adversary_smoke() {
  local search=(search --seed 5 --protocols pbft --grid 6 --rounds 1)
  "$tools/explore" "${search[@]}" --jobs 4 --out "$out/adv_report.json" \
    --repro-dir "$out/adv" > "$out/adv_table.txt"
  cat "$out/adv_table.txt"
  "$tools/explore" replay "$out/adv"
  "$tools/explore" "${search[@]}" --jobs 1 --out "$out/adv_jobs1.json" \
    > "$out/adv_table_jobs1.txt"
  diff "$out/adv_report.json" "$out/adv_jobs1.json"
  diff "$out/adv_table.txt" "$out/adv_table_jobs1.txt"
}

check=${1:?usage: .github/smoke/run.sh CHECK}
"${check//-/_}"
