#!/usr/bin/env bash
# End-to-end checks of the `trace_tool` command line, run in order by CI's
# `cli-smoke` job; the first failure stops the script. Scratch files live
# in a fresh `mktemp -d` directory, removed on exit. The serve digest and
# the unknown-flag contract are pinned in process instead, by
# crates/chronos-bench/tests/{trace_tool_cli,serve_replay}.rs.
#
#   cargo build --release --bin trace_tool && ci/cli_smoke.sh
set -euo pipefail

TT=./target/release/trace_tool
GOLDEN=crates/chronos-bench/tests/golden/google2011_converted.trace
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# trace-replay-smoke: write -> parse -> shard -> merge of a generated trace
# at 8 workers must be byte-identical to the in-memory replay at 1 worker.
echo "== trace-replay-smoke =="
"$TT" generate --jobs 2000 --seed 91 --out "$WORK/smoke.trace"
"$TT" replay --trace "$WORK/smoke.trace" --workers 8 --out "$WORK/report_file.json"
"$TT" replay --jobs 2000 --seed 91 --workers 1 --out "$WORK/report_memory.json"
cmp "$WORK/report_file.json" "$WORK/report_memory.json"

# Without --out the report streams to stdout, followed by the summary
# lines; everything up to the top-level closing brace must be the --out
# file's bytes.
"$TT" replay --trace "$WORK/smoke.trace" --workers 8 > "$WORK/report_stdout.txt"
sed -n '1,/^}$/p' "$WORK/report_stdout.txt" > "$WORK/report_stdout.json"
cmp "$WORK/report_file.json" "$WORK/report_stdout.json"

# A truncated trace must fail with the typed truncation error (not any
# nonzero exit) and write no report for the prefix.
head -n -1 "$WORK/smoke.trace" > "$WORK/truncated.trace"
if "$TT" replay --trace "$WORK/truncated.trace" --workers 8 --out "$WORK/should_not_exist.json" 2> "$WORK/replay_err.txt"; then
  echo "truncated trace replayed without error" >&2; exit 1
fi
grep -q "truncated trace" "$WORK/replay_err.txt" || { echo "replay failed, but not with the typed truncation error:" >&2; cat "$WORK/replay_err.txt" >&2; exit 1; }
test ! -e "$WORK/should_not_exist.json" || { echo "a report was written for a truncated trace" >&2; exit 1; }

# trace-convert-smoke: the Google 2011 task_events fixture must convert to
# the checked-in v1 golden byte for byte (grouping, Pareto fit and emission
# are bit-stable across hosts).
echo "== trace-convert-smoke =="
"$TT" convert \
  crates/chronos-bench/tests/fixtures/google2011_task_events.csv \
  "$WORK/converted.trace" --format google-2011
cmp "$WORK/converted.trace" "$GOLDEN"

# The converted trace replays bit-identically at 8 and 1 workers through
# the shared plan cache (s-resume on real fitted profiles).
"$TT" replay --trace "$WORK/converted.trace" --policy s-resume --workers 8 --out "$WORK/report_w8.json"
"$TT" replay --trace "$WORK/converted.trace" --policy s-resume --workers 1 --out "$WORK/report_w1.json"
cmp "$WORK/report_w8.json" "$WORK/report_w1.json"

# A garbage row must fail with the typed error naming its 1-based line
# and leave neither the target nor its .partial staging file behind.
cp crates/chronos-bench/tests/fixtures/google2011_task_events.csv "$WORK/bad.csv"
echo "not,a,valid,row" >> "$WORK/bad.csv"
if "$TT" convert "$WORK/bad.csv" "$WORK/should_fail.trace" --format google-2011 2> "$WORK/convert_err.txt"; then
  echo "malformed foreign trace converted without error" >&2; exit 1
fi
grep -q "line 64" "$WORK/convert_err.txt" || { echo "conversion failed, but without naming the offending line:" >&2; cat "$WORK/convert_err.txt" >&2; exit 1; }
test ! -e "$WORK/should_fail.trace" || { echo "a converted trace was written for a malformed input" >&2; exit 1; }
test ! -e "$WORK/should_fail.trace.partial" || { echo "the staging file survived a failed conversion" >&2; exit 1; }

# budget-smoke: the budgeted s-restart allocation digest and report must
# not depend on the worker count. The digest is taken from the 8-worker run
# (grant values are pinned by unit tests and tests/pinned_workload.rs).
echo "== budget-smoke =="
"$TT" replay --trace "$GOLDEN" --policy s-restart --budget 2 --workers 8 --out "$WORK/budget_w8.json" | tee "$WORK/budget_w8.txt"
DIGEST=$(grep -o 'allocation digest: [0-9a-f]*' "$WORK/budget_w8.txt" | cut -d' ' -f3)
test -n "$DIGEST" || { echo "no allocation digest in the 8-worker output" >&2; exit 1; }
"$TT" replay --trace "$GOLDEN" --policy s-restart --budget 2 --workers 1 --out "$WORK/budget_w1.json" | tee "$WORK/budget_w1.txt"
grep -q "allocation digest: $DIGEST" "$WORK/budget_w1.txt"
cmp "$WORK/budget_w8.json" "$WORK/budget_w1.json"

# obs-smoke: with the decision recorder on, logs, digests, reports and
# Prometheus snapshots are identical at 8 and 1 workers, the snapshot
# equals tests/golden/google2011_obs.prom, and a recorder-off replay
# produces the identical report (observation only).
echo "== obs-smoke =="
"$TT" replay --trace "$GOLDEN" --policy s-resume --workers 8 \
  --out "$WORK/obs_w8.json" --decision-log "$WORK/obs_w8.log" --metrics-out "$WORK/obs_w8.prom" | tee "$WORK/obs_w8.txt"
"$TT" replay --trace "$GOLDEN" --policy s-resume --workers 1 \
  --out "$WORK/obs_w1.json" --decision-log "$WORK/obs_w1.log" --metrics-out "$WORK/obs_w1.prom" | tee "$WORK/obs_w1.txt"
cmp "$WORK/obs_w8.log" "$WORK/obs_w1.log"
cmp "$WORK/obs_w8.prom" "$WORK/obs_w1.prom"
cmp "$WORK/obs_w8.json" "$WORK/obs_w1.json"
DIGEST=$(grep -o 'decision trace digest: [0-9a-f]*' "$WORK/obs_w8.txt" | cut -d' ' -f4)
test -n "$DIGEST" || { echo "no decision trace digest in the 8-worker output" >&2; exit 1; }
grep -q "decision trace digest: $DIGEST" "$WORK/obs_w1.txt"
cmp "$WORK/obs_w8.prom" crates/chronos-bench/tests/golden/google2011_obs.prom
"$TT" replay --trace "$GOLDEN" --policy s-resume --workers 8 --out "$WORK/obs_off.json"
cmp "$WORK/obs_w8.json" "$WORK/obs_off.json"

# placement-smoke: deadline-aware placement with the recorder on: reports
# and PlacementDecision logs identical at 8 and 1 workers, the digest
# pinned as a literal, and the log non-empty (empty vs empty gates nothing).
echo "== placement-smoke =="
DIGEST=bb33ff08919fbd80
"$TT" replay --trace "$GOLDEN" --policy s-restart --placement deadline-aware --workers 8 \
  --out "$WORK/place_w8.json" --decision-log "$WORK/place_w8.log" | tee "$WORK/place_w8.txt"
grep -q "decision trace digest: $DIGEST" "$WORK/place_w8.txt"
grep -q "placement node=" "$WORK/place_w8.log"
"$TT" replay --trace "$GOLDEN" --policy s-restart --placement deadline-aware --workers 1 \
  --out "$WORK/place_w1.json" --decision-log "$WORK/place_w1.log" | tee "$WORK/place_w1.txt"
grep -q "decision trace digest: $DIGEST" "$WORK/place_w1.txt"
cmp "$WORK/place_w8.json" "$WORK/place_w1.json"
cmp "$WORK/place_w8.log" "$WORK/place_w1.log"

echo "cli smoke OK"
