#!/usr/bin/env bash
# The alternating-pairs protocol, as one command.
#
#   bash scripts/ab-pairs.sh [--record <file>] [--layers] <parent-harness> <change-harness> <workload> <seconds> <pairs> [seed]
#
# Runs the two harness binaries (`benchmark/`, built from each commit into
# its own target directory) `pairs` times each on one workload, alternating
# which side runs first, with `--trace 0`. Prints every run's end-to-end
# metrics as it lands, then per metric of BENCHMARK.json's `end_to_end`
# list: each side's median, how many pairs the change won (ties count for
# neither), the parent's q1/q3 (Python's exclusive quartiles, as the
# benchmark pipeline computes them) and where the change median sits
# against that IQR; then `failed` summed per side; finally each run's
# set-up repetitions (the count in its `set-ups:` stderr line: the harness
# repeats set-up while the repetitions take under 3 s together, so a faster
# set-up runs more of them, which can move `peak_rss_mib`). A gain is
# claimed only with >= 9/10 wins and the change median outside the parent
# IQR.
#
# `--layers` runs both sides with `--trace 1` instead: a traced run
# reports BENCHMARK.json's `per_layer` metrics (the layer-tax ladder and
# the other canaries) in place of the end-to-end ones. The script then
# prints each run's non-zero layer readings and the same summary for
# every `per_layer` name the workload reports as non-zero on some run
# (a workload reports every name, zero for those it does not measure).
# Layer readings are reported, never gated.
#
# `--record <file>` (relative to the repository root) also appends the
# summary to <file> as one JSON line: UTC date, each binary's file name and
# SHA-256, workload, seed, seconds, pairs, `nproc`, the transparent huge
# page mode, per metric both medians, the parent's q1/q3 and the wins,
# `failed` per side, and the set-up repetitions per side in pair order.
# `BENCH_HISTORY.jsonl` is the committed history.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

record="" layers=0
while [ $# -gt 0 ]; do
  case "$1" in
    --record) [ $# -ge 2 ] || break; record="$2"; shift 2 ;;
    --layers) layers=1; shift ;;
    *) break ;;
  esac
done
if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  sed -n '4p' "$0" | sed 's/^# *//' >&2
  exit 2
fi
parent="$1" change="$2" workload="$3" seconds="$4" pairs="$5" seed="${6:-1}"
for b in "$parent" "$change"; do
  [ -x "$b" ] || { echo "ab-pairs: no harness binary at $b" >&2; exit 2; }
done

# name/direction of each metric the runs report (`end_to_end`, or
# `per_layer` with --layers), one per line
list="end_to_end" trace=0
if ((layers)); then list="per_layer" trace=1; fi
metrics="$(awk -v list="\"$list\"" '
  index($0, list) { on = 1; next }
  on && /\]/ { exit }
  on && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
  on && /"better"/ { d = $0; sub(/.*"better": *"/, "", d); sub(/".*/, "", d); print n, d }
' BENCHMARK.json)"
[ -n "$metrics" ] || { echo "ab-pairs: no $list metrics in BENCHMARK.json" >&2; exit 2; }

runs="$(mktemp)" errs="$(mktemp)"
trap 'rm -f "$runs" "$errs"' EXIT

# One run: "<side> <pair> <metric> <value>" lines, plus "<side> <pair> failed <n>"
# and "<side> <pair> setups <n>".
run() {
  local side="$1" pair="$2" bin="$3" line setups
  line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>"$errs" | tail -n 1)"
  # "set-ups: [0.656, 0.612, ...] s": one comma fewer than repetitions
  setups="$(awk '/^set-ups:/ { n = gsub(/,/, ",") + 1 } END { print n + 0 }' "$errs")"
  printf '%s\n' "$metrics" | awk -v side="$side" -v pair="$pair" -v line="$line" -v setups="$setups" '
    BEGIN {
      f = line; sub(/.*"failed": */, "", f); sub(/[^0-9].*/, "", f)
      printf "%s %d failed %s\n", side, pair, f
      printf "%s %d setups %d\n", side, pair, setups
    }
    {
      key = "\"" $1 "\": {\"value\": "
      i = index(line, key)
      if (i == 0) { printf "ab-pairs: %s missing from %s run %d\n", $1, side, pair > "/dev/stderr"; exit 1 }
      v = substr(line, i + length(key)); sub(/[^-0-9.eE+].*/, "", v)
      printf "%s %d %s %s\n", side, pair, $1, v
    }'
}

for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then bin="$parent"; else bin="$change"; fi
    run "$side" "$p" "$bin" | tee -a "$runs" | awk -v s="$side" -v p="$p" -v layers="$layers" '
      !layers || $4 != 0 || $3 == "failed" { v[++n] = $3 "=" $4 }
      END { printf "pair %2d %-6s", p, s; for (i = 1; i <= n; i++) printf " %s", v[i]; print "" }'
  done
done

header=""
if [ -n "$record" ]; then
  thp="$(sed 's/.*\[\(.*\)\].*/\1/' /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || echo unknown)"
  bin_json() { printf '{"file": "%s", "sha256": "%s"}' "$(basename "$1")" "$(sha256sum "$1" | cut -d' ' -f1)"; }
  header="$(printf '"date": "%s", "parent": %s, "change": %s, "workload": "%s", "seed": %s, "seconds": %s, "trace": %s, "pairs": %s, "nproc": %s, "thp": "%s"' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(bin_json "$parent")" "$(bin_json "$change")" \
    "$workload" "$seed" "$seconds" "$trace" "$pairs" "$(nproc)" "$thp")"
fi

printf '%s\n' "$metrics" | awk -v runs="$runs" -v pairs="$pairs" -v workload="$workload" -v seed="$seed" \
  -v record="$record" -v header="$header" -v layers="$layers" '
function sort(a, n,    i, j, t) {              # insertion sort, a[1..n]
  for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function cut(a, n, i,    m, j, d) {            # Python statistics.quantiles(n=4), exclusive
  m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
  d = i * m - j * 4
  return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
BEGIN {
  while ((getline line < runs) > 0) {
    split(line, f, " ")
    val[f[1], f[2], f[3]] = f[4]
    if (f[3] == "failed") failed[f[1]] += f[4]
    if (f[3] == "setups") setups[f[1]] = setups[f[1]] (f[2] == 1 ? "" : ", ") f[4]
  }
  printf "%s, seed %s, %d pairs%s\n", workload, seed, pairs, layers ? ", traced: per-layer metrics" : ""
  w = layers ? 44 : 28
  printf "%-*s %12s %12s %6s %12s %12s  %s\n", w, "metric", "parent med", "change med", "wins", "parent q1", "parent q3", "change vs parent IQR"
}
{
  name = $1; lower = ($2 == "lower")
  wins = 0; nonzero = 0
  for (p = 1; p <= pairs; p++) {
    a[p] = val["parent", p, name] + 0; b[p] = val["change", p, name] + 0
    if (lower ? b[p] < a[p] : b[p] > a[p]) wins++
    if (a[p] != 0 || b[p] != 0) nonzero = 1
  }
  if (!nonzero && layers) next
  sort(a, pairs); sort(b, pairs)
  ma = median(a, pairs); mb = median(b, pairs)
  if (pairs >= 2) { q1 = cut(a, pairs, 1); q3 = cut(a, pairs, 3) } else { q1 = q3 = ma }
  if (mb < q1) where = lower ? "below (better)" : "below (worse)"
  else if (mb > q3) where = lower ? "above (worse)" : "above (better)"
  else where = "inside"
  printf "%-*s %12.4g %12.4g %3d/%-2d %12.4g %12.4g  %s\n", w, name, ma, mb, wins, pairs, q1, q3, where
  json = json (json == "" ? "" : ", ") sprintf("\"%s\": {\"parent_median\": %.10g, \"change_median\": %.10g, \"parent_q1\": %.10g, \"parent_q3\": %.10g, \"wins\": %d}", name, ma, mb, q1, q3, wins)
}
END {
  printf "failed: parent %d, change %d\n", failed["parent"], failed["change"]
  printf "set-ups per run: parent [%s], change [%s]\n", setups["parent"], setups["change"]
  if (record != "") {
    printf "{%s, \"metrics\": {%s}, \"failed\": {\"parent\": %d, \"change\": %d}, \"setups\": {\"parent\": [%s], \"change\": [%s]}}\n", \
      header, json, failed["parent"], failed["change"], setups["parent"], setups["change"] >> record
    printf "recorded in %s\n", record
  }
}'
