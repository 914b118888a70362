#!/usr/bin/env bash
# "Stage code is in the loop", as a checked property of the harness binary.
#
#   bash scripts/check-inlined.sh            # build benchmark/ offline, then check
#   bash scripts/check-inlined.sh <binary>   # check an already built harness
#
# The paper's Listing 1 has Table 1's code stages *inside* the rolling-buffer
# loop. This fails when an executor body (`AmacSession::feed`, the window
# loop; `feed_lane` and `drain_lanes`, the serving window's lane feed and
# drain with that loop inlined; `drain_budgeted`, `run_amac`, `engine::run`,
# `run_baseline`, `run_gp`, `run_spp`) calls a `start`/`step` (or the
# window's `looks_ahead`/`lookahead`) of a hash-table op, of an
# ordered-index search op (BST, skip list, B+-tree: the `index_walk`
# kernels), of the pipeline probe stage or a fused chain, of the serving
# tenant enum, of the serving window's lane view (`LaneView`), the
# engine's stage dispatch (`engine::call::{start,step}`) or the mux stage
# it routes through (`Mux::step`), either directly or through a GOT slot
# (the default release profile reaches other codegen units that way).
# The engine's one metered pair (`engine::call::metered_{start,step}`: one
# call per stage on an executor call whose context has a clock,
# coalescer, armed tracer or ablation hint) and a lane view's
# `step_routed` (a stage of a slot another lane still holds) are the
# out-of-line code that is meant to remain; they and every other
# surviving `start`/`step` symbol are listed with their byte sizes. Every
# `feed` and `feed_lane` instance is listed too, with its size, its count
# of indirect jumps (`jmp *`: jump tables, so a stage's enum dispatches
# show up here once inlined) and the out-of-line stages it calls. Last
# come every executor instance with its size, the instance count of each
# executor and the size of `.text`: run it on two commits' harnesses to
# compare them. An op's batch stage (`LookupOp::batch`: the plain AMAC
# window hands it a whole feed when no slot is live) runs outside the
# executors: each out-of-line `batch` instance is listed with its size and
# the executor instances that call it (`ProbeOp`'s, from its `feed` and
# `run_amac`), and so are the functions of the AVX-512 kernel it wraps
# (`amac_hashtable::vector`). Legacy symbol names
# carry no type arguments, so instances of a generic function (an
# executor, the metered pair, both ends of a failing call) are named by
# their DWARF declaration (`feed<ProbeState, ProbeOp>`, `start<BstCursor,
# false>`), module paths dropped; without debug info they keep the
# symbol name.
#
# `.text` and the instance sizes depend on the build directory, not only on
# the code: one tree read 966,871 B of `.text` built in the repository and
# 966,375 B built elsewhere. Compare two commits only when both were built
# from one directory (extract each in turn into the same path, build there).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bin="${1:-}"
if [ -z "$bin" ]; then
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  bin="${CARGO_TARGET_DIR:-benchmark/target}/release/amac_benchmark"
fi
[ -x "$bin" ] || { echo "check-inlined: no harness binary at $bin" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
nm -C -S --defined-only "$bin" > "$tmp/nm"
readelf -rW "$bin" > "$tmp/relocs"
objdump -d -C --no-show-raw-insn "$bin" > "$tmp/dis"
nm -S --defined-only "$bin" | awk 'NF >= 4 { print $1, $4 }' > "$tmp/raw"
readelf --debug-dump=info "$bin" 2>/dev/null | awk '
  /: Abbrev Number:/ { link = ""; next }
  /DW_AT_linkage_name/ { link = $NF; next }
  /DW_AT_name/ && link != "" { sub(/^[^:]*: (\(indirect[^)]*\): )?/, ""); print link, $0; link = "" }
' > "$tmp/dwarf"

text="$(size -A "$bin" | awk '$1 == ".text" { print $2 }')"

awk -v nm="$tmp/nm" -v raw="$tmp/raw" -v dwarf="$tmp/dwarf" -v relocs="$tmp/relocs" -v text="$text" '
function hex(s,    i, n) {               # mawk has no strtonum
  n = 0; s = tolower(s)
  for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
  return n
}
function addr(s) { sub(/^0+/, "", s); return s }   # the spelling objdump uses
function is_stage(name) {
  return name ~ /^<(amac_ops::(join::(ProbeOp|BuildOp)|mutate::MutateOp|groupby::GroupByOp|search::SearchOp<C>|pipeline::ProbeStage)|amac_server::tenant::TenantOp|amac::engine::mux::LaneView<O>|amac::engine::pipeline::(Chain<A,B,R>|Fused<P,C>)) as amac::engine::LookupOp>::(start|step|looks_ahead|lookahead)(::\{\{closure\}\})?$/ ||
         name ~ /^amac::engine::(mux::Mux<O>::step|call::(start|step))$/
}
function is_executor(name) {
  return name ~ /AmacSession<.*>::(feed|feed_lane|drain_budgeted|drain_lanes)$/ || name ~ /amac_exec::run_amac$/ ||
         name ~ /^amac::engine::run$/ || name ~ /::(baseline::run_baseline|gp::run_gp|spp::run_spp)$/
}
# The executors whose instances are counted, by the name `nm -C` prints.
function executor_of(name) {
  if (name == "amac::engine::run") return "engine::run"
  if (name ~ /^amac::session::AmacSession<.*>::(feed|feed_lane|drain_budgeted|drain_lanes)$/) { sub(/.*::/, "", name); return name }
  if (name ~ /^amac::engine::(baseline::run_baseline|gp::run_gp|spp::run_spp|amac_exec::run_amac)$/) { sub(/.*::/, "", name); return name }
  return ""
}
# The DWARF name of the instance at a, module paths dropped; else name.
function label(a, name) {
  if (!(a in dname)) return name
  name = dname[a]; gsub(/[a-z0-9_]+::/, "", name)
  return name
}
BEGIN {
  # linkage name -> instance name, then address -> instance name.
  while ((getline line < dwarf) > 0) {
    link = line; sub(/ .*/, "", link); inst = line; sub(/^[^ ]* /, "", inst)
    decl[link] = inst
  }
  while ((getline line < raw) > 0) {
    split(line, f, " ")
    if (f[2] in decl) dname[addr(f[1])] = decl[f[2]]
  }
  # address -> symbol, and the sizes worth printing.
  while ((getline line < nm) > 0) {
    if (split(line, f, " ") < 4) continue
    name = line; sub(/^[0-9a-f]+ [0-9a-f]+ . /, "", name)
    a = addr(f[1]); at[a] = name; size[a] = hex(f[2])
    if ((e = executor_of(name)) != "") { instances[e]++; exec_at[a] = label(a, name) }
    if (name ~ / as amac::engine::LookupOp>::(start|step)$/ || name ~ /::(metered_(start|step)|step_routed)$/)
      sizes[label(a, name) " " f[1]] = hex(f[2])
    if (name ~ /^amac_hashtable::vector::/) kernel[name] = hex(f[2])
    if (name ~ / as amac::engine::LookupOp>::batch$/) batch[a] = ""
  }
  # GOT slot -> address it is relocated to.
  while ((getline line < relocs) > 0) {
    n = split(line, f, " ")
    if (f[3] == "R_X86_64_RELATIVE") slot[addr(f[1])] = addr(f[n])
    else if (f[3] == "R_X86_64_GLOB_DAT" || f[3] == "R_X86_64_JUMP_SLOT") slot[addr(f[1])] = addr(f[4])
  }
  bad = 0; bodies = 0
}
/^[0-9a-f]+ <.*>:$/ {
  body = $0; sub(/^[0-9a-f]+ </, "", body); sub(/>:$/, "", body)
  watched = is_executor(body); bodies += watched; here = addr($1)
  feed = ""
  if (body ~ /::(feed|feed_lane)$/ && watched) { feed = addr($1); feeds[feed] = 0; callees[feed] = "" }
  next
}
feed != "" && /\tjmp +\*/ { feeds[feed]++ }
watched && /\tcall / {
  target = ""; ta = ""
  if ($0 ~ /call +\*.*\(%rip\)/) {          # call *0x..(%rip)   # <slot> <...>
    s = $0; sub(/.*# */, "", s); sub(/ .*/, "", s)
    if (s in slot && slot[s] in at) { ta = slot[s]; target = at[ta] }
  } else if ($0 ~ /call +[0-9a-f]+ </) {     # call <addr> <symbol>
    target = $0; sub(/.*call +[0-9a-f]+ </, "", target); sub(/>$/, "", target)
    ta = $0; sub(/.*call +/, "", ta); sub(/ .*/, "", ta); ta = addr(ta)
  }
  if (is_stage(target)) { printf "  %s calls %s\n", label(here, body), label(ta, target); bad++ }
  if (ta in batch && index(batch[ta], exec_at[here]) == 0) batch[ta] = batch[ta] (batch[ta] == "" ? "" : "; ") exec_at[here]
  if (feed != "" && (target ~ /::(metered_(start|step)|step_routed)$/ || is_stage(target))) {
    short = target; sub(/^<?([a-z_]+::)*/, "", short); sub(/ as .*>::/, "::", short)
    short = label(ta, short); gsub(/ /, "", short)
    if (index(" " callees[feed] " ", " " short " ") == 0) callees[feed] = callees[feed] " " short
  }
}
END {
  print "out-of-line start/step symbols (bytes):"
  for (k in sizes) { name = k; sub(/ [0-9a-f]+$/, "", name); printf "  %6d  %s\n", sizes[k], name | "sort -k2 -k1n" }
  close("sort -k2 -k1n")
  print "feed/feed_lane instances (bytes, jmp *, out-of-line stages called):"
  for (a in feeds) printf "  %6d  %3d %s\n", size[a], feeds[a], callees[a] | "sort -k1n"
  close("sort -k1n")
  print "executor instances (bytes):"
  for (a in exec_at) printf "  %6d  %s\n", size[a], exec_at[a] | "sort -k2 -k1n"
  close("sort -k2 -k1n")
  print "batch stages, outside the executors (bytes, executor instances calling it):"
  for (a in batch) {
    short = at[a]; sub(/^<([a-z_]+::)*/, "", short); sub(/ as .*>::/, "::", short)
    printf "  %6d  %s, from %s\n", size[a], short, batch[a] | "sort -k2"
  }
  close("sort -k2")
  print "vector probe kernel, behind the ProbeOp batch stage (bytes):"
  for (k in kernel) printf "  %6d  %s\n", kernel[k], k | "sort -k2"
  close("sort -k2")
  print "executor instance counts:"
  n = split("engine::run feed feed_lane drain_budgeted drain_lanes run_baseline run_gp run_spp run_amac", names, " ")
  for (i = 1; i <= n; i++) printf "  %-15s %3d\n", names[i], instances[names[i]]
  printf ".text: %d bytes\n", text
  if (bodies == 0) { print "check-inlined: found no executor body to check"; exit 2 }
  if (bad) { printf "check-inlined: FAIL, %d call(s) from an executor loop to an out-of-line code stage (listed above)\n", bad; exit 1 }
  printf "check-inlined: ok, %d executor bodies call no out-of-line code stage\n", bodies
}' "$tmp/dis"
