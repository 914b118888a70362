#!/usr/bin/env bash
# The one command of the repository benchmark (BENCHMARK.json names it):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --self-check        # two sets of runs against the bounds
#   bash benchmark/run.sh --derive-bounds     # the table the bounds were read from
#
# Builds the harness from source if needed (release, offline) and runs it.
# Cargo's own messages go to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
