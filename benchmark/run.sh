#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (and, through its
# path dependencies, the PDP) from source, offline, then runs it:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; result = last line of stdout
#   benchmark/run.sh run   [--seed N] [--seconds S] [--workload W] [--sets K]
#   benchmark/run.sh trace [--seed N] [--seconds S] [--workload W|all]
#   benchmark/run.sh compare A.json B.json
#
# Works from any directory; honours CARGO_TARGET_DIR (default:
# benchmark/target). Everything it writes goes under benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export MSOD_BENCH_DIR="$here"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
