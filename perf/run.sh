#!/usr/bin/env bash
# The one command of the repository benchmark. Run from the repository root.
#
#   perf/run.sh                          all seven workloads, then the traced
#                                        runs; results in perf/results.json
#   perf/run.sh --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1]
#                                        one run; the last line of standard
#                                        output is its JSON result
#   perf/run.sh --out FILE [--seed N] [--reps R] [--trace 0|1]
#
# Builds `repro` (root workspace) and `bcs-perf` (this package) in release
# mode, offline, into one target directory, then hands over to `bcs-perf`.
# Exits non-zero when a build fails or any check of any run failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to standard error: standard output ends with the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

mode=all
out=
args=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "perf/run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) mode=run; args+=("$1" "$2") ;;
        --out) out="$2" ;;
        *) args+=("$1" "$2") ;;
    esac
    shift 2
done

# Not `exec`: `bcs-perf` reads its children's peak memory from `getrusage`,
# and a process that replaces this shell inherits the builds above as children.
if [ "$mode" = run ]; then
    "$target/release/bcs-perf" run ${out:+--out "$out"} ${args[@]+"${args[@]}"}
    exit
fi
"$target/release/bcs-perf" all --out "${out:-$here/results.json}" ${args[@]+"${args[@]}"}
