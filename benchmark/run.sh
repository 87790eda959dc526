#!/usr/bin/env bash
# Build the daemon and the benchmark offline, then run the benchmark.
#
#   benchmark/run.sh                                    every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                       one run; the last line of standard
#                                                       output is its result as one JSON object
#   benchmark/run.sh --repeats R | --quick              see README.md
#
# Exits non-zero if a build fails, an output check fails, or this is not
# a checkout of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
    echo "run.sh: $root is not a checkout of the repository (no Cargo.toml, no crates/)" >&2
    exit 2
fi

# One target directory for both packages, so `bench` finds `vdsms` beside it.
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$root/target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR CARGO_NET_OFFLINE=true

# glibc's malloc moves its mmap and trim thresholds with the sizes a process
# has freed so far. A subscribe at m = 1024 copies a 16 MB index, and
# depending on that history the copy lands in recycled heap (3.5 ms) or in
# fresh zeroed pages (10-14 ms) for the rest of the run. Fixed thresholds
# keep every run in the first regime.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824

# Build output goes to standard error: standard output belongs to the result.
(cd "$root" && cargo build --release --offline --quiet -p vdsms-cli) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

exec "$CARGO_TARGET_DIR/release/bench" run "$@"
