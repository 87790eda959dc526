#!/usr/bin/env bash
# Local CI: offline build, every workspace member's tests, lints. A
# superset of the tier-1 gate (`cargo build --release && cargo test -q`,
# the root package only).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

echo "== tests (every workspace member) =="
# The root package's suites plus each member crate's own: the lint
# crate's fixtures and seeded workspaces, core's fleet equivalence and
# index-vs-brute-force histories, the serve and codec suites.
cargo test -q --workspace

echo "== benches compile =="
cargo bench --no-run -q

echo "== primitives bench smoke (--test mode) =="
# One pass per kernel row in test mode: catches panics/asserts in the
# per-stage hot-path benches without paying for real measurement.
cargo bench -q -p vdsms-bench --bench primitives -- --test

echo "== index_probe bench smoke (--test mode) =="
# The same for the index and subscription rows: probe, one encode by
# either kernel, insert/remove, and one subscription change through a
# fleet at either executor, once each.
cargo bench -q -p vdsms-bench --bench index_probe -- --test

echo "== static-analysis gate (vdsms-lint) =="
# One run over the whole tree; the binary exits 1 on any violation and 2
# on a usage or configuration error, and `set -e` does the rest.
cargo build --release -q -p vdsms-lint
./target/release/vdsms-lint

echo "== schedule exploration (seeded concurrency model check, release) =="
# 1000 seeds per scenario (~3000 distinct interleavings of the fleet's
# quiesce / crash-restart / shutdown protocols), pinned so a failure
# names a replayable seed. The suite also proves its own teeth: the
# deliberately disarmed quiesce barrier must be *caught* by the range.
VDSMS_SCHED_SEEDS=1000 cargo test --release -q --test schedule_exploration

echo "== zero-alloc steady state (release) =="
# Both representations × both orders × both index modes, the default
# configuration under traffic related to 64 overlapping queries, the
# fused front ends, a fleet's subscribe + unsubscribe pair, and one copy
# of the catalogue (a_subscription_keeps_no_copy_of_the_query: a
# subscribe frees the caller's sketch, and a detector keeps none of the
# set it was built from).
cargo test --release -q --test alloc_steady_state

echo "== decoder fuzz (bounded, release) =="
cargo test --release -q --test decoder_fuzz

echo "== fault-injection smoke (vdsms monitor --inject-faults) =="
cargo build --release -q -p vdsms-cli
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/vdsms generate --seed 300 --seconds 10 --out "$tmp/q.vdsm"
./target/release/vdsms generate --seed 920 --seconds 20 --out "$tmp/s.vdsm"
./target/release/vdsms sketch --window-keyframes 6 "$tmp/q.vdsm" --out "$tmp/q.vdsq"
# Recovery rides through the damage but must own up to it: exit 3 is
# the "monitored to the end, results may undercount" contract.
rc=0
./target/release/vdsms monitor --queries "$tmp/q.vdsq" --window-keyframes 6 --recover \
  --inject-faults "seed=7,flip=0.05,drop=0.02,delete=0.01,insert=0.01" \
  "$tmp/s.vdsm" > "$tmp/out.txt" 2> "$tmp/err.txt" || rc=$?
[ "$rc" -eq 3 ] \
  || { echo "fault-injection smoke: expected degraded exit 3, got $rc"; cat "$tmp/out.txt" "$tmp/err.txt"; exit 1; }
grep -q "fault-injected" "$tmp/err.txt" \
  || { echo "expected a degraded-stream summary on stderr"; cat "$tmp/err.txt"; exit 1; }
grep -q "monitoring degraded" "$tmp/err.txt" \
  || { echo "expected the degraded-exit explanation on stderr"; cat "$tmp/err.txt"; exit 1; }

echo "== serve smoke (daemon + seeded multi-client sim over a unix socket) =="
# A daemon under churn, stalls, faulted bitstreams and mid-stream
# disconnects must keep clean clients bit-identical to the serial
# oracle, then drain to exit 0 on the first Shutdown frame.
sock="$tmp/serve.sock"
./target/release/vdsms serve --listen "unix:$sock" --window-keyframes 4 \
  --queue-capacity 4 --initial-credit 2 2> "$tmp/serve_err.txt" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "daemon never bound $sock"; cat "$tmp/serve_err.txt"; exit 1; }
./target/release/vdsms serve-sim --connect "unix:$sock" --clients 8 \
  --stalled 1 --faulty 2 --disconnect 1 --seed 2008 --window-keyframes 4 \
  > "$tmp/sim.txt" 2> "$tmp/sim_err.txt" \
  || { echo "serve-sim contract check failed"; cat "$tmp/sim.txt" "$tmp/sim_err.txt"; kill "$serve_pid" 2>/dev/null; exit 1; }
wait "$serve_pid" \
  || { echo "daemon exited unclean after drain"; cat "$tmp/serve_err.txt"; exit 1; }
grep -q "serve-sim OK" "$tmp/sim.txt" \
  || { echo "expected a serve-sim OK line"; cat "$tmp/sim.txt" "$tmp/sim_err.txt"; exit 1; }
grep -q "drained" "$tmp/serve_err.txt" \
  || { echo "expected a drain summary from the daemon"; cat "$tmp/serve_err.txt"; exit 1; }

echo "== attack-matrix smoke + robustness floors (vdsms eval-attacks) =="
# 2 attacks × 2 detectors on a short stream; --check fails the build if
# any cell's recall/precision drops below the committed floor (seed must
# match the floor file — see BENCH_robustness.json).
./target/release/vdsms eval-attacks --seed 7 --profile smoke \
  --check BENCH_robustness.json > "$tmp/matrix.txt" 2> "$tmp/matrix_err.txt" \
  || { echo "attack-matrix floor check failed"; cat "$tmp/matrix.txt" "$tmp/matrix_err.txt"; exit 1; }
grep -q "floor check passed" "$tmp/matrix_err.txt" \
  || { echo "expected a floor-check confirmation"; cat "$tmp/matrix_err.txt"; exit 1; }

echo "== examples (release; each asserts its own outcome) =="
# `cargo test` only compiles examples/; run them. offline_sketching goes
# save -> load -> detect, live_subscription subscribes and unsubscribes
# online; every example exits non-zero when its outcome does not hold.
cargo build --release -q --examples
for example in quickstart offline_sketching live_subscription ad_monitor tamper_hunt; do
  "./target/release/examples/$example" > "$tmp/example.txt" 2>&1 \
    || { echo "example $example failed"; cat "$tmp/example.txt"; exit 1; }
done

echo "== benchmark builds and smoke-runs (its own workspace) =="
# Tier-1 never compiles benchmark/, so a rename that breaks its
# `src/sut.rs` would otherwise surface only when the pipeline runs the
# benchmark. Its tests include a --quick pass of all four workloads with
# their oracle checks, against the daemon built above. The `cd` matters:
# benchmark/.cargo/config.toml is found from the working directory.
(cd benchmark && cargo test -q --offline)

echo "== clippy =="
# Every member and target, tests and examples included. clippy.toml
# (and crates/{core,features,sketch}/clippy.toml) bans wall-clock reads,
# partial_cmp, std locks and, in those three crates, hashing collections.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "== clippy seeded violations (once per clippy.toml) =="
# clippy must report exactly the lines in the seeded crate's
# expected.txt: the `all` lines under every clippy.toml, the `hash` lines
# under the crate copies only. A copy that drifts from the root lists, or
# a deleted seeded line, fails here. A fresh target dir per run, so no
# cached verdict replays.
seeded=crates/lint/tests/clippy_seeded
for conf in clippy.toml crates/*/clippy.toml; do
  dir="$(dirname "$conf")"
  conf_dir="$PWD/$dir"
  if [ "$dir" = . ]; then configs=all; else configs='all|hash'; fi
  want="$(grep -E "^($configs) " "$seeded/expected.txt" | cut -d' ' -f2 | sort)"
  got="$(cd "$seeded" && CLIPPY_CONF_DIR="$conf_dir" cargo clippy -q --all-targets \
      --target-dir "$tmp/clippy-seeded-${dir//\//-}" --message-format=short \
      -- -D warnings -D clippy::undocumented_unsafe_blocks 2>&1 \
    | grep -E 'disallowed (method|type)|missing a safety comment' | cut -d: -f1,2 | sort -u || true)"
  [ "$got" = "$want" ] \
    || { echo "seeded clippy run under $conf: reported lines differ from expected.txt"; diff <(echo "$want") <(echo "$got"); exit 1; }
done

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "CI OK"
