//! Deterministic schedule exploration of the worker fleet's
//! concurrency protocol (loom-lite; see `parking_lot::schedule`).
//!
//! Every lock and channel operation in the fleet passes through a
//! seeded yield point. Each scenario below runs once per seed; the
//! controller derives a different interleaving perturbation from every
//! seed, so a seed range walks the protocol through that many distinct
//! schedules. A failing seed panics with the seed number and the full
//! decision trace, and re-running the same seed replays the same
//! decisions — the failure is a reproducible artifact, not a flake.
//!
//! Model-checked invariants:
//! * **subscribe-during-push quiesce** — a catalogue change after
//!   `push_batch_async` is a barrier: `take_detections` immediately
//!   after it holds every detection of the queued frames (bit-identical
//!   to one plain detector per stream), and nothing matches the new query.
//! * **crash → restart journal replay** — a shard panic between batches
//!   restarts the worker and re-arms partial windows from the journal;
//!   the detection stream and window counts stay bit-identical to an
//!   uninterrupted detector-per-stream run.
//! * **drain on shutdown** — `finish_all` after async pushes flushes
//!   every window, `take_detections` drains a complete sink, and `Drop`
//!   terminates (bounded join) under every explored schedule.
//!
//! The harness proves it has teeth by reverting the quiesce barrier on
//! demand (`dangerously_skip_install_acks`, the historical bug shape)
//! and asserting the same seed range *finds* the incompleteness.
//!
//! Seed count per scenario: `VDSMS_SCHED_SEEDS` (default 150; `ci.sh`
//! pins 1000, ≈3000 seeded schedules across the invariant scenarios).

use parking_lot::schedule;
use vdsms::core::{
    Detector, DetectorConfig, Fleet, Query, QueryId, QuerySet, StreamDetection, StreamId,
};
use vdsms::sketch::MinHashFamily;

const K: usize = 64;
const W: usize = 4; // window_keyframes
/// Preemption budget per seeded run (the loom/CHESS small-bound
/// insight: ordering bugs manifest within a handful of preemptions).
const MAX_PREEMPTIONS: u32 = 64;

fn seed_count() -> u64 {
    std::env::var("VDSMS_SCHED_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(150)
}

fn cfg() -> DetectorConfig {
    DetectorConfig { k: K, window_keyframes: W, ..Default::default() }
}

fn query(id: QueryId, base: u64) -> Query {
    let family = MinHashFamily::new(K, vdsms::core::config::DEFAULT_HASH_SEED);
    let ids: Vec<u64> = (base..base + 24).collect();
    Query::from_cell_ids(id, &family, &ids)
}

/// Two interleaved streams, each airing `query(s + 1, 1000 * (s + 1))`
/// content at frames 10..34 of a 40-frame broadcast.
fn workload() -> Vec<(StreamId, u64, u64)> {
    let mut batch = Vec::new();
    for i in 0..40u64 {
        for s in 0..2u32 {
            let id = if (10..34).contains(&i) {
                1000 * (u64::from(s) + 1) + (i - 10) % 24
            } else {
                900_000 + u64::from(s) * 1000 + i
            };
            batch.push((s, i, id));
        }
    }
    batch
}

fn sorted_key(mut dets: Vec<StreamDetection>) -> Vec<(StreamId, u32, u64, u64)> {
    dets.sort_by_key(|d| {
        (d.stream_id, d.detection.query_id, d.detection.start_frame, d.detection.end_frame)
    });
    dets.iter()
        .map(|d| (d.stream_id, d.detection.query_id, d.detection.start_frame, d.detection.end_frame))
        .collect()
}

/// Run `scenario` once per seed under the schedule controller; panic
/// with the seed and the full decision trace on the first failure.
fn explore(name: &str, scenario: impl Fn() -> Result<(), String>) {
    for seed in 0..seed_count() {
        let guard = schedule::begin(seed, MAX_PREEMPTIONS);
        let outcome = scenario();
        let trace = guard.finish();
        if let Err(why) = outcome {
            panic!(
                "scenario `{name}` failed at seed {seed}: {why}\n\
                 replay: VDSMS_SCHED_SEEDS={n} cargo test --test schedule_exploration\n\
                 schedule trace ({len} steps):\n{trace}",
                n = seed + 1,
                len = trace.len(),
                trace = schedule::format_trace(&trace),
            );
        }
    }
}

/// The reference every worker schedule must match, free of fleet code:
/// one plain [`Detector`] per workload stream with queries 1 + 2
/// subscribed. Returns the sorted detections and the total window count.
/// `flush` controls whether partial windows are flushed at the end.
fn serial_reference(flush: bool) -> (Vec<(StreamId, u32, u64, u64)>, u64) {
    let mut dets = Vec::new();
    let mut windows = 0;
    for s in 0..2u32 {
        let mut det = Detector::new(cfg(), QuerySet::new());
        det.subscribe(query(1, 1000));
        det.subscribe(query(2, 2000));
        let mut found = Vec::new();
        for &(_, frame, cell) in workload().iter().filter(|f| f.0 == s) {
            found.extend(det.push_keyframe(frame, cell));
        }
        if flush {
            found.extend(det.finish());
        }
        dets.extend(found.into_iter().map(|detection| StreamDetection { stream_id: s, detection }));
        windows += det.stats().windows;
    }
    (sorted_key(dets), windows)
}

/// Build a 2-worker fleet monitoring both workload streams with both
/// workload queries subscribed.
fn worker_fleet() -> Fleet {
    let mut fleet = Fleet::new(DetectorConfig { shards: 2, ..cfg() });
    for s in 0..2 {
        fleet.add_stream(s).unwrap();
    }
    fleet.subscribe(query(1, 1000)).unwrap();
    fleet.subscribe(query(2, 2000)).unwrap();
    fleet
}

/// One run of the subscribe-during-push scenario; factored out so the
/// barrier-revert test below can drive the identical body with the
/// barrier disarmed.
fn subscribe_scenario(reference: &[(StreamId, u32, u64, u64)], skip_acks: bool) -> Result<(), String> {
    let mut fleet = worker_fleet();
    fleet.dangerously_skip_install_acks(skip_acks);
    for chunk in workload().chunks(13) {
        fleet.push_batch_async(chunk).map_err(|e| format!("push: {e:?}"))?;
    }
    // The catalogue change is the barrier under test: it must not
    // return until every shard drained the frames queued above.
    fleet.subscribe(query(99, 700_000)).map_err(|e| format!("subscribe: {e:?}"))?;
    let got = fleet.take_detections();
    if got.iter().any(|d| d.detection.query_id == 99) {
        return Err("frame queued before subscribe matched the new query".into());
    }
    let got = sorted_key(got);
    if got != reference {
        return Err(format!(
            "take_detections after the subscribe barrier is incomplete or wrong:\n\
             got      {got:?}\nexpected {reference:?}"
        ));
    }
    Ok(())
}

#[test]
fn subscribe_during_push_is_a_quiesce_barrier_under_every_schedule() {
    let (reference, _) = serial_reference(false);
    assert!(!reference.is_empty(), "workload must produce detections");
    explore("subscribe-during-push quiesce", || subscribe_scenario(&reference, false));
}

#[test]
fn crash_restart_replays_the_journal_under_every_schedule() {
    let (reference, serial_windows) = serial_reference(true);
    let batch = workload();
    // Frames 0..2 of both streams: a half-built window on every stream,
    // exactly the state the journal must re-arm after the crash.
    let split = 2 * 2;
    explore("crash-restart journal replay", || {
        let mut fleet = worker_fleet();
        let mut dets = fleet.push_batch(&batch[..split]).map_err(|e| format!("push: {e:?}"))?;
        fleet.inject_shard_panic(0);
        fleet.inject_shard_panic(1);
        fleet.quiesce().map_err(|e| format!("quiesce: {e:?}"))?; // observes deaths, restarts
        let total = fleet.total_stats();
        if total.shard_restarts != 2 {
            return Err(format!("expected 2 shard restarts, saw {}", total.shard_restarts));
        }
        dets.extend(fleet.push_batch(&batch[split..]).map_err(|e| format!("push: {e:?}"))?);
        dets.extend(fleet.finish_all().map_err(|e| format!("finish: {e:?}"))?);
        if sorted_key(dets) != reference {
            return Err("detections diverged from the uninterrupted reference run".into());
        }
        // The replayed partial windows must keep window phase: the total
        // completed-window count matches the serial run's.
        let windows: u64 = (0..2).map(|s| fleet.stats(s).map_or(0, |st| st.windows)).sum();
        if windows != serial_windows {
            return Err(format!(
                "journal replay lost window phase: {windows} windows vs serial {serial_windows}"
            ));
        }
        Ok(())
    });
}

#[test]
fn shutdown_drains_completely_under_every_schedule() {
    let (reference, _) = serial_reference(true);
    explore("drain on shutdown", || {
        let mut fleet = worker_fleet();
        for chunk in workload().chunks(7) {
            fleet.push_batch_async(chunk).map_err(|e| format!("push: {e:?}"))?;
        }
        // `finish_all` is a barrier: async batches complete first, then
        // every partial window flushes.
        let mut dets = fleet.finish_all().map_err(|e| format!("finish: {e:?}"))?;
        dets.extend(fleet.take_detections());
        if sorted_key(dets) != reference {
            return Err("drained detections diverged from the reference run".into());
        }
        drop(fleet); // bounded, deterministic shutdown: must terminate
        Ok(())
    });
}

/// The harness must have teeth: with the quiesce barrier deliberately
/// disarmed (the historical bug shape — `subscribe` returning before
/// the shards acknowledged the install), the same seed range must
/// *find* an interleaving where `take_detections` misses detections.
#[test]
fn exploration_catches_a_reverted_quiesce_barrier() {
    let (reference, _) = serial_reference(false);
    assert!(!reference.is_empty(), "workload must produce detections");
    let mut failing_seed = None;
    for seed in 0..seed_count() {
        let guard = schedule::begin(seed, MAX_PREEMPTIONS);
        let outcome = subscribe_scenario(&reference, true);
        let trace = guard.finish();
        if outcome.is_err() {
            failing_seed = Some((seed, trace.len()));
            break;
        }
    }
    let (seed, steps) = failing_seed.expect(
        "no explored schedule exposed the disarmed barrier — the harness has lost its teeth",
    );
    println!(
        "disarmed barrier caught at seed {seed} after a {steps}-step schedule \
         (incomplete take_detections)"
    );
}
