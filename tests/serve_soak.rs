//! Soak test for the serve daemon: 32 concurrent clients over TCP with
//! query churn, fault-injected bitstreams, stalled readers and mid-run
//! disconnects — all against one daemon configured with a deliberately
//! tiny flow-control window so backpressure actually engages.
//!
//! The contracts under test:
//!
//! * **Oracle bit-identity** — every clean client receives exactly the
//!   detection sequence one plain `Detector` produces for its stream:
//!   same query ids, frame spans, window counts, and bit-identical
//!   similarities, regardless of chunk slicing, query
//!   churn, or the other 31 clients' faults.
//! * **Isolation** — a stalled reader lags (bounded queue, drop-oldest)
//!   but never blocks anyone else's ingest; faulted bitstreams degrade
//!   only their own stream.
//! * **Accounting** — the laggard's ledger balances exactly:
//!   `received + Lagged == expected`, including detections stranded by
//!   the drain.
//! * **Graceful drain** — a `Shutdown` request drains the fleet inside
//!   its deadline, every session gets `Drained`, and the daemon exits
//!   with a clean report.

use std::time::Duration;

use vdsms::serve::{Client, Daemon, Endpoint, ServeConfig};
use vdsms_workload::serve_sim::{run_sim, verify, Role, SimConfig, SimPlan};

#[test]
fn thirty_two_clients_with_faults_stalls_and_disconnects_drain_clean() {
    let sim = SimConfig {
        seed: 2008,
        clients: 32,
        stalled: 2,
        faulty: 4,
        disconnect: 4,
        seconds: 8.0,
        churn: true,
        ..SimConfig::default()
    };
    let plan = SimPlan::build(sim);

    let cfg = ServeConfig {
        detector: plan.config.detector,
        features: plan.config.features,
        // A tiny flow-control window: two pushes on connection credit,
        // four queued frames. The stalled clients' fan-out queries
        // produce more pushes than credit + capacity can hold, so
        // drop-oldest and the stranded-at-drain conversion both engage.
        queue_capacity: 4,
        initial_credit: 2,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind(&Endpoint::Tcp("127.0.0.1:0".into()), cfg).expect("bind");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let report = run_sim(&plan, || Client::connect_tcp(&addr));

    let serve_report = server.join().expect("daemon thread");

    // The daemon exited cleanly: drain inside the deadline, no engine
    // panics, every connection admitted (32 clients + 1 control).
    assert!(!serve_report.drain_timed_out, "drain exceeded its deadline");
    assert_eq!(serve_report.engine_panics, 0, "engine caught panics: {serve_report:?}");
    assert!(
        serve_report.sessions_served >= 33,
        "expected at least 33 sessions, served {}",
        serve_report.sessions_served
    );

    // Per-client contracts (oracle bit-identity, damage isolation,
    // ledger balance, drain delivery).
    let problems = verify(&plan, &report);
    assert!(problems.is_empty(), "sim contract violations:\n{}", problems.join("\n"));

    // The stalled readers really lagged: their fan-out produces more
    // pushes than the credit + queue window holds while they are deaf,
    // so drop-oldest (or the stranded-at-drain conversion) must have
    // fired. That they lagged while every clean client still received
    // its full oracle sequence is the isolation proof.
    for (cp, out) in plan.clients.iter().zip(&report.outcomes) {
        if cp.role == Role::Stalled {
            assert!(
                out.lagged > 0,
                "stalled client {} never lagged (expected {} pushes against \
                 credit 2 + capacity 4)",
                cp.index,
                cp.expected.len()
            );
            assert!(out.drained, "stalled client {} missed the Drained frame", cp.index);
        }
    }

    // The health snapshot was captured after every stream's data phase:
    // fault-injected streams with framing-visible damage must show up in
    // the daemon-wide counters (and nowhere else — clean streams' end
    // acks are checked to be damage-free by `verify`).
    let health = report.health.expect("control session captured health");
    let damage_expected = plan.clients.iter().any(|c| !c.wire_health.is_clean());
    assert!(
        damage_expected,
        "seed produced no framing-visible faults; pick a different seed"
    );
    assert!(
        health.resyncs > 0 || health.frames_dropped > 0 || health.bytes_skipped > 0,
        "faulted streams left no trace in health: {health:?}"
    );
    assert!(report.shutdown_ok, "shutdown request was not acknowledged");
}

/// The serve config's drain deadline is honored even when a session's
/// peer never reads: the daemon must not hang in `run()` waiting on a
/// writer that cannot flush.
#[test]
fn a_deaf_peer_cannot_hold_the_daemon_past_its_drain_deadline() {
    let sim = SimConfig {
        seed: 77,
        clients: 3,
        stalled: 1,
        seconds: 8.0,
        ..SimConfig::default()
    };
    let plan = SimPlan::build(sim);
    let cfg = ServeConfig {
        detector: plan.config.detector,
        features: plan.config.features,
        queue_capacity: 4,
        initial_credit: 2,
        drain_deadline_ms: 2_000,
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind(&Endpoint::Tcp("127.0.0.1:0".into()), cfg).expect("bind");
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    #[expect(
        clippy::disallowed_methods,
        reason = "a soak-test deadline, not a detection input"
    )]
    let started = std::time::Instant::now();
    let report = run_sim(&plan, || Client::connect_tcp(&addr));
    let serve_report = server.join().expect("daemon thread");
    // Generous bound: ingest (~seconds of video on 4 threads) plus the
    // drain deadline plus slack — the point is "minutes", not "hangs".
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "daemon took {:?} to drain",
        started.elapsed()
    );
    assert_eq!(serve_report.engine_panics, 0);
    let problems = verify(&plan, &report);
    assert!(problems.is_empty(), "sim contract violations:\n{}", problems.join("\n"));
}
