//! Deterministic schedule exploration — a loom-lite controller for the
//! workspace's concurrency tests.
//!
//! The shim's lock operations (and `vdsms_core::sync`'s channel
//! operations) each call [`yield_point`] before touching the underlying
//! primitive. Outside a test session this is one relaxed atomic load and
//! a branch — the production fast path. Inside a session (between
//! [`begin`] and [`ScheduleGuard::finish`]) every yield point consults a
//! seeded controller that decides, deterministically from the seed and
//! the arrival order of yield points, whether the calling thread gives
//! up the CPU here — perturbing the interleaving the OS scheduler would
//! have produced. Exploring a few hundred seeds walks the program
//! through a few hundred *different* interleavings of the same logical
//! execution, which is what surfaces ordering bugs (a barrier that does
//! not wait, a drain that races a producer) that a single lucky
//! scheduling hides.
//!
//! Three properties make failures actionable:
//!
//! * **Seeded determinism** — every decision is derived from the session
//!   seed by a SplitMix64 chain, so re-running a failing seed replays
//!   the same decision sequence against the same arrival order.
//! * **Bounded preemption** — at most `max_preemptions` yields fire per
//!   session (the loom/CHESS insight: most concurrency bugs manifest
//!   within a small number of preemptions, and the bound keeps each
//!   seeded run fast).
//! * **Trace capture** — every yield-point visit is recorded (site,
//!   thread, decision); [`ScheduleGuard::finish`] returns the trace so a
//!   failing test can print the interleaving it died under.
//!
//! The controller deliberately uses `std::sync` primitives internally:
//! instrumenting itself with itself would recurse. (The crate root
//! allows `clippy::disallowed_types`, which bans them everywhere else.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Fast-path gate: checked with one relaxed load per yield point.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes sessions: `begin` in one test blocks until the session of
/// another test (sharing this process) has finished.
pub(crate) static SESSION: Mutex<()> = Mutex::new(());

/// The active session's controller state (`None` outside a session).
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Traces longer than this stop recording (decisions continue): bounds
/// memory for scenarios with very chatty yield points.
const TRACE_CAP: usize = 4096;

/// One yield-point visit, as recorded in the session trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The instrumented operation (`"mutex.lock"`, `"chan.recv"`, …).
    pub site: &'static str,
    /// Name of the visiting thread (or its anonymous id).
    pub thread: String,
    /// Whether the controller made this thread yield here.
    pub yielded: bool,
}

struct State {
    rng: u64,
    /// Remaining preemption budget; a zero budget records but never
    /// yields.
    budget: u32,
    trace: Vec<Step>,
}

impl State {
    /// SplitMix64: one fresh decision word per yield-point visit.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Exclusive handle on the running session. Ending it (via
/// [`ScheduleGuard::finish`] or `Drop`) disables every yield point
/// again and releases the session lock for the next test.
pub struct ScheduleGuard {
    session: Option<MutexGuard<'static, ()>>,
}

/// Start a schedule-exploration session.
///
/// Blocks until any session owned by another test ends, installs a
/// controller seeded with `seed`, and arms the yield points. At most
/// `max_preemptions` yields will fire over the whole session.
pub fn begin(seed: u64, max_preemptions: u32) -> ScheduleGuard {
    let session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    *STATE.lock().unwrap_or_else(|e| e.into_inner()) = Some(State {
        // Pre-mix so consecutive raw seeds (0, 1, 2, …) diverge from the
        // first decision, not after a warm-up.
        rng: seed ^ 0x6a09_e667_f3bc_c909,
        budget: max_preemptions,
        trace: Vec::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
    ScheduleGuard { session: Some(session) }
}

impl ScheduleGuard {
    /// End the session and return its trace — the interleaving decisions
    /// actually taken, in arrival order.
    pub fn finish(mut self) -> Vec<Step> {
        self.end()
    }

    fn end(&mut self) -> Vec<Step> {
        ENABLED.store(false, Ordering::SeqCst);
        let trace = STATE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|s| s.trace)
            .unwrap_or_default();
        self.session = None;
        trace
    }
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        if self.session.is_some() {
            self.end();
        }
    }
}

/// The instrumentation hook: called by the shim's lock operations and
/// `vdsms_core::sync`'s channel operations before they act.
///
/// Disabled (the production case): one relaxed load, no contention, no
/// allocation. Enabled: draws one decision word from the session
/// controller, records the visit, and — within the preemption budget,
/// with probability 1/4 per visit — makes this thread `yield_now` one
/// to three times, handing the OS an explicit chance to run a peer at
/// exactly this point in the protocol.
pub fn yield_point(site: &'static str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let spins = {
        let mut slot = STATE.lock().unwrap_or_else(|e| e.into_inner());
        // A thread can pass the gate just as the session ends; the state
        // being gone means the session is over — nothing to do.
        let Some(state) = slot.as_mut() else { return };
        let roll = state.next();
        let yielded = state.budget > 0 && roll % 4 == 0;
        if yielded {
            state.budget -= 1;
        }
        if state.trace.len() < TRACE_CAP {
            state.trace.push(Step { site, thread: thread_label(), yielded });
        }
        if yielded {
            1 + (roll >> 8) % 3
        } else {
            0
        }
    };
    // Yield outside the controller lock, so a descheduled thread never
    // blocks its peers' yield points.
    for _ in 0..spins {
        std::thread::yield_now();
    }
}

/// Render a trace for a failure report: one `site @ thread [yield]`
/// line per step.
pub fn format_trace(trace: &[Step]) -> String {
    let mut out = String::new();
    for (i, step) in trace.iter().enumerate() {
        out.push_str(&format!(
            "  #{i:<4} {site:<18} @ {thread}{mark}\n",
            site = step.site,
            thread = step.thread,
            mark = if step.yielded { "  [yield]" } else { "" },
        ));
    }
    out
}

fn thread_label() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", current.id()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_yield_points_are_inert() {
        // No session (holding the session lock keeps a parallel test from
        // starting one): must not record, must not panic.
        let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        yield_point("mutex.lock");
        assert!(!ENABLED.load(Ordering::SeqCst));
    }

    #[test]
    fn session_records_and_replays_deterministically() {
        let run = || {
            let guard = begin(42, 8);
            for _ in 0..20 {
                yield_point("mutex.lock");
                yield_point("chan.send");
            }
            guard.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 40);
        assert_eq!(a, b, "same seed + same arrival order = same decisions");
        assert!(a.iter().filter(|s| s.yielded).count() <= 8, "budget bounds preemptions");
        // Different seeds explore different interleavings.
        let guard = begin(43, 8);
        for _ in 0..20 {
            yield_point("mutex.lock");
            yield_point("chan.send");
        }
        let c = guard.finish();
        assert_ne!(
            a.iter().map(|s| s.yielded).collect::<Vec<_>>(),
            c.iter().map(|s| s.yielded).collect::<Vec<_>>(),
            "seed 43 must not replay seed 42's decisions"
        );
    }

    #[test]
    fn finish_disarms_the_yield_points() {
        let guard = begin(7, 4);
        yield_point("rwlock.write");
        let trace = guard.finish();
        assert_eq!(trace.len(), 1);
        yield_point("rwlock.write"); // after finish: inert
        let trace = begin(7, 4).finish();
        assert!(trace.is_empty(), "post-session visits must not leak into the next trace");
    }

    #[test]
    fn trace_formats_with_site_thread_and_decision() {
        let guard = begin(1, 64);
        yield_point("condvar.wait");
        let trace = guard.finish();
        let text = format_trace(&trace);
        assert!(text.contains("condvar.wait"), "{text}");
        assert!(text.contains("#0"), "{text}");
    }
}
