//! Typed errors for fleet operations.
//!
//! The paper's setting is *continuous* monitoring: the detector runs
//! indefinitely against live streams, so an operational mistake (feeding
//! an unknown stream id, a worker thread dying) must surface as a value
//! the caller can handle — not as a panic that takes the whole monitoring
//! process down. Every fleet entry point that can fail returns
//! [`FleetError`]; the `vdsms-lint` `no-panic-hot-path` rule enforces
//! that the hot path stays panic-free.

use crate::fleet::StreamId;

/// An error from a [`crate::Fleet`] operation. The inline executor
/// (`shards <= 1`) can only report the two stream-id errors; the other two
/// concern worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A key frame or command referenced a stream id that is not
    /// currently monitored.
    StreamNotMonitored(StreamId),
    /// [`crate::Fleet::add_stream`] was called with an id that is already
    /// monitored.
    StreamAlreadyMonitored(StreamId),
    /// A worker thread is gone for good: it died and could not be
    /// restarted, or the fleet was already [`crate::Fleet::drain`]ed. The
    /// fleet can no longer guarantee complete detection coverage and
    /// should be rebuilt. (A worker that merely panicked is restarted
    /// without an error; see [`crate::Stats::shard_restarts`].)
    ShardDied {
        /// Index of the dead shard.
        shard: usize,
    },
    /// A graceful drain ([`crate::Fleet::drain`]) exceeded its
    /// configured join deadline: some workers were still running and
    /// have been detached. The process can still exit safely, but the
    /// shutdown was not clean and a serving layer should report it.
    DrainTimedOut {
        /// Number of workers still running when the deadline expired.
        detached: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::StreamNotMonitored(id) => {
                write!(f, "stream {id} is not monitored")
            }
            FleetError::StreamAlreadyMonitored(id) => {
                write!(f, "stream {id} is already monitored")
            }
            FleetError::ShardDied { shard } => {
                write!(f, "fleet shard {shard} worker died")
            }
            FleetError::DrainTimedOut { detached } => {
                write!(f, "fleet drain timed out with {detached} worker(s) still running")
            }
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offender() {
        assert_eq!(FleetError::StreamNotMonitored(7).to_string(), "stream 7 is not monitored");
        assert_eq!(
            FleetError::StreamAlreadyMonitored(3).to_string(),
            "stream 3 is already monitored"
        );
        assert_eq!(FleetError::ShardDied { shard: 2 }.to_string(), "fleet shard 2 worker died");
        assert_eq!(
            FleetError::DrainTimedOut { detached: 1 }.to_string(),
            "fleet drain timed out with 1 worker(s) still running"
        );
    }
}
