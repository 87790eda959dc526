//! Daemon configuration: detector settings plus the robustness knobs
//! (admission limits, queue bounds, deadlines).

use vdsms_core::DetectorConfig;
use vdsms_features::FeatureConfig;

use crate::protocol::MAX_FRAME_LEN_DEFAULT;

/// Everything `vdsms serve` needs to run: the detection configuration
/// and the serving-layer robustness policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Detector configuration shared by every stream ([`DetectorConfig::shards`]
    /// selects serial vs. sharded fleet).
    pub detector: DetectorConfig,
    /// Fingerprint extraction configuration.
    pub features: FeatureConfig,
    /// Admission control: maximum concurrent sessions; further
    /// connections are refused with `AdmissionDenied`.
    pub max_sessions: usize,
    /// Admission control: maximum live subscriptions per tenant.
    pub max_subscriptions_per_tenant: usize,
    /// Admission control: maximum attached streams per session.
    pub max_streams_per_session: usize,
    /// Cap on one wire frame's body length; larger length prefixes are
    /// rejected with `Oversized` before any buffering.
    pub max_frame_len: usize,
    /// Bound on each session's outbound queue, in droppable frames;
    /// overflow drops the oldest droppable frame and accounts it in a
    /// `Lagged` push. Control frames (replies, acks) bypass the bound.
    pub queue_capacity: usize,
    /// Droppable pushes the server may send before the client's first
    /// `Credit` grant (flow control; see [`crate::queue::SessionQueue`]).
    pub initial_credit: u64,
    /// Socket read timeout per poll tick, in milliseconds — the
    /// granularity at which session readers notice shutdown and idle
    /// expiry.
    pub read_timeout_ms: u64,
    /// Idle timeout: a session that sends nothing for this long is
    /// closed with `IdleTimeout`. `0` disables idle expiry.
    pub idle_timeout_ms: u64,
    /// Socket write timeout per attempt, in milliseconds — a stalled
    /// peer makes writes time out and retry instead of blocking forever.
    pub write_timeout_ms: u64,
    /// Graceful-drain deadline, in milliseconds: bounds the fleet's
    /// per-worker join ([`vdsms_core::Fleet::set_drain_join_polls`])
    /// and the final writer flush at shutdown.
    pub drain_deadline_ms: u64,
    /// Cap on un-ingestable buffered bytes per attached stream (a
    /// pathological bitstream cannot grow server memory past this).
    pub max_stream_buffer: usize,
    /// Ingest streams in corruption-recovery mode (damage is skipped
    /// and accounted) instead of strict mode (damage detaches the
    /// stream with `BadBitstream`).
    pub recover: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            detector: DetectorConfig::default(),
            features: FeatureConfig::default(),
            max_sessions: 64,
            max_subscriptions_per_tenant: 256,
            max_streams_per_session: 8,
            max_frame_len: MAX_FRAME_LEN_DEFAULT,
            queue_capacity: 1024,
            initial_credit: 256,
            read_timeout_ms: 25,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 50,
            drain_deadline_ms: 5_000,
            max_stream_buffer: 4 << 20,
            recover: true,
        }
    }
}
