//! `vdsms-serve`: a fault-tolerant subscription daemon over the
//! streaming copy-detection engine.
//!
//! The daemon speaks a length-prefixed binary protocol ([`protocol`])
//! over TCP or unix sockets, multiplexing many client sessions onto one
//! shared fleet. Clients subscribe queries, attach streams, and push
//! bitstream chunks; detections flow back asynchronously. The serving
//! layer's robustness contract:
//!
//! - **Backpressure without coupling**: each session owns a bounded
//!   outbound [`queue::SessionQueue`]; a slow or stalled reader loses
//!   its own oldest detections (accounted via `Lagged`) and never
//!   slows ingest or any other client.
//! - **Admission control**: session, per-tenant subscription, and
//!   per-session stream limits; oversized and malformed frames are
//!   rejected with typed errors before they can cost memory.
//! - **Fault isolation**: stream-level bitstream damage detaches one
//!   stream (or is recovered and accounted, in recovery mode); an
//!   engine panic is caught and surfaced, not fatal; fleet shard
//!   crashes restart under the engine exactly as they do offline.
//! - **Graceful drain**: a `Shutdown` frame stops admission, flushes
//!   every attached stream through its partial window, drains the
//!   fleet within a deadline, and pushes `Drained` to every client.

#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod daemon;
pub mod engine;
pub mod ingest;
pub mod protocol;
pub mod queue;

pub use client::Client;
pub use config::ServeConfig;
pub use daemon::{Daemon, Endpoint};
pub use engine::ServeReport;
pub use ingest::{ChunkedIngest, IngestError};
pub use protocol::{ErrorCode, HealthReport, Reply, Request};
pub use queue::{Outbound, SessionQueue};
