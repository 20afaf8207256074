//! `crowd_wire` — a length-prefixed binary TCP protocol, blocking
//! server, and blocking client for the sharded assessment service.
//!
//! The service ([`crowd_service`]) already runs thread-per-shard with
//! bounded blocking queues; this crate puts a socket in front of it
//! without changing that model: a thread-per-connection server
//! ([`WireServer`]) dispatches decoded requests straight onto a
//! shared [`crowd_service::ServiceHandle`], and a blocking client
//! ([`WireClient`]) speaks the same frames from another process. No
//! async runtime anywhere — backpressure propagates from full shard
//! queues through connection threads into TCP flow control.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := len:u32 LE  opcode:u8  payload
//! len     := byte count of opcode + payload  (1 ≤ len ≤ max_frame_len)
//! ```
//!
//! Integers are little-endian, `usize` travels as `u64`, `f64` as its
//! IEEE 754 bit pattern — which is why a report decoded from the wire
//! is **bit-identical** to the struct the server serialized, and why
//! the wire path can be gated on byte equality against the in-process
//! path before any throughput number is trusted. The opcode table and
//! payload grammars live in [`proto`]; the framing rules and failure
//! taxonomy in [`frame`].
//!
//! # Per-request cost
//!
//! | Request | Round trips | Server-side work |
//! |---|---|---|
//! | `IngestBatch` | 1 (amortized 1/window when pipelined) | route + enqueue; shard work is asynchronous |
//! | `AssessWorker` | 1 | one shard answers from its maintained state |
//! | `AssessWorkers` | 1 | home shards of the named workers |
//! | `Snapshot` | 1 | every shard assesses its workers; FIFO drain point |
//! | `Drain` | 1 | barrier across all shard queues |
//! | `Metrics` | 1 | one counter merge across the shard queues + wait-free histogram/journal snapshots, sent as named samples |
//! | `Shutdown` | 1 | full drain + shard join + the final `Metrics` scrape; server stops accepting |
//!
//! # Failure model
//!
//! Nothing a peer sends can panic a connection thread, and nothing
//! the service returns is flattened to a string prematurely: the full
//! [`crowd_service::ServiceError`] taxonomy — nested
//! [`crowd_data::DataError`], [`crowd_core::EstimateError`] and
//! [`crowd_stats::StatsError`] included — crosses the wire as typed
//! frames and is rebuilt on the client. Malformed-but-delimited
//! frames get an error reply and the connection lives on; only
//! failures that destroy frame-boundary trust
//! ([`WireError::poisons_stream`]) close it.

pub mod client;
pub mod frame;
pub mod proto;
pub mod retry;
pub mod server;

pub use client::{ClientConfig, IngestPipelineError, WireClient};
pub use frame::{FrameError, FrameEvent, FrameReader, MAX_FRAME_LEN, WireError};
pub use proto::{MetricsReport, Reply, Request};
pub use retry::{RetryClient, RetryConfig};
pub use server::{WireConfig, WireServer};
