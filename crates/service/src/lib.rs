#![warn(missing_docs)]

//! # abr-service
//!
//! A multi-tenant solve service on top of the block-asynchronous
//! relaxation fabric: a long-lived daemon accepting concurrent solve
//! requests over a length-prefixed JSON wire protocol and multiplexing
//! them onto **one shared persistent-worker pool**
//! ([`abr_gpu::WorkerPool`]). The frames go through a typed, bounded
//! codec ([`wire`]): rendered straight from the typed fields, parsed in
//! one non-recursive pass straight back into them, integers exact,
//! non-finite numbers rejected.
//!
//! The paper's method tolerates chaos *inside* a solve (stale reads,
//! uneven progress, dead workers — §4.5); this crate applies the same
//! philosophy one level up, where the chaos is concurrent tenants,
//! saturated queues, and deadlines:
//!
//! * bounded admission with structured `Overloaded { retry_after_ms }`
//!   shedding ([`daemon`]),
//! * per-request deadlines and cancellation riding the executor's
//!   Release/Acquire stop flag ([`abr_gpu::CancelToken`]),
//! * per-request fault isolation (`catch_unwind` at the pool slice and
//!   at the connection), so a poisoned tenant never kills the daemon,
//! * a solve-result cache with single-flight coalescing ([`cache`]),
//! * graceful drain with structural zero-leaked-thread accounting
//!   ([`daemon::DrainReport`]),
//! * a client with retry + exponential backoff + jitter ([`client`]).
//!
//! See DESIGN.md §10 for the wire-format frame table and the request
//! lifecycle state machine.

pub mod cache;
pub mod client;
mod codec;
pub mod daemon;
pub mod wire;

pub use cache::{solve_key, Begin, CachedSolve, SolveCache};
pub use client::{Client, RetryPolicy};
pub use daemon::{ChaosConfig, Daemon, DaemonConfig, DrainReport, ServiceCounters};
pub use wire::{MatrixSpec, Mode, Request, Response, SolveSpec};
