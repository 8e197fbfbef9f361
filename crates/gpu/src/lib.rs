#![warn(missing_docs)]

//! # abr-gpu
//!
//! A GPU execution substrate for the block-asynchronous relaxation
//! experiments, replacing the CUDA/Fermi testbed of the paper (see
//! DESIGN.md §2 for the substitution argument). Two independent concerns
//! are modelled:
//!
//! 1. **Update ordering** — the chaotic interleaving of thread-block
//!    updates that drives the numerics of asynchronous iteration. Provided
//!    by two fabrics over the same [`kernel::BlockKernel`] interface:
//!    [`sim::SimExecutor`] (a seeded discrete-event simulation of SMs
//!    dispatching thread blocks — deterministic and reproducible) and
//!    [`persistent::PersistentExecutor`] (real OS threads, spawned once
//!    per solve or leased from a [`pool::WorkerPool`], hammering a shared
//!    atomic vector while the calling thread monitors convergence —
//!    genuinely non-deterministic).
//! 2. **Wall-clock cost** — a calibrated [`timing::TimingModel`] mapping
//!    (method, matrix size, iteration counts, devices, communication
//!    strategy) to seconds on the paper's hardware (Fermi C2070 GPUs in a
//!    dual-socket Supermicro host). Used to regenerate Tables 4–6 and
//!    Figures 8, 9, 11.

pub mod device;
pub mod halo;
pub mod kernel;
pub mod occupancy;
pub mod persistent;
pub mod pool;
pub mod residual;
pub mod schedule;
pub mod sim;
pub mod timing;
pub mod topology;
pub mod trace;
pub mod xview;

pub use device::{DeviceSpec, HostSpec};
pub use halo::HaloExchange;
pub use kernel::{BlockKernel, BlockScratch, UpdateFilter};
pub use occupancy::{occupancy, KernelFootprint, Occupancy, SmLimits};
pub use persistent::{
    ConvergenceMonitor, DeathRecord, FaultKind, FaultPlan, FaultReport, FrozenSpan, NoMonitor,
    PersistentExecutor, PersistentOptions, PersistentReport, PersistentWorkspace, Reassignment,
    RunOutcome, RunSession, ShardPhase, ShardPlan, ShardState, ThreadedOptions, WorkerFault,
};
pub use pool::{CancelCause, CancelToken, Lease, WorkerPool};
pub use residual::ResidualSlots;
pub use schedule::{BlockSchedule, RandomPermutation, RecurringPattern, RoundRobin};
pub use sim::{SimExecutor, SimOptions};
pub use timing::{CommStrategy, TimingModel};
pub use topology::Topology;
pub use trace::{SkewTracker, StalenessHistogram, UpdateTrace};
pub use xview::{AtomicF64Vec, HaloView, XView};
