//! The measurement harness: a discrete-time multi-agent simulator and the
//! sweep machinery that regenerates the paper's evaluation.
//!
//! * [`algo`] — a uniform façade over every algorithm in the workspace
//!   (ours, the three deterministic baselines, random hopping, the two
//!   beacon protocols), so sweeps can be written once.
//! * [`workload`] — scenario generators: adversarial overlap-one pairs,
//!   random `k`-subsets, clustered spectrum, coalition (tiny sets in a huge
//!   universe), symmetric.
//! * [`engine`] — the multi-agent simulator: a shared-arena engine that
//!   fills each agent's schedule once per block (bit-plane-packed rows on
//!   plane-eligible universes) and resolves all pending pairs over the
//!   shared arena, with a density-adaptive bucket-scan resolution mode
//!   for dense populations.
//! * [`pool`] — the work-stealing parallel orchestrator: one scheduler,
//!   deterministic task-indexed sharding over the vendored crossbeam
//!   deques (`run_indexed`), with bit-identical results at every thread
//!   count. Sweep grids and the arena engine's fill/resolve block step
//!   each run as two flat waves on it.
//! * [`sweep`] — pairwise worst/mean time-to-rendezvous sweeps over shifts
//!   and seeds: one wave plans every cell, a second evaluates the
//!   `(shift × seed)` chunks of all cells.
//! * [`stats`] — means, percentiles, and the log-log growth-exponent fits
//!   used to check the paper's asymptotic claims empirically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod engine;
pub mod pool;
pub mod spectrum;
pub mod stats;
pub mod sweep;
pub mod workload;

pub use algo::Algorithm;
pub use engine::{
    EngineConfig, MeetingMap, MeetingReport, MissCause, MissedPair, PlanePolicy, ResolveMode,
    Simulation,
};
pub use pool::{ParallelConfig, TaskPanic};
pub use rdv_core::fault::{FaultPlan, FaultProfile, InPlayWindow};
pub use sweep::{
    sweep_lower_bound, sweep_lower_grid, sweep_pair_grid, sweep_pair_ttr, LowerBoundSweep,
    LowerCell, LowerSweepConfig, PairSweep, SweepCell, SweepConfig, SweepError,
};
