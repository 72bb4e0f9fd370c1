#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-runtime
//!
//! The parallel batched-inference runtime of the HyFlexPIM reproduction.
//! Where `hyflex-pim` models one inference at a time, this crate models and
//! drives **production-shaped** execution:
//!
//! * [`JobPool`] — the worker pool of the foundation crate
//!   `hyflex-parallel`, re-exported here: it drives the noise-accuracy
//!   sweeps and the figure binaries' seed × SLC-rate × evaluation-point
//!   grids without changing results.
//! * [`sweep`] — parallel drivers for `NoiseSimulator` and
//!   `PerformanceModel` sweeps, bit-identical to the serial entry points in
//!   `hyflex-pim`.
//! * [`batch`] — [`BatchScheduler`]: batching of
//!   [`InferenceRequest`]s bounded by the tile
//!   capacity the serving backend reports, admitted in
//!   [`policy`] order (FCFS, earliest-deadline-first, or strict priority).
//! * [`serving`] — [`ServingSim`]: a closed-loop
//!   serving simulator with Poisson arrivals — homogeneous or a weighted
//!   [`RequestClass`] mix with per-class SLOs —
//!   reporting throughput, utilization, p50/p95/p99 latency, and SLO
//!   attainment (see `examples/serving_sim.rs` and the
//!   `fig18_batch_throughput` binary).
//! * [`cluster`] — [`ClusterSim`]: the same engine
//!   over N backend replicas behind a round-robin or join-shortest-queue
//!   dispatcher (`fig20_serving_policies`, `examples/cluster_serving.rs`).
//! * [`traffic`] — [`RequestTrace`]: open-loop arrival generation — seeded
//!   deterministic MMPP and gamma-burst processes under piecewise diurnal
//!   rate curves, streaming to 10⁶–10⁷ requests in O(1) memory.
//! * [`overload`] — [`OverloadSim`]: overload survival over a
//!   chip-heterogeneous fleet — admission control (token-bucket /
//!   queue-depth), deadline-aware shedding, policy-driven preemption, and a
//!   reactive autoscaler — reporting p99.9 tails, goodput under SLO, and
//!   per-phase (burst vs. trough) breakdowns (`fig21_overload_survival`,
//!   `examples/open_loop_traffic.rs`).
//! * [`decode`] — [`DecodeSim`]: autoregressive decode serving with the KV
//!   cache placed on the SLC/MLC fabric (`fig22_decode_serving`).
//!
//! Every engine prices batches and decode iterations through one per-run
//! memo (`cost::CostMemo`), so each distinct shape reaches the backend once
//! per run.
//!
//! The whole execution layer is **backend-generic**: the scheduler, the
//! serving simulators, and [`par_backend_eval`]
//! consume any `hyflex_pim::Backend` ([`HyFlexPim`] or the baselines from
//! `hyflex-baselines`), so one workload drives interchangeable device models
//! (`fig19_backend_serving`). The HyFlexPIM path stays bit-identical to the
//! pre-generic implementation (CI-enforced determinism suite).

pub mod batch;
pub mod cluster;
mod cost;
pub mod decode;
pub mod error;
pub mod overload;
pub mod policy;
pub mod serving;
pub mod sweep;
pub mod traffic;

pub use batch::{Batch, BatchScheduler, InferenceRequest, SchedulerConfig};
pub use cluster::{BatchTrace, ClusterConfig, ClusterReport, ClusterSim, DispatchPolicy};
pub use decode::{DecodeConfig, DecodeReport, DecodeSim, KvPlacementPolicy};
pub use error::RuntimeError;
pub use hyflex_parallel::{JobPool, PoolScope};
pub use hyflex_pim::backend::{Backend, HyFlexPim};
pub use overload::{
    AdmissionPolicy, AutoscaleEvent, AutoscalerConfig, OverloadConfig, OverloadReport, OverloadSim,
    PhaseReport,
};
pub use policy::SchedulingPolicy;
pub use serving::{LatencySummary, RequestClass, ServingConfig, ServingReport, ServingSim};
pub use sweep::{par_backend_eval, par_noise_sweep, par_perf_eval};
pub use traffic::{
    ArrivalProcess, MmppState, RatePhase, RequestTrace, TrafficConfig, TrafficStream,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;
