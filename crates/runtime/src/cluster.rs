//! Multi-chip serving: N backend replicas behind a dispatcher.
//!
//! [`ClusterSim`] extends the single-device [`ServingSim`]
//! to a fleet of identical chips. One Poisson arrival stream (with the same
//! heterogeneous request mix and SLO semantics as the single-chip run) is
//! routed to chips by a [`DispatchPolicy`] — round-robin or
//! join-shortest-queue — and every chip runs its own
//! [`BatchScheduler`] with the configured
//! batching window and [`SchedulingPolicy`](crate::policy::SchedulingPolicy).
//!
//! Both simulators share one discrete-event engine (`run_engine`), so the
//! batching-window semantics are identical everywhere:
//!
//! * the window deadline is anchored at the **oldest queued arrival**
//!   (`max(ready, oldest + max_wait)`), so a request that already waited out
//!   the window while the device was busy launches the moment the device
//!   frees — a saturated chip never adds window delay;
//! * the window is **non-clairvoyant**: a batch's launch time is decided
//!   only from arrivals at or before "now" (`min(deadline, max(ready,
//!   fill_time))`), never by peeking at future arrivals — the run's final
//!   batch waits out its window exactly like a mid-run one;
//! * "full" is judged from the queue's actual contents
//!   ([`BatchScheduler::fill_time_ns`](crate::batch::BatchScheduler::fill_time_ns)),
//!   so heterogeneous sequence lengths move the fill target with the padded
//!   execution shape.
//!
//! Dispatch is decided at arrival time from information available at
//! arrival time (join-shortest-queue counts each chip's queued plus
//! in-flight requests), which keeps the whole cluster run deterministic for
//! a seed.

use crate::batch::{Batch, BatchScheduler, InferenceRequest, SchedulerConfig};
use crate::cost::CostMemo;
use crate::error::RuntimeError;
use crate::serving::{latency_summary, ServingConfig, ServingSim};
use crate::Result;
use hyflex_pim::backend::{Backend, HyFlexPim};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the cluster routes an arriving request to a chip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through chips in index order, one request each.
    #[default]
    RoundRobin,
    /// Send each request to the chip with the fewest outstanding requests
    /// (queued plus launched-but-incomplete) at its arrival time; ties go
    /// to the lowest chip index.
    JoinShortestQueue,
}

impl DispatchPolicy {
    /// Every dispatch policy, in display order.
    pub const ALL: [DispatchPolicy; 2] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
    ];

    /// Stable name (accepted back by [`DispatchPolicy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::JoinShortestQueue => "jsq",
        }
    }

    /// Parses a policy name as accepted by the binaries' `--dispatch` flag.
    pub fn parse(name: &str) -> Option<DispatchPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "round-robin" | "rr" => Some(DispatchPolicy::RoundRobin),
            "jsq" | "shortest-queue" | "join-shortest-queue" => {
                Some(DispatchPolicy::JoinShortestQueue)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cluster topology and workload of one multi-chip run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of identical backend replicas.
    pub chips: usize,
    /// Request routing policy.
    pub dispatch: DispatchPolicy,
    /// Workload and per-chip batching policy (the single-chip config; its
    /// `qps` is the load offered to the whole cluster).
    pub serving: ServingConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            chips: 2,
            dispatch: DispatchPolicy::RoundRobin,
            serving: ServingConfig::default(),
        }
    }
}

/// One launched batch, as observed by the engine (returned by the
/// `*_traced` entry points for tests and trace analysis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchTrace {
    /// Index of the chip that executed the batch (always 0 single-chip).
    pub chip: usize,
    /// Time the batch launched, ns.
    pub launch_ns: f64,
    /// Modeled makespan of the batch, ns.
    pub makespan_ns: f64,
    /// The formed batch (requests, padded shape, cells used).
    pub batch: Batch,
}

/// Outcome of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Number of chips simulated.
    pub chips: usize,
    /// Dispatch policy of the run.
    pub dispatch: DispatchPolicy,
    /// Requests completed across the cluster (the loop is closed, so this
    /// always equals the number of offered requests).
    pub completed: usize,
    /// Batches executed across all chips.
    pub batches: usize,
    /// Wall-clock span from first arrival to last completion, seconds.
    pub sim_seconds: f64,
    /// Configured offered load (whole cluster), requests per second.
    pub offered_qps: f64,
    /// Completed requests per simulated second.
    pub achieved_qps: f64,
    /// Goodput under SLO: *useful* completions per simulated second, where
    /// a completion is useful if it met its deadline or carried no SLO.
    /// Equals `achieved_qps` when no request carries an SLO.
    pub goodput_qps: f64,
    /// End-to-end request latency distribution.
    pub latency: crate::serving::LatencySummary,
    /// Fraction of deadline-carrying requests that completed by their
    /// deadline (1.0 when no request carries an SLO).
    pub slo_attainment: f64,
    /// Mean formed batch size across the cluster.
    pub mean_batch_size: f64,
    /// Mean time a request waited before its batch launched, milliseconds.
    pub mean_queue_ms: f64,
    /// Per-chip completed-request counts (sums to `completed`).
    pub per_chip_completed: Vec<usize>,
    /// Per-chip busy fraction over the chip's active span.
    pub per_chip_utilization: Vec<f64>,
    /// Mean of `per_chip_utilization`.
    pub mean_chip_utilization: f64,
}

/// Per-chip accounting the engine reports back.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChipStats {
    pub completed: usize,
    pub batches: usize,
    pub busy_ns: f64,
    pub device_free_ns: f64,
}

/// Everything a simulation run produces before report assembly.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineOutcome {
    pub latencies_ns: Vec<f64>,
    pub queue_ns_sum: f64,
    pub slo_tracked: usize,
    pub slo_met: usize,
    pub last_completion_ns: f64,
    pub traces: Vec<BatchTrace>,
    pub chips: Vec<ChipStats>,
}

impl EngineOutcome {
    /// Fraction of deadline-carrying requests that met their deadline.
    pub fn slo_attainment(&self) -> f64 {
        if self.slo_tracked > 0 {
            self.slo_met as f64 / self.slo_tracked as f64
        } else {
            1.0
        }
    }
}

/// One chip of the simulated cluster: a scheduler queue plus device timing.
struct ChipState {
    index: usize,
    scheduler: BatchScheduler,
    device_free: f64,
    busy_ns: f64,
    batches: usize,
    completed: usize,
    /// Completion times of launched requests (for join-shortest-queue's
    /// outstanding count); pruned lazily.
    inflight: Vec<f64>,
}

impl ChipState {
    fn new(index: usize, backend: Arc<dyn Backend>, config: SchedulerConfig) -> Result<Self> {
        Ok(ChipState {
            index,
            scheduler: BatchScheduler::for_backend(backend, config)?,
            device_free: 0.0,
            busy_ns: 0.0,
            batches: 0,
            completed: 0,
            inflight: Vec::new(),
        })
    }

    /// Requests dispatched to this chip that have not completed by `now`.
    fn outstanding(&mut self, now: f64) -> usize {
        self.inflight.retain(|&completion| completion > now);
        self.scheduler.queue_len() + self.inflight.len()
    }

    /// Commits every batch whose launch time is at or before `now`.
    ///
    /// Launch times are decided purely from the queue (whose members all
    /// arrived in the past), so a launch at `t <= now` can never be changed
    /// by an arrival after `now` — this is what makes the lazy event loop
    /// exact. The window semantics live here; see the module docs.
    fn advance(&mut self, now: f64, cost: &mut CostMemo, out: &mut EngineOutcome) -> Result<()> {
        while self.scheduler.queue_len() > 0 {
            let Some(oldest) = self.scheduler.oldest_arrival_ns() else {
                break;
            };
            let ready = self.device_free.max(oldest);
            let max_wait = self.scheduler.config().max_wait_ns;
            let launch = if max_wait == 0.0 {
                ready
            } else {
                // Window deadline anchored at the oldest queued arrival,
                // clamped to ready; a full queue launches at its fill time
                // (or ready, whichever is later), a non-full one waits out
                // the window.
                let deadline = ready.max(oldest + max_wait);
                match self.scheduler.fill_time_ns() {
                    Some(fill) => deadline.min(ready.max(fill)),
                    None => deadline,
                }
            };
            if launch > now {
                break;
            }
            let Some(batch) = self.scheduler.next_batch() else {
                break;
            };
            let summary = cost.batched(batch.max_seq_len, batch.len())?;
            for (k, request) in batch.requests.iter().enumerate() {
                let completion = launch + summary.completion_ns(k);
                out.latencies_ns.push(completion - request.arrival_ns);
                out.queue_ns_sum += launch - request.arrival_ns;
                out.last_completion_ns = out.last_completion_ns.max(completion);
                if request.has_deadline() {
                    out.slo_tracked += 1;
                    if completion <= request.deadline_ns {
                        out.slo_met += 1;
                    }
                }
                self.inflight.push(completion);
            }
            self.device_free = launch + summary.makespan_ns;
            self.busy_ns += summary.makespan_ns;
            self.batches += 1;
            self.completed += batch.len();
            out.traces.push(BatchTrace {
                chip: self.index,
                launch_ns: launch,
                makespan_ns: summary.makespan_ns,
                batch,
            });
        }
        Ok(())
    }

    fn stats(&self) -> ChipStats {
        ChipStats {
            completed: self.completed,
            batches: self.batches,
            busy_ns: self.busy_ns,
            device_free_ns: self.device_free,
        }
    }
}

/// Runs the shared discrete-event serving engine: `arrivals` (sorted by
/// arrival time) dispatched over `chips` replicas of `backend`.
///
/// Chips advance in index order at every arrival, so the whole run is a
/// deterministic function of its inputs.
pub(crate) fn run_engine(
    backend: Arc<dyn Backend>,
    chips: usize,
    dispatch: DispatchPolicy,
    scheduler: SchedulerConfig,
    arrivals: &[InferenceRequest],
) -> Result<EngineOutcome> {
    if chips == 0 {
        return Err(RuntimeError::InvalidConfig(
            "a cluster needs at least one chip".to_string(),
        ));
    }
    if arrivals.is_empty() {
        return Err(RuntimeError::InvalidConfig(
            "the arrival stream is empty".to_string(),
        ));
    }
    // NaN arrival times compare as unordered and are rejected here too.
    if arrivals.windows(2).any(|pair| {
        pair[0]
            .arrival_ns
            .partial_cmp(&pair[1].arrival_ns)
            .is_none_or(|order| order == std::cmp::Ordering::Greater)
    }) {
        return Err(RuntimeError::InvalidConfig(
            "arrivals must be sorted by non-decreasing arrival_ns".to_string(),
        ));
    }
    let mut states = (0..chips)
        .map(|index| ChipState::new(index, Arc::clone(&backend), scheduler))
        .collect::<Result<Vec<_>>>()?;
    // Replicas are identical, so one memo serves every chip.
    let mut cost = CostMemo::new(backend);
    let mut out = EngineOutcome {
        latencies_ns: Vec::with_capacity(arrivals.len()),
        ..EngineOutcome::default()
    };
    let mut round_robin = 0usize;
    for request in arrivals {
        let now = request.arrival_ns;
        for chip in &mut states {
            chip.advance(now, &mut cost, &mut out)?;
        }
        let target = match dispatch {
            DispatchPolicy::RoundRobin => {
                let index = round_robin % chips;
                round_robin += 1;
                index
            }
            DispatchPolicy::JoinShortestQueue => {
                let mut best = 0usize;
                let mut best_load = usize::MAX;
                for (index, chip) in states.iter_mut().enumerate() {
                    let load = chip.outstanding(now);
                    if load < best_load {
                        best = index;
                        best_load = load;
                    }
                }
                best
            }
        };
        states[target].scheduler.submit(*request)?;
    }
    for chip in &mut states {
        chip.advance(f64::INFINITY, &mut cost, &mut out)?;
    }
    out.chips = states.iter().map(ChipState::stats).collect();
    Ok(out)
}

/// The multi-chip serving simulator, generic over the replicated device.
pub struct ClusterSim<B: Backend = HyFlexPim> {
    sim: ServingSim<B>,
    chips: usize,
    dispatch: DispatchPolicy,
}

impl<B: Backend> Clone for ClusterSim<B> {
    fn clone(&self) -> Self {
        ClusterSim {
            sim: self.sim.clone(),
            chips: self.chips,
            dispatch: self.dispatch,
        }
    }
}

impl<B: Backend> std::fmt::Debug for ClusterSim<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("sim", &self.sim)
            .field("chips", &self.chips)
            .field("dispatch", &self.dispatch)
            .finish()
    }
}

impl<B: Backend + 'static> ClusterSim<B> {
    /// Builds a cluster of `config.chips` replicas of `backend`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a zero-chip cluster and
    /// propagates every [`ServingSim::with_backend`] validation error.
    pub fn with_backend(backend: B, config: ClusterConfig) -> Result<Self> {
        if config.chips == 0 {
            return Err(RuntimeError::InvalidConfig(
                "a cluster needs at least one chip".to_string(),
            ));
        }
        Ok(ClusterSim {
            sim: ServingSim::with_backend(backend, config.serving)?,
            chips: config.chips,
            dispatch: config.dispatch,
        })
    }

    /// The per-chip workload/scheduler configuration.
    pub fn serving_config(&self) -> &ServingConfig {
        self.sim.config()
    }

    /// Number of chips in the cluster.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The dispatch policy.
    pub fn dispatch(&self) -> DispatchPolicy {
        self.dispatch
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors.
    pub fn run(&self) -> Result<ClusterReport> {
        Ok(self.run_traced()?.0)
    }

    /// Runs the simulation and also returns every launched batch.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors.
    pub fn run_traced(&self) -> Result<(ClusterReport, Vec<BatchTrace>)> {
        let arrivals = self.sim.generate_arrivals();
        self.replay_traced(&arrivals)
    }

    /// Replays an explicit arrival stream (sorted by `arrival_ns`) through
    /// the cluster instead of sampling the configured Poisson process.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an empty or unsorted
    /// stream and propagates scheduler and device-model errors.
    pub fn replay_traced(
        &self,
        arrivals: &[InferenceRequest],
    ) -> Result<(ClusterReport, Vec<BatchTrace>)> {
        let mut outcome = run_engine(
            self.sim.backend_dyn(),
            self.chips,
            self.dispatch,
            self.sim.config().scheduler,
            arrivals,
        )?;
        let span_start = arrivals.first().map_or(0.0, |a| a.arrival_ns);
        let completed = outcome.latencies_ns.len();
        let sim_seconds = (outcome.last_completion_ns - span_start).max(0.0) * 1e-9;
        let batches: usize = outcome.chips.iter().map(|c| c.batches).sum();
        let per_chip_completed: Vec<usize> = outcome.chips.iter().map(|c| c.completed).collect();
        let per_chip_utilization: Vec<f64> = outcome
            .chips
            .iter()
            .map(|c| {
                if c.device_free_ns > span_start {
                    c.busy_ns / (c.device_free_ns - span_start)
                } else {
                    0.0
                }
            })
            .collect();
        let mean_chip_utilization = per_chip_utilization.iter().sum::<f64>() / self.chips as f64;
        // A completion is useful unless it carried a deadline and missed it.
        let useful = completed - (outcome.slo_tracked - outcome.slo_met);
        let report = ClusterReport {
            chips: self.chips,
            dispatch: self.dispatch,
            completed,
            batches,
            sim_seconds,
            offered_qps: self.sim.config().qps,
            achieved_qps: if sim_seconds > 0.0 {
                completed as f64 / sim_seconds
            } else {
                0.0
            },
            goodput_qps: if sim_seconds > 0.0 {
                useful as f64 / sim_seconds
            } else {
                0.0
            },
            latency: latency_summary(std::mem::take(&mut outcome.latencies_ns)),
            slo_attainment: outcome.slo_attainment(),
            mean_batch_size: completed as f64 / batches.max(1) as f64,
            mean_queue_ms: outcome.queue_ns_sum / completed.max(1) as f64 / 1e6,
            per_chip_completed,
            per_chip_utilization,
            mean_chip_utilization,
        };
        Ok((report, outcome.traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    fn cluster(chips: usize, dispatch: DispatchPolicy, qps: f64) -> ClusterSim {
        let backend = HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap();
        ClusterSim::with_backend(
            backend,
            ClusterConfig {
                chips,
                dispatch,
                serving: ServingConfig {
                    qps,
                    num_requests: 240,
                    ..ServingConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn dispatch_names_round_trip_and_reject_unknowns() {
        for policy in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(policy.name()), Some(policy));
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!(
            DispatchPolicy::parse("rr"),
            Some(DispatchPolicy::RoundRobin)
        );
        assert_eq!(
            DispatchPolicy::parse("shortest-queue"),
            Some(DispatchPolicy::JoinShortestQueue)
        );
        assert_eq!(DispatchPolicy::parse("random"), None);
    }

    #[test]
    fn construction_rejects_zero_chips() {
        let backend = HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap();
        let config = ClusterConfig {
            chips: 0,
            ..ClusterConfig::default()
        };
        assert!(ClusterSim::with_backend(backend, config).is_err());
    }

    #[test]
    fn every_chip_serves_and_the_cluster_conserves_requests() {
        for dispatch in DispatchPolicy::ALL {
            let report = cluster(3, dispatch, 6000.0).run().unwrap();
            assert_eq!(report.completed, 240, "{dispatch}");
            assert_eq!(report.per_chip_completed.iter().sum::<usize>(), 240);
            assert_eq!(report.per_chip_completed.len(), 3);
            assert_eq!(report.per_chip_utilization.len(), 3);
            assert!(
                report.per_chip_completed.iter().all(|&c| c > 0),
                "{dispatch}: every chip should serve part of the stream, got \
                 {:?}",
                report.per_chip_completed
            );
            assert!(report.latency.p50_ms > 0.0);
            assert!(report.latency.p50_ms <= report.latency.p99_ms);
            assert!(report.mean_chip_utilization > 0.0 && report.mean_chip_utilization <= 1.0);
        }
    }

    #[test]
    fn cluster_runs_are_deterministic_for_a_seed() {
        for dispatch in DispatchPolicy::ALL {
            let a = cluster(2, dispatch, 5000.0).run().unwrap();
            let b = cluster(2, dispatch, 5000.0).run().unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_one_chip_cluster_matches_the_single_device_simulator() {
        // Same engine, one replica: the cluster's aggregate numbers must be
        // byte-identical to ServingSim on the same backend and workload.
        let cluster = cluster(1, DispatchPolicy::JoinShortestQueue, 4000.0);
        let cluster_report = cluster.run().unwrap();
        let single = ServingSim::with_backend(
            HyFlexPim::new(
                PerformanceModel::paper_default(),
                ModelConfig::bert_base(),
                0.05,
            )
            .unwrap(),
            cluster.serving_config().clone(),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(cluster_report.completed, single.completed);
        assert_eq!(cluster_report.batches, single.batches);
        assert_eq!(cluster_report.latency, single.latency);
        assert_eq!(cluster_report.goodput_qps, single.goodput_qps);
        assert_eq!(cluster_report.sim_seconds, single.sim_seconds);
        assert_eq!(cluster_report.mean_batch_size, single.mean_batch_size);
        assert_eq!(cluster_report.mean_queue_ms, single.mean_queue_ms);
        assert_eq!(
            cluster_report.per_chip_utilization[0],
            single.device_utilization
        );
    }

    #[test]
    fn more_chips_drain_an_overload_faster() {
        // Offered load far beyond one chip's service rate: doubling the
        // fleet must raise sustained throughput and cut tail latency.
        let one = cluster(1, DispatchPolicy::RoundRobin, 12_000.0)
            .run()
            .unwrap();
        let four = cluster(4, DispatchPolicy::RoundRobin, 12_000.0)
            .run()
            .unwrap();
        assert!(
            four.achieved_qps > one.achieved_qps,
            "4 chips {} <= 1 chip {}",
            four.achieved_qps,
            one.achieved_qps
        );
        assert!(four.latency.p99_ms < one.latency.p99_ms);
    }

    #[test]
    fn jsq_balances_at_least_as_evenly_as_round_robin_under_skew() {
        // With a heterogeneous mix, round-robin ignores how much work each
        // request carries; join-shortest-queue reacts to it. Both must
        // still conserve the stream.
        let make = |dispatch| {
            let backend = HyFlexPim::new(
                PerformanceModel::paper_default(),
                ModelConfig::bert_base(),
                0.05,
            )
            .unwrap();
            ClusterSim::with_backend(
                backend,
                ClusterConfig {
                    chips: 3,
                    dispatch,
                    serving: ServingConfig {
                        qps: 9000.0,
                        num_requests: 300,
                        classes: vec![
                            crate::serving::RequestClass::new(64, 2.0),
                            crate::serving::RequestClass::new(384, 1.0),
                        ],
                        ..ServingConfig::default()
                    },
                },
            )
            .unwrap()
        };
        let rr = make(DispatchPolicy::RoundRobin).run().unwrap();
        let jsq = make(DispatchPolicy::JoinShortestQueue).run().unwrap();
        assert_eq!(rr.completed, 300);
        assert_eq!(jsq.completed, 300);
        assert_eq!(jsq.per_chip_completed.iter().sum::<usize>(), 300);
    }
}
