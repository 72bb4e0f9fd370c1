//! Overload survival: admission control, deadline-aware shedding,
//! preemption, and reactive autoscaling over a chip-heterogeneous fleet.
//!
//! The closed-loop simulators ([`ServingSim`](crate::serving::ServingSim),
//! [`ClusterSim`](crate::cluster::ClusterSim)) complete every request they
//! are offered — under sustained overload their queues grow without bound
//! and the report degenerates into one long queueing transient.
//! [`OverloadSim`] is the open-loop counterpart: it drives a fleet of
//! [`Backend`] replicas from a streaming [`RequestTrace`] and lets the
//! operator *refuse* work instead of queueing it forever:
//!
//! * **Admission control** ([`AdmissionPolicy`]) — a token bucket
//!   (rate + burst) or a per-replica queue-depth gate decides at arrival
//!   time whether a request enters the system at all. Rejected requests
//!   never queue.
//! * **Deadline-aware shedding** (`shed`) — at every batch launch a replica
//!   drops queued requests that provably cannot meet their deadline even if
//!   launched immediately
//!   ([`BatchScheduler::shed_doomed`](crate::batch::BatchScheduler::shed_doomed)),
//!   so doomed work stops consuming device time that live requests need.
//! * **Preemption** (`preempt`) — when the queue-depth gate is full, a
//!   more-urgent newcomer (in [`SchedulingPolicy`](crate::policy::SchedulingPolicy)
//!   order) evicts the least-urgent queued request
//!   ([`BatchScheduler::preempt_for`](crate::batch::BatchScheduler::preempt_for))
//!   instead of being rejected.
//! * **Autoscaling** ([`AutoscalerConfig`]) — a reactive control loop
//!   samples per-replica outstanding work at a fixed interval and, after a
//!   configurable actuation lag, activates or retires replicas between a
//!   floor and a ceiling. Retired replicas drain their queues but receive
//!   no new dispatches; newly activated replicas come up cold (their
//!   device clock starts at activation).
//!
//! The fleet is **chip-heterogeneous**: each replica is its own
//! `Arc<dyn Backend>`, so a fleet can mix HyFlexPIM chips with any of the
//! registry baselines. Batch evaluations are memoized per replica.
//!
//! Reporting is honest about the tail: latencies accumulate into a
//! log-linear histogram (64 sub-buckets per octave, ≤ 1.6 % relative
//! error) so p99.9 is available at 10⁶–10⁷ requests in O(1) memory, and
//! the report carries goodput under SLO, shed/preempt/reject counts, and
//! per-phase (burst vs. trough) breakdowns keyed by the arrival phase the
//! traffic generator tagged each request with. The conservation invariant
//! `offered = completed + rejected + shed + preempted` holds exactly after
//! the final drain (and `admitted = completed + shed + preempted`).

use crate::batch::{BatchScheduler, SchedulerConfig};
use crate::cluster::DispatchPolicy;
use crate::cost::CostMemo;
use crate::error::RuntimeError;
use crate::serving::LatencySummary;
use crate::traffic::RequestTrace;
use crate::Result;
use hyflex_pim::backend::{Backend, InferenceRequest};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Gate deciding at arrival time whether a request enters the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit everything (the closed-loop behavior; queues are unbounded).
    Unbounded,
    /// Token bucket: the bucket refills continuously at `rate_qps` tokens
    /// per second up to `burst`; a request is admitted iff a whole token
    /// is available, consuming it. Caps the *sustained* admitted rate at
    /// `rate_qps` while letting bursts of up to `burst` requests through.
    TokenBucket {
        /// Sustained admitted rate, requests per second.
        rate_qps: f64,
        /// Bucket capacity, requests.
        burst: f64,
    },
    /// Per-replica queue-depth gate: a request routed to a replica with
    /// `max_outstanding` or more outstanding requests (queued plus
    /// in-flight) is rejected — unless preemption is enabled and the
    /// newcomer is more urgent than a queued request. Bounds queue memory
    /// and queue-wait regardless of how far offered load exceeds service
    /// capacity.
    QueueDepth {
        /// Maximum outstanding requests per replica.
        max_outstanding: usize,
    },
}

impl AdmissionPolicy {
    /// Stable display name (for table rows).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Unbounded => "unbounded",
            AdmissionPolicy::TokenBucket { .. } => "token-bucket",
            AdmissionPolicy::QueueDepth { .. } => "queue-depth",
        }
    }
}

/// Reactive autoscaling policy over the fleet.
///
/// At every `check_interval_s` the controller computes mean outstanding
/// work per *active* replica. Above `scale_up_outstanding` it schedules one
/// activation, below `scale_down_outstanding` one retirement, each taking
/// effect `actuation_lag_s` later (modeling provisioning delay). At most
/// one actuation is in flight at a time, which doubles as a cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// Fewest replicas kept active (the fleet starts here).
    pub min_replicas: usize,
    /// Most replicas the controller may activate (≤ fleet size).
    pub max_replicas: usize,
    /// Observation interval, seconds.
    pub check_interval_s: f64,
    /// Delay between a scale decision and its taking effect, seconds.
    pub actuation_lag_s: f64,
    /// Mean outstanding requests per active replica above which one
    /// replica is added.
    pub scale_up_outstanding: f64,
    /// Mean outstanding requests per active replica below which one
    /// replica is retired.
    pub scale_down_outstanding: f64,
    /// Optional EWMA load predictor (Holt double smoothing with the given
    /// level/trend gain `α ∈ (0, 1]`). When set, the controller smooths
    /// the per-replica outstanding, projects it one actuation lag ahead
    /// along its trend, and compares the thresholds against
    /// `max(measured, projected)`: it scales *up* on either the forecast
    /// or the evidence — starting to pay the lag while a burst is still
    /// ramping — but scales *down* only when both agree, so a draining
    /// (yet still full) queue's negative trend cannot retire the replicas
    /// the next burst needs. `None` keeps the historical reactive
    /// controller, decision for decision.
    pub ewma_alpha: Option<f64>,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_replicas: 1,
            max_replicas: usize::MAX, // clamped to the fleet size
            check_interval_s: 0.05,
            actuation_lag_s: 0.1,
            scale_up_outstanding: 64.0,
            scale_down_outstanding: 8.0,
            ewma_alpha: None,
        }
    }
}

/// One autoscaler actuation, as recorded in the report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleEvent {
    /// Time the actuation took effect, seconds.
    pub at_s: f64,
    /// Active replica count after the actuation.
    pub active_replicas: usize,
}

/// Workload and survival policy of one open-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// The arrival trace (process, rate curve, mix, seed).
    pub trace: RequestTrace,
    /// Per-replica batching policy.
    pub scheduler: SchedulerConfig,
    /// How arrivals are routed to active replicas.
    pub dispatch: DispatchPolicy,
    /// Admission gate.
    pub admission: AdmissionPolicy,
    /// Deadline-aware load shedding at batch launch.
    pub shed: bool,
    /// Preemption at the queue-depth gate (no effect under
    /// [`AdmissionPolicy::Unbounded`] / token bucket, which never consult
    /// the queue).
    pub preempt: bool,
    /// Reactive autoscaling; `None` keeps every replica active.
    pub autoscaler: Option<AutoscalerConfig>,
}

impl OverloadConfig {
    /// A config serving `trace` with everything else at its default: FCFS
    /// batching, join-shortest-queue dispatch, unbounded admission, no
    /// shedding, no preemption, no autoscaler.
    pub fn new(trace: RequestTrace) -> Self {
        OverloadConfig {
            trace,
            scheduler: SchedulerConfig::default(),
            dispatch: DispatchPolicy::JoinShortestQueue,
            admission: AdmissionPolicy::Unbounded,
            shed: false,
            preempt: false,
            autoscaler: None,
        }
    }
}

/// Per-phase (burst/trough/curve-segment) slice of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase label from the traffic generator.
    pub label: String,
    /// Requests that arrived in this phase.
    pub offered: usize,
    /// ... of which admitted.
    pub admitted: usize,
    /// ... of which completed.
    pub completed: usize,
    /// ... rejected at admission.
    pub rejected: usize,
    /// ... shed after admission.
    pub shed: usize,
    /// ... preempted after admission.
    pub preempted: usize,
    /// Deadline-carrying arrivals of this phase that met their deadline,
    /// over all deadline-carrying arrivals (rejected/shed/preempted ones
    /// count as misses); 1.0 when the phase carried no SLOs.
    pub slo_attainment: f64,
    /// 99th-percentile completion latency of the phase, ms (0 when the
    /// phase completed nothing). Histogram-quantized (≤ 1.6 % error).
    pub p99_ms: f64,
    /// 99.9th-percentile completion latency of the phase, ms; `None` below
    /// 1000 completions (see [`LatencySummary`]).
    pub p999_ms: Option<f64>,
}

/// Outcome of one open-loop overload run.
///
/// Counts satisfy `offered = admitted + rejected` and
/// `admitted = completed + shed + preempted` exactly (the final drain
/// leaves nothing in flight). `slo_attainment` is over *offered*
/// deadline-carrying requests — a shed or rejected request is a miss, not
/// a statistical disappearance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Fleet size (replicas provisioned, whether or not ever active).
    pub replicas: usize,
    /// Requests the trace offered.
    pub offered: usize,
    /// Requests past the admission gate.
    pub admitted: usize,
    /// Requests refused at admission.
    pub rejected: usize,
    /// Admitted requests dropped by deadline-aware shedding.
    pub shed: usize,
    /// Admitted requests evicted by a more-urgent newcomer.
    pub preempted: usize,
    /// Requests that completed execution.
    pub completed: usize,
    /// Batches executed across the fleet.
    pub batches: usize,
    /// Span from first arrival to the last completion (or last arrival if
    /// later), seconds.
    pub sim_seconds: f64,
    /// Long-run mean offered rate of the trace, requests per second.
    pub offered_qps: f64,
    /// Completed requests per simulated second.
    pub achieved_qps: f64,
    /// Goodput under SLO: useful completions (met their deadline, or
    /// carried none) per simulated second.
    pub goodput_qps: f64,
    /// Fraction of deadline-carrying *offered* requests that completed by
    /// their deadline (1.0 when nothing carried an SLO).
    pub slo_attainment: f64,
    /// Completion-latency distribution (histogram-quantized percentiles,
    /// ≤ 1.6 % relative error; mean and max exact).
    pub latency: LatencySummary,
    /// Mean formed batch size.
    pub mean_batch_size: f64,
    /// Mean queue wait of completed requests, milliseconds.
    pub mean_queue_ms: f64,
    /// Per-replica completed-request counts (sums to `completed`).
    pub per_replica_completed: Vec<usize>,
    /// Per-phase breakdown, indexed like the trace's phase labels.
    pub phases: Vec<PhaseReport>,
    /// Autoscaler actuations, in time order (empty without an autoscaler).
    pub autoscale_events: Vec<AutoscaleEvent>,
    /// Most replicas simultaneously active during the run.
    pub peak_active_replicas: usize,
}

/// Log-linear latency histogram: exact counts below 64 ns, then 64
/// sub-buckets per power-of-two octave, giving nearest-rank quantiles with
/// ≤ 1/64 ≈ 1.6 % relative error in O(1) memory — the tail-estimation
/// workhorse for 10⁶⁺-request runs where a sorted latency Vec would
/// dominate memory. Mean and max are tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: f64,
    max_ns: f64,
}

/// Values below this are binned exactly (1 ns buckets).
const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per octave above the linear range.
const SUB_BUCKETS: usize = 64;
/// Octaves 2⁶..2⁶³ after the linear range.
const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 6) * SUB_BUCKETS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(value_ns: f64) -> usize {
        let v = if value_ns.is_finite() && value_ns > 0.0 {
            value_ns as u64
        } else {
            0
        };
        if v < LINEAR_BUCKETS as u64 {
            v as usize
        } else {
            let exponent = 63 - v.leading_zeros() as usize; // >= 6
            let mantissa = ((v >> (exponent - 6)) & 63) as usize;
            LINEAR_BUCKETS + (exponent - 6) * SUB_BUCKETS + mantissa
        }
    }

    /// Midpoint of a bucket's value range (the reported quantile value).
    fn bucket_mid_ns(index: usize) -> f64 {
        if index < LINEAR_BUCKETS {
            index as f64 + 0.5
        } else {
            let exponent = 6 + (index - LINEAR_BUCKETS) / SUB_BUCKETS;
            let mantissa = ((index - LINEAR_BUCKETS) % SUB_BUCKETS) as f64;
            let base = (exponent as f64).exp2();
            let width = base / SUB_BUCKETS as f64;
            base + mantissa * width + width / 2.0
        }
    }

    pub(crate) fn record(&mut self, value_ns: f64) {
        self.counts[Self::bucket_index(value_ns)] += 1;
        self.total += 1;
        self.sum_ns += value_ns.max(0.0);
        self.max_ns = self.max_ns.max(value_ns);
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile (bucket midpoint), ns; `None` on an empty
    /// histogram.
    pub(crate) fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::bucket_mid_ns(index));
            }
        }
        Some(self.max_ns)
    }

    /// Summary with the same p99.9 small-sample rule as the sorted-Vec
    /// path (`None` below 1000 samples); percentiles are bucket midpoints,
    /// mean/max exact.
    pub(crate) fn summary(&self) -> LatencySummary {
        if self.total == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_ms: self.quantile_ns(0.50).unwrap_or(0.0) / 1e6,
            p95_ms: self.quantile_ns(0.95).unwrap_or(0.0) / 1e6,
            p99_ms: self.quantile_ns(0.99).unwrap_or(0.0) / 1e6,
            p999_ms: (self.total >= 1000).then(|| self.quantile_ns(0.999).unwrap_or(0.0) / 1e6),
            mean_ms: self.sum_ns / self.total as f64 / 1e6,
            max_ms: self.max_ns / 1e6,
            tpot_ms: None,
        }
    }
}

/// Per-phase accumulators.
#[derive(Debug, Clone, Default)]
struct PhaseAcc {
    offered: usize,
    admitted: usize,
    completed: usize,
    rejected: usize,
    shed: usize,
    preempted: usize,
    slo_tracked: usize,
    slo_met: usize,
    hist: LatencyHistogram,
}

/// Run-wide accumulators.
#[derive(Debug, Clone, Default)]
struct Acc {
    offered: usize,
    admitted: usize,
    rejected: usize,
    shed: usize,
    preempted: usize,
    completed: usize,
    slo_tracked: usize,
    slo_met: usize,
    /// Deadline-carrying completions (met or not), for goodput.
    slo_completed: usize,
    queue_ns_sum: f64,
    last_completion_ns: f64,
    hist: LatencyHistogram,
    phases: Vec<PhaseAcc>,
}

impl Acc {
    fn phase(&mut self, request: &InferenceRequest) -> &mut PhaseAcc {
        let index = (request.phase as usize).min(self.phases.len() - 1);
        &mut self.phases[index]
    }

    fn on_offered(&mut self, request: &InferenceRequest) {
        self.offered += 1;
        if request.has_deadline() {
            self.slo_tracked += 1;
        }
        let phase = self.phase(request);
        phase.offered += 1;
        if request.has_deadline() {
            phase.slo_tracked += 1;
        }
    }

    fn on_rejected(&mut self, request: &InferenceRequest) {
        self.rejected += 1;
        self.phase(request).rejected += 1;
    }

    fn on_admitted(&mut self, request: &InferenceRequest) {
        self.admitted += 1;
        self.phase(request).admitted += 1;
    }

    fn on_shed(&mut self, request: &InferenceRequest) {
        self.shed += 1;
        self.phase(request).shed += 1;
    }

    fn on_preempted(&mut self, request: &InferenceRequest) {
        self.preempted += 1;
        self.phase(request).preempted += 1;
    }

    fn on_completed(&mut self, request: &InferenceRequest, launch_ns: f64, completion_ns: f64) {
        let latency = completion_ns - request.arrival_ns;
        self.completed += 1;
        self.queue_ns_sum += launch_ns - request.arrival_ns;
        self.last_completion_ns = self.last_completion_ns.max(completion_ns);
        self.hist.record(latency);
        let met = request.has_deadline() && completion_ns <= request.deadline_ns;
        if request.has_deadline() {
            self.slo_completed += 1;
            if met {
                self.slo_met += 1;
            }
        }
        let phase = self.phase(request);
        phase.completed += 1;
        phase.hist.record(latency);
        if met {
            phase.slo_met += 1;
        }
    }
}

/// One replica of the fleet: a scheduler queue plus device timing, its own
/// cost memo (replicas may be heterogeneous), and the precomputed
/// single-request makespans shedding judges against.
struct FleetChip {
    scheduler: BatchScheduler,
    cost: CostMemo,
    device_free: f64,
    busy_ns: f64,
    batches: usize,
    completed: usize,
    inflight: Vec<f64>,
    active: bool,
    shed_enabled: bool,
    /// seq_len → single-request makespan, ns (the optimistic service
    /// estimate for shedding). Precomputed for every shape in the mix; an
    /// unknown shape estimates 0 (never shed early — conservative).
    single_ns: BTreeMap<usize, f64>,
}

impl FleetChip {
    /// Requests dispatched to this replica that have not completed by `now`.
    fn outstanding(&mut self, now: f64) -> usize {
        self.inflight.retain(|&completion| completion > now);
        self.scheduler.queue_len() + self.inflight.len()
    }

    /// Commits every batch whose launch time is at or before `now`,
    /// shedding doomed requests at each launch decision when enabled. Same
    /// lazy-event reasoning as the closed-loop engine: launch times depend
    /// only on already-arrived requests, so commitments at `t <= now` are
    /// final.
    fn advance(&mut self, now: f64, acc: &mut Acc) -> Result<()> {
        while self.scheduler.queue_len() > 0 {
            // The overload engine submits arrivals in non-decreasing time
            // order and removals preserve queue order, so the O(1) front
            // accessor is the oldest queued arrival.
            let Some(oldest) = self.scheduler.front_arrival_ns() else {
                break;
            };
            let ready = self.device_free.max(oldest);
            let max_wait = self.scheduler.config().max_wait_ns;
            let launch = if max_wait == 0.0 {
                ready
            } else {
                let deadline = ready.max(oldest + max_wait);
                match self.scheduler.fill_time_ns() {
                    Some(fill) => deadline.min(ready.max(fill)),
                    None => deadline,
                }
            };
            if launch > now {
                break;
            }
            if self.shed_enabled {
                // Judged at the launch decision: a queued request whose
                // deadline precedes even an immediate solo completion is
                // dead weight — drop it before it poisons a batch. The
                // shed may change the window anchor, so re-decide.
                let single_ns = &self.single_ns;
                let shed = self
                    .scheduler
                    .shed_doomed(launch, |seq| single_ns.get(&seq).copied().unwrap_or(0.0));
                if !shed.is_empty() {
                    for request in &shed {
                        acc.on_shed(request);
                    }
                    continue;
                }
            }
            let Some(batch) = self.scheduler.next_batch() else {
                break;
            };
            let summary = self.cost.batched(batch.max_seq_len, batch.len())?;
            for (k, request) in batch.requests.iter().enumerate() {
                let completion = launch + summary.completion_ns(k);
                acc.on_completed(request, launch, completion);
                self.inflight.push(completion);
            }
            self.device_free = launch + summary.makespan_ns;
            self.busy_ns += summary.makespan_ns;
            self.batches += 1;
            self.completed += batch.len();
        }
        Ok(())
    }
}

/// The open-loop overload simulator over a (possibly heterogeneous) fleet.
pub struct OverloadSim {
    replicas: Vec<Arc<dyn Backend>>,
    config: OverloadConfig,
}

impl OverloadSim {
    /// Builds a simulator over an explicit fleet — one `Arc<dyn Backend>`
    /// per replica, freely mixing designs (clone one `Arc` N times for a
    /// homogeneous fleet).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an empty fleet, a
    /// degenerate admission or autoscaler policy, or a request shape in
    /// the trace's mix that does not fit some replica's tile capacity;
    /// propagates scheduler-configuration errors.
    pub fn with_replicas(replicas: Vec<Arc<dyn Backend>>, config: OverloadConfig) -> Result<Self> {
        if replicas.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "the fleet needs at least one replica".to_string(),
            ));
        }
        match config.admission {
            AdmissionPolicy::Unbounded => {}
            AdmissionPolicy::TokenBucket { rate_qps, burst } => {
                if !(rate_qps.is_finite() && rate_qps > 0.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "token-bucket rate {rate_qps} must be positive and finite"
                    )));
                }
                if !(burst.is_finite() && burst >= 1.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "token-bucket burst {burst} must be at least 1"
                    )));
                }
            }
            AdmissionPolicy::QueueDepth { max_outstanding } => {
                if max_outstanding == 0 {
                    return Err(RuntimeError::InvalidConfig(
                        "queue-depth gate needs max_outstanding >= 1".to_string(),
                    ));
                }
            }
        }
        if let Some(scaler) = &config.autoscaler {
            let max = scaler.max_replicas.min(replicas.len());
            if scaler.min_replicas == 0 || scaler.min_replicas > max {
                return Err(RuntimeError::InvalidConfig(format!(
                    "autoscaler floor {} must be in 1..={} (fleet-clamped ceiling)",
                    scaler.min_replicas, max
                )));
            }
            if !(scaler.check_interval_s.is_finite() && scaler.check_interval_s > 0.0) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "autoscaler check interval {} must be positive",
                    scaler.check_interval_s
                )));
            }
            if scaler.actuation_lag_s.is_nan() || scaler.actuation_lag_s < 0.0 {
                return Err(RuntimeError::InvalidConfig(format!(
                    "autoscaler actuation lag {} must be non-negative",
                    scaler.actuation_lag_s
                )));
            }
            if !(scaler.scale_up_outstanding > scaler.scale_down_outstanding
                && scaler.scale_down_outstanding >= 0.0
                && scaler.scale_up_outstanding.is_finite())
            {
                return Err(RuntimeError::InvalidConfig(format!(
                    "autoscaler thresholds need 0 <= down ({}) < up ({})",
                    scaler.scale_down_outstanding, scaler.scale_up_outstanding
                )));
            }
            if let Some(alpha) = scaler.ewma_alpha {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "autoscaler EWMA gain {alpha} must be in (0, 1]"
                    )));
                }
            }
        }
        // Probe every replica with every shape in the mix so capacity
        // violations surface at construction, as in the closed-loop sims.
        let trace_config = config.trace.config();
        let shapes: Vec<usize> = if trace_config.classes.is_empty() {
            vec![trace_config.seq_len]
        } else {
            trace_config.classes.iter().map(|c| c.seq_len).collect()
        };
        for backend in &replicas {
            let mut probe = BatchScheduler::for_backend(Arc::clone(backend), config.scheduler)?;
            for &seq_len in &shapes {
                probe.submit(InferenceRequest::new(0, 0.0, seq_len))?;
            }
        }
        Ok(OverloadSim { replicas, config })
    }

    /// Single-replica sugar over [`OverloadSim::with_replicas`].
    ///
    /// # Errors
    ///
    /// As for [`OverloadSim::with_replicas`].
    pub fn with_backend(backend: impl Backend + 'static, config: OverloadConfig) -> Result<Self> {
        OverloadSim::with_replicas(vec![Arc::new(backend)], config)
    }

    /// The run configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Fleet size.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Streams the trace through the fleet. One pass, O(1) memory in the
    /// request count (histograms, memo tables, and bounded queues only).
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors.
    pub fn run(&self) -> Result<OverloadReport> {
        let trace = &self.config.trace;
        let labels = trace.phase_labels();
        let shapes: Vec<usize> = {
            let tc = trace.config();
            if tc.classes.is_empty() {
                vec![tc.seq_len]
            } else {
                tc.classes.iter().map(|c| c.seq_len).collect()
            }
        };
        let scaler = self.config.autoscaler;
        let fleet_max = scaler.map_or(self.replicas.len(), |s| {
            s.max_replicas.min(self.replicas.len())
        });
        let initially_active = scaler.map_or(self.replicas.len(), |s| s.min_replicas);
        let mut chips: Vec<FleetChip> = Vec::with_capacity(self.replicas.len());
        for (index, backend) in self.replicas.iter().enumerate() {
            let mut cost = CostMemo::new(Arc::clone(backend));
            let mut single_ns = BTreeMap::new();
            for &seq_len in &shapes {
                single_ns.insert(seq_len, cost.batched(seq_len, 1)?.makespan_ns);
            }
            chips.push(FleetChip {
                scheduler: BatchScheduler::for_backend(Arc::clone(backend), self.config.scheduler)?,
                cost,
                device_free: 0.0,
                busy_ns: 0.0,
                batches: 0,
                completed: 0,
                inflight: Vec::new(),
                active: index < initially_active,
                shed_enabled: self.config.shed,
                single_ns,
            });
        }
        let mut acc = Acc {
            phases: vec![PhaseAcc::default(); labels.len()],
            ..Acc::default()
        };
        let mut events: Vec<AutoscaleEvent> = Vec::new();
        let mut active_count = initially_active;
        let mut peak_active = active_count;
        let mut next_check_ns = scaler.map_or(f64::INFINITY, |s| s.check_interval_s * 1e9);
        // (actuation time ns, scale up?) — at most one in flight.
        let mut pending: Option<(f64, bool)> = None;
        // Holt level/trend state of the EWMA load predictor.
        let mut ewma: Option<(f64, f64)> = None;
        let mut tokens = match self.config.admission {
            AdmissionPolicy::TokenBucket { burst, .. } => burst,
            _ => 0.0,
        };
        let mut last_refill_ns = 0.0f64;
        let mut round_robin = 0usize;
        let mut first_arrival_ns = f64::NAN;
        let mut last_arrival_ns = 0.0f64;

        for request in trace.stream() {
            let now = request.arrival_ns;
            if first_arrival_ns.is_nan() {
                first_arrival_ns = now;
            }
            last_arrival_ns = now;
            // Autoscaler events due strictly before this arrival, in time
            // order (an actuation may precede the next check or vice
            // versa).
            if let Some(s) = scaler {
                loop {
                    let next_event = pending.map_or(next_check_ns, |(at, _)| at.min(next_check_ns));
                    if next_event > now {
                        break;
                    }
                    // An actuation due at or before the next check fires
                    // first; `take_if` tests and consumes it in one step.
                    if let Some((at, up)) = pending.take_if(|&mut (at, _)| at <= next_check_ns) {
                        if up && active_count < fleet_max {
                            // Activate the lowest-index inactive replica;
                            // it comes up cold at the actuation time.
                            if let Some(chip) = chips.iter_mut().find(|c| !c.active) {
                                chip.active = true;
                                chip.device_free = chip.device_free.max(at);
                                active_count += 1;
                            }
                        } else if !up && active_count > s.min_replicas {
                            // Retire the highest-index active replica; it
                            // drains but receives no new dispatches.
                            if let Some(chip) = chips.iter_mut().rev().find(|c| c.active) {
                                chip.active = false;
                                active_count -= 1;
                            }
                        }
                        peak_active = peak_active.max(active_count);
                        events.push(AutoscaleEvent {
                            at_s: at * 1e-9,
                            active_replicas: active_count,
                        });
                    } else {
                        // Observation: advance the fleet to the check time
                        // so outstanding work is measured, not stale.
                        let check = next_check_ns;
                        for chip in &mut chips {
                            chip.advance(check, &mut acc)?;
                        }
                        if pending.is_none() {
                            let outstanding: usize = chips
                                .iter_mut()
                                .filter(|c| c.active)
                                .map(|c| c.outstanding(check))
                                .sum();
                            let measured = outstanding as f64 / active_count as f64;
                            let per_replica = match s.ewma_alpha {
                                None => measured,
                                Some(alpha) => {
                                    let (level, trend) = match ewma {
                                        None => (measured, 0.0),
                                        Some((prev_level, prev_trend)) => {
                                            let level = alpha * measured
                                                + (1.0 - alpha) * (prev_level + prev_trend);
                                            let trend = alpha * (level - prev_level)
                                                + (1.0 - alpha) * prev_trend;
                                            (level, trend)
                                        }
                                    };
                                    ewma = Some((level, trend));
                                    // Project to when an actuation ordered
                                    // now would take effect.
                                    let horizon_checks = s.actuation_lag_s / s.check_interval_s;
                                    let projected = (level + trend * horizon_checks).max(0.0);
                                    // Scale up on the forecast OR the
                                    // evidence, down only when both agree:
                                    // comparing max(measured, projected)
                                    // against the thresholds encodes
                                    // exactly that, and keeps a draining —
                                    // but still full — queue from retiring
                                    // the replicas the next burst needs.
                                    measured.max(projected)
                                }
                            };
                            if per_replica > s.scale_up_outstanding && active_count < fleet_max {
                                pending = Some((check + s.actuation_lag_s * 1e9, true));
                            } else if per_replica < s.scale_down_outstanding
                                && active_count > s.min_replicas
                            {
                                pending = Some((check + s.actuation_lag_s * 1e9, false));
                            }
                        }
                        next_check_ns += s.check_interval_s * 1e9;
                    }
                }
            }
            // Retired replicas keep draining their queues.
            for chip in &mut chips {
                chip.advance(now, &mut acc)?;
            }
            acc.on_offered(&request);
            // Admission gates that do not consult the target queue.
            let pre_admitted = match self.config.admission {
                AdmissionPolicy::TokenBucket { rate_qps, burst } => {
                    tokens = (tokens + (now - last_refill_ns) * 1e-9 * rate_qps).min(burst);
                    last_refill_ns = now;
                    if tokens >= 1.0 {
                        tokens -= 1.0;
                        true
                    } else {
                        false
                    }
                }
                _ => true,
            };
            if !pre_admitted {
                acc.on_rejected(&request);
                continue;
            }
            // Route among active replicas only.
            let target = match self.config.dispatch {
                DispatchPolicy::RoundRobin => {
                    let slot = round_robin % active_count;
                    round_robin += 1;
                    chips
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.active)
                        .nth(slot)
                        .map(|(index, _)| index)
                        .ok_or_else(|| {
                            RuntimeError::Internal(
                                "active replica count diverged from the active flags".to_string(),
                            )
                        })?
                }
                DispatchPolicy::JoinShortestQueue => {
                    let mut best = usize::MAX;
                    let mut best_load = usize::MAX;
                    for (index, chip) in chips.iter_mut().enumerate() {
                        if !chip.active {
                            continue;
                        }
                        let load = chip.outstanding(now);
                        if load < best_load {
                            best = index;
                            best_load = load;
                        }
                    }
                    best
                }
            };
            let chip = &mut chips[target];
            // The queue-depth gate (with optional preemption).
            if let AdmissionPolicy::QueueDepth { max_outstanding } = self.config.admission {
                if chip.outstanding(now) >= max_outstanding {
                    let preempted = if self.config.preempt {
                        chip.scheduler.preempt_for(&request)
                    } else {
                        None
                    };
                    match preempted {
                        Some(victim) => acc.on_preempted(&victim),
                        None => {
                            acc.on_rejected(&request);
                            continue;
                        }
                    }
                }
            }
            acc.on_admitted(&request);
            chip.scheduler.submit(request)?;
        }
        // Drain: every queued request either completes or (under shedding)
        // is dropped at its final launch decision.
        for chip in &mut chips {
            chip.advance(f64::INFINITY, &mut acc)?;
        }
        debug_assert_eq!(acc.offered, acc.admitted + acc.rejected);
        debug_assert_eq!(acc.admitted, acc.completed + acc.shed + acc.preempted);

        let span_start = if first_arrival_ns.is_nan() {
            0.0
        } else {
            first_arrival_ns
        };
        let span_end = acc.last_completion_ns.max(last_arrival_ns);
        let sim_seconds = (span_end - span_start).max(0.0) * 1e-9;
        let batches: usize = chips.iter().map(|c| c.batches).sum();
        let useful = acc.completed - (acc.slo_completed - acc.slo_met);
        let phases = labels
            .iter()
            .zip(&acc.phases)
            .map(|(label, p)| PhaseReport {
                label: label.clone(),
                offered: p.offered,
                admitted: p.admitted,
                completed: p.completed,
                rejected: p.rejected,
                shed: p.shed,
                preempted: p.preempted,
                slo_attainment: if p.slo_tracked > 0 {
                    p.slo_met as f64 / p.slo_tracked as f64
                } else {
                    1.0
                },
                p99_ms: p.hist.quantile_ns(0.99).unwrap_or(0.0) / 1e6,
                p999_ms: (p.hist.total() >= 1000)
                    .then(|| p.hist.quantile_ns(0.999).unwrap_or(0.0) / 1e6),
            })
            .collect();
        Ok(OverloadReport {
            replicas: self.replicas.len(),
            offered: acc.offered,
            admitted: acc.admitted,
            rejected: acc.rejected,
            shed: acc.shed,
            preempted: acc.preempted,
            completed: acc.completed,
            batches,
            sim_seconds,
            offered_qps: trace.mean_qps(),
            achieved_qps: if sim_seconds > 0.0 {
                acc.completed as f64 / sim_seconds
            } else {
                0.0
            },
            goodput_qps: if sim_seconds > 0.0 {
                useful as f64 / sim_seconds
            } else {
                0.0
            },
            slo_attainment: if acc.slo_tracked > 0 {
                acc.slo_met as f64 / acc.slo_tracked as f64
            } else {
                1.0
            },
            latency: acc.hist.summary(),
            mean_batch_size: acc.completed as f64 / batches.max(1) as f64,
            mean_queue_ms: acc.queue_ns_sum / acc.completed.max(1) as f64 / 1e6,
            per_replica_completed: chips.iter().map(|c| c.completed).collect(),
            phases,
            autoscale_events: events,
            peak_active_replicas: peak_active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedulingPolicy;
    use crate::serving::RequestClass;
    use crate::traffic::{ArrivalProcess, MmppState, TrafficConfig};
    use hyflex_baselines::{AcceleratorBackend, Asadi, AsadiPrecision, NonPim};
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    fn hyflex_backend() -> HyFlexPim {
        HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap()
    }

    fn overload_trace(qps: f64, n: usize, slo_ns: f64) -> RequestTrace {
        RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", qps * 2.0, 0.01),
                    MmppState::new("trough", qps * 0.5, 0.015),
                ],
            },
            num_requests: n,
            classes: vec![
                RequestClass::new(64, 3.0).with_slo_ns(slo_ns),
                RequestClass::new(128, 1.0).with_priority(1),
            ],
            seed: 11,
            ..TrafficConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn histogram_quantiles_track_exact_values_within_bucket_error() {
        let mut hist = LatencyHistogram::default();
        let mut exact: Vec<f64> = (0..20_000)
            .map(|i| 1e3 + (i as f64 * 997.0) % 9.7e7)
            .collect();
        for &v in &exact {
            hist.record(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let approx = hist.quantile_ns(q).unwrap();
            assert!(
                (approx - truth).abs() / truth < 0.016,
                "q={q}: histogram {approx} vs exact {truth}"
            );
        }
        let summary = hist.summary();
        assert!(summary.p999_ms.is_some());
        let exact_mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((summary.mean_ms * 1e6 - exact_mean).abs() < 1e-3);
        assert_eq!(summary.max_ms * 1e6, *exact.last().unwrap());
    }

    #[test]
    fn histogram_p999_follows_the_small_sample_rule() {
        let mut hist = LatencyHistogram::default();
        for i in 0..999 {
            hist.record(1e6 + i as f64);
        }
        assert_eq!(hist.summary().p999_ms, None);
        hist.record(2e6);
        assert!(hist.summary().p999_ms.is_some());
        assert_eq!(
            LatencyHistogram::default().summary(),
            LatencySummary::default()
        );
    }

    #[test]
    fn construction_rejects_degenerate_policies() {
        let trace = overload_trace(1000.0, 100, 1e7);
        let base = OverloadConfig::new(trace);
        let bad =
            |config: OverloadConfig| OverloadSim::with_backend(hyflex_backend(), config).is_err();
        assert!(OverloadSim::with_replicas(vec![], base.clone()).is_err());
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 0.0,
                burst: 10.0,
            },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 100.0,
                burst: 0.5,
            },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::QueueDepth { max_outstanding: 0 },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 0,
                ..AutoscalerConfig::default()
            }),
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 2, // fleet of 1: floor above the ceiling
                ..AutoscalerConfig::default()
            }),
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                scale_up_outstanding: 4.0,
                scale_down_outstanding: 8.0,
                ..AutoscalerConfig::default()
            }),
            ..base
        }));
    }

    #[test]
    fn conservation_holds_under_shedding_preemption_and_rejection() {
        // A hard overload with a bounded queue, EDF + shed + preempt: every
        // offered request must be exactly one of completed / rejected /
        // shed / preempted after the final drain.
        let trace = overload_trace(60_000.0, 6000, 3e6);
        let sim = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                scheduler: SchedulerConfig {
                    policy: SchedulingPolicy::Edf,
                    ..SchedulerConfig::default()
                },
                admission: AdmissionPolicy::QueueDepth {
                    max_outstanding: 64,
                },
                shed: true,
                preempt: true,
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.offered, 6000);
        assert_eq!(report.offered, report.admitted + report.rejected);
        assert_eq!(
            report.admitted,
            report.completed + report.shed + report.preempted
        );
        assert!(report.shed > 0, "overload this hard must shed");
        assert!(report.rejected > 0, "the bounded queue must reject");
        assert!(report.preempted > 0, "EDF newcomers must preempt");
        // Phase counts partition the run-wide counts.
        let sum = |f: fn(&PhaseReport) -> usize| report.phases.iter().map(f).sum::<usize>();
        assert_eq!(sum(|p| p.offered), report.offered);
        assert_eq!(sum(|p| p.completed), report.completed);
        assert_eq!(sum(|p| p.shed), report.shed);
        assert_eq!(sum(|p| p.rejected), report.rejected);
        assert_eq!(sum(|p| p.preempted), report.preempted);
        assert_eq!(
            report.per_replica_completed.iter().sum::<usize>(),
            report.completed
        );
    }

    #[test]
    fn overload_runs_are_deterministic() {
        let make = || {
            OverloadSim::with_backend(
                hyflex_backend(),
                OverloadConfig {
                    admission: AdmissionPolicy::QueueDepth {
                        max_outstanding: 128,
                    },
                    shed: true,
                    ..OverloadConfig::new(overload_trace(30_000.0, 3000, 5e6))
                },
            )
            .unwrap()
        };
        assert_eq!(make().run().unwrap(), make().run().unwrap());
    }

    #[test]
    fn token_bucket_caps_the_sustained_admitted_rate() {
        let trace = overload_trace(40_000.0, 4000, f64::INFINITY);
        let sim = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                admission: AdmissionPolicy::TokenBucket {
                    rate_qps: 10_000.0,
                    burst: 50.0,
                },
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert!(report.rejected > 0);
        // Admissions over the arrival span stay near the bucket rate (the
        // burst allowance loosens the bound slightly).
        let admitted_qps = report.admitted as f64 / report.sim_seconds;
        assert!(
            admitted_qps < 13_000.0,
            "bucket leaked: admitted at {admitted_qps:.0} qps"
        );
    }

    #[test]
    fn shedding_improves_goodput_under_hard_overload() {
        // 3x a chip's sustainable rate with tight SLOs and a deep queue:
        // without shedding, doomed requests poison batches and goodput
        // collapses; with shedding the chip spends its time on requests
        // that can still make their deadline.
        let make = |shed| {
            OverloadSim::with_backend(
                hyflex_backend(),
                OverloadConfig {
                    scheduler: SchedulerConfig {
                        policy: SchedulingPolicy::Edf,
                        ..SchedulerConfig::default()
                    },
                    admission: AdmissionPolicy::QueueDepth {
                        max_outstanding: 512,
                    },
                    shed,
                    ..OverloadConfig::new(overload_trace(50_000.0, 8000, 2e6))
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let without = make(false);
        let with = make(true);
        assert!(with.shed > 0);
        assert_eq!(without.shed, 0);
        assert!(
            with.goodput_qps > without.goodput_qps,
            "shed {} <= no-shed {}",
            with.goodput_qps,
            without.goodput_qps
        );
        assert!(with.slo_attainment >= without.slo_attainment);
    }

    #[test]
    fn autoscaler_grows_the_fleet_under_load_and_records_events() {
        // Four replicas, floor 1: sustained overload must scale the fleet
        // up (after the actuation lag) and the report must say so.
        let backend: Arc<dyn Backend> = Arc::new(hyflex_backend());
        let trace = overload_trace(30_000.0, 5000, f64::INFINITY);
        let sim = OverloadSim::with_replicas(
            vec![
                Arc::clone(&backend),
                Arc::clone(&backend),
                Arc::clone(&backend),
                backend,
            ],
            OverloadConfig {
                autoscaler: Some(AutoscalerConfig {
                    min_replicas: 1,
                    max_replicas: 4,
                    check_interval_s: 0.005,
                    actuation_lag_s: 0.01,
                    scale_up_outstanding: 32.0,
                    scale_down_outstanding: 2.0,
                    ewma_alpha: None,
                }),
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert!(report.peak_active_replicas > 1, "never scaled up");
        assert!(!report.autoscale_events.is_empty());
        // Events are time-ordered and respect the fleet bounds.
        for pair in report.autoscale_events.windows(2) {
            assert!(pair[0].at_s <= pair[1].at_s);
        }
        for event in &report.autoscale_events {
            assert!((1..=4).contains(&event.active_replicas));
        }
        // The first actuation cannot precede check + lag.
        assert!(report.autoscale_events[0].at_s >= 0.005 + 0.01 - 1e-9);
        assert_eq!(report.completed, report.admitted);
        // More replicas than the static floor would manage alone.
        let static_one = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig::new(overload_trace(30_000.0, 5000, f64::INFINITY)),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.achieved_qps > static_one.achieved_qps);
    }

    #[test]
    fn ewma_predictor_beats_the_reactive_autoscaler_on_the_burst() {
        // Same fleet, same MMPP burst/trough trace with deadlines: the Holt
        // predictor orders the scale-up while the burst is still ramping
        // (it projects the smoothed per-replica load one actuation lag
        // ahead), so the extra replicas arrive sooner than under the
        // reactive controller, which waits for the raw sample to cross the
        // threshold before even starting to pay the lag.
        // Anchor the workload to the backend's own sustainable rate, like
        // fig21: troughs fit one replica, bursts need most of the fleet.
        let probe = hyflex_backend();
        let single = probe.evaluate_batched(64, 16).unwrap();
        let sustainable_qps = 16.0 * 1e9 / single.makespan_ns;
        let slo_ns = 25.0 * probe.evaluate_batched(64, 1).unwrap().makespan_ns;
        let trace = || {
            RequestTrace::new(TrafficConfig {
                process: ArrivalProcess::Mmpp {
                    states: vec![
                        MmppState::new("burst", sustainable_qps * 3.0, 0.4),
                        MmppState::new("trough", sustainable_qps * 0.3, 0.6),
                    ],
                },
                num_requests: 50_000,
                classes: vec![RequestClass::new(64, 1.0).with_slo_ns(slo_ns)],
                seed: 11,
                ..TrafficConfig::default()
            })
            .unwrap()
        };
        let run = |alpha: Option<f64>| {
            let backend: Arc<dyn Backend> = Arc::new(hyflex_backend());
            OverloadSim::with_replicas(
                vec![
                    Arc::clone(&backend),
                    Arc::clone(&backend),
                    Arc::clone(&backend),
                    backend,
                ],
                OverloadConfig {
                    autoscaler: Some(AutoscalerConfig {
                        min_replicas: 1,
                        max_replicas: 4,
                        check_interval_s: 0.01,
                        actuation_lag_s: 0.1,
                        scale_up_outstanding: 400.0,
                        scale_down_outstanding: 4.0,
                        ewma_alpha: alpha,
                    }),
                    ..OverloadConfig::new(trace())
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let reactive = run(None);
        let predictive = run(Some(0.5));
        assert!(
            predictive.slo_attainment > reactive.slo_attainment,
            "predictor {} should beat reactive {}",
            predictive.slo_attainment,
            reactive.slo_attainment
        );
        assert!(
            predictive.goodput_qps >= reactive.goodput_qps,
            "predictor goodput {} regressed vs reactive {}",
            predictive.goodput_qps,
            reactive.goodput_qps
        );
        // Same seed, same gain: the predictor is as deterministic as the
        // reactive path.
        assert_eq!(predictive, run(Some(0.5)));
        // Out-of-range gains are rejected at construction.
        let bad = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                autoscaler: Some(AutoscalerConfig {
                    ewma_alpha: Some(1.5),
                    ..AutoscalerConfig::default()
                }),
                ..OverloadConfig::new(overload_trace(1000.0, 10, f64::INFINITY))
            },
        );
        let err = match bad {
            Ok(_) => panic!("EWMA gain 1.5 should be rejected"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("EWMA"), "{err}");
    }

    #[test]
    fn heterogeneous_fleets_mix_designs_in_one_run() {
        let fleet: Vec<Arc<dyn Backend>> = vec![
            Arc::new(hyflex_backend()),
            Arc::new(AcceleratorBackend::new(
                Asadi::new(AsadiPrecision::Int8),
                ModelConfig::bert_base(),
            )),
            Arc::new(AcceleratorBackend::new(
                NonPim::new(),
                ModelConfig::bert_base(),
            )),
        ];
        let sim = OverloadSim::with_replicas(
            fleet,
            OverloadConfig {
                dispatch: DispatchPolicy::JoinShortestQueue,
                ..OverloadConfig::new(overload_trace(5000.0, 2000, f64::INFINITY))
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.completed, 2000);
        assert_eq!(report.replicas, 3);
        // JSQ steers work toward the faster designs but every replica
        // participates under this much load.
        assert!(report.per_replica_completed.iter().all(|&c| c > 0));
        // Deterministic repeat.
        let again = OverloadSim::with_replicas(
            vec![
                Arc::new(hyflex_backend()),
                Arc::new(AcceleratorBackend::new(
                    Asadi::new(AsadiPrecision::Int8),
                    ModelConfig::bert_base(),
                )),
                Arc::new(AcceleratorBackend::new(
                    NonPim::new(),
                    ModelConfig::bert_base(),
                )),
            ],
            OverloadConfig {
                dispatch: DispatchPolicy::JoinShortestQueue,
                ..OverloadConfig::new(overload_trace(5000.0, 2000, f64::INFINITY))
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn unbounded_no_shed_matches_closed_loop_accounting() {
        // With every survival feature off, the open-loop engine is the
        // closed loop again: everything admitted, everything completed.
        let trace = overload_trace(2000.0, 1500, 1e9);
        let report = OverloadSim::with_backend(hyflex_backend(), OverloadConfig::new(trace))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.offered, 1500);
        assert_eq!(report.admitted, 1500);
        assert_eq!(report.completed, 1500);
        assert_eq!(report.rejected + report.shed + report.preempted, 0);
        assert_eq!(report.goodput_qps, report.achieved_qps);
        assert!(report.latency.p999_ms.is_some());
    }
}
