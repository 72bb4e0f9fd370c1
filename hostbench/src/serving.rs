//! `overload` (fig21 regime) and `decode` (fig22(a) regime): host time of
//! the runtime's event engines over analytic backends.

use crate::counted::Fleet;
use crate::stats::{digest, job_seed};
use crate::trace::Tracer;
use crate::workload::{JobOutcome, Workload};
use hyflex_baselines::{BackendParams, BackendRegistry};
use hyflex_parallel::JobPool;
use hyflex_pim::backend::Backend;
use hyflex_runtime::{
    AdmissionPolicy, ArrivalProcess, DecodeConfig, DecodeReport, DecodeSim, DispatchPolicy,
    KvPlacementPolicy, MmppState, OverloadConfig, OverloadReport, OverloadSim, RequestClass,
    RequestTrace, SchedulerConfig, SchedulingPolicy, TrafficConfig,
};
use hyflex_transformer::ModelConfig;
use std::sync::Arc;

// fig21's mix, burst/trough shape, SLO and admission gate.
const INTERACTIVE_SEQ: usize = 64;
const BATCH_SEQ: usize = 256;
const INTERACTIVE_WEIGHT: f64 = 3.0;
const BATCH_WEIGHT: f64 = 1.0;
const BATCH_CAP: usize = 16;
const BURST_RATE: f64 = 2.5;
const BURST_DWELL_S: f64 = 0.2;
const TROUGH_RATE: f64 = 5.0 / 6.0;
/// Dwell-weighted mean rate: (0.2 · 2.5 + 0.3 · 5/6) / 0.5 = 1.5x capacity.
const TROUGH_DWELL_S: f64 = 0.3;
const SLO_FACTOR: f64 = 25.0;
const QUEUE_CAP: usize = 1024;
const FLEET: [&str; 2] = ["hyflexpim", "asadi-int8"];
/// Requests per `overload` job.
pub const OVERLOAD_REQUESTS: usize = 100_000;

// fig22(a)'s KV-capacity pressure point.
const PROMPT_LEN: usize = 128;
const OUTPUT_TOKENS: usize = 32;
const KV_PUS: usize = 4;
const HOT_WINDOW: usize = 16;
const PRESSURE_QPS: f64 = 20_000.0;
/// Requests per `decode` job.
pub const DECODE_REQUESTS: usize = 20_000;

fn build(name: &str) -> Result<Arc<dyn Backend>, String> {
    BackendRegistry::paper()
        .build(name, &BackendParams::paper(ModelConfig::bert_large()))
        .map(Arc::from)
        .map_err(|e| e.to_string())
}

/// Sustainable mixed-shape rate of one backend at the batch cap (fig21's
/// anchor).
fn sustainable_qps(backend: &dyn Backend) -> Result<f64, String> {
    let mut interval_ns = 0.0;
    for (seq, weight) in [
        (INTERACTIVE_SEQ, INTERACTIVE_WEIGHT),
        (BATCH_SEQ, BATCH_WEIGHT),
    ] {
        let summary = backend
            .evaluate_batched(seq, BATCH_CAP)
            .map_err(|e| e.to_string())?;
        interval_ns += weight * summary.makespan_ns / BATCH_CAP as f64;
    }
    Ok(1e9 * (INTERACTIVE_WEIGHT + BATCH_WEIGHT) / interval_ns)
}

pub struct Overload {
    seed: u64,
    fleet: Fleet,
    /// Fleet capacity: the sum of every chip's sustainable rate.
    capacity_qps: f64,
    slo_ns: f64,
}

impl Overload {
    fn trace(&self, seed: u64) -> Result<RequestTrace, String> {
        RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", self.capacity_qps * BURST_RATE, BURST_DWELL_S),
                    MmppState::new("trough", self.capacity_qps * TROUGH_RATE, TROUGH_DWELL_S),
                ],
            },
            num_requests: OVERLOAD_REQUESTS,
            classes: vec![
                RequestClass::new(INTERACTIVE_SEQ, INTERACTIVE_WEIGHT)
                    .with_slo_ns(self.slo_ns)
                    .with_priority(0),
                RequestClass::new(BATCH_SEQ, BATCH_WEIGHT).with_priority(1),
            ],
            seed,
            ..TrafficConfig::default()
        })
        .map_err(|e| e.to_string())
    }

    fn run(fleet: &[Arc<dyn Backend>], trace: RequestTrace) -> Result<OverloadReport, String> {
        let config = OverloadConfig {
            scheduler: SchedulerConfig {
                max_batch_size: BATCH_CAP,
                policy: SchedulingPolicy::Edf,
                ..SchedulerConfig::default()
            },
            dispatch: DispatchPolicy::JoinShortestQueue,
            admission: AdmissionPolicy::QueueDepth {
                max_outstanding: QUEUE_CAP,
            },
            shed: true,
            ..OverloadConfig::new(trace)
        };
        OverloadSim::with_replicas(fleet.to_vec(), config)
            .and_then(|sim| sim.run())
            .map_err(|e| e.to_string())
    }
}

impl Workload for Overload {
    const NAME: &'static str = "overload";
    const SETUPS: usize = 15;
    const UNIT: &'static str = "requests";
    const PASSES: u64 = 6;

    fn setup(seed: u64, _pool: JobPool, tracer: &mut Tracer) -> Result<Self, String> {
        tracer.span("baselines.build", |_| {
            let fleet = FLEET
                .iter()
                .map(|name| build(name))
                .collect::<Result<Vec<_>, _>>()?;
            let mut capacity_qps = 0.0;
            let mut single_ns: f64 = 0.0;
            for backend in &fleet {
                capacity_qps += sustainable_qps(backend.as_ref())?;
                let single = backend
                    .evaluate_batched(INTERACTIVE_SEQ, 1)
                    .map_err(|e| e.to_string())?;
                single_ns = single_ns.max(single.makespan_ns);
            }
            Ok(Overload {
                seed,
                fleet: Fleet::new(fleet),
                capacity_qps,
                // The slowest chip's own single-request latency sets the SLO.
                slo_ns: SLO_FACTOR * single_ns,
            })
        })
    }

    fn job(&self, index: u64, tracer: &mut Tracer) -> Result<JobOutcome, String> {
        let trace = self.trace(job_seed(self.seed, index))?;
        let mut out = JobOutcome::default();
        if tracer.is_on() {
            // Generation alone, so the engine's self time can exclude it.
            let drained = tracer.span("runtime.trace_gen", |_| {
                std::hint::black_box(trace.stream().count())
            });
            out.check(drained == OVERLOAD_REQUESTS, || "trace length".to_string());
        }
        let report = self.fleet.run(tracer, &mut out.layer, |tracer, fleet| {
            tracer.span("runtime.overload_run", |_| Overload::run(fleet, trace))
        })?;
        let r = &report;
        out.check(
            r.offered == r.completed + r.rejected + r.shed + r.preempted,
            || {
                format!(
                    "ledger: offered {} != completed {} + rejected {} + shed {} + preempted {}",
                    r.offered, r.completed, r.rejected, r.shed, r.preempted
                )
            },
        );
        out.check(r.offered == OVERLOAD_REQUESTS && r.completed > 0, || {
            format!("offered {} completed {}", r.offered, r.completed)
        });
        out.digest = digest(&format!("{report:?}"));
        out.units = r.offered as u64;
        out.layer.extend([
            ("runtime.offered", r.offered as f64),
            ("runtime.completed", r.completed as f64),
            ("runtime.rejected", r.rejected as f64),
            ("runtime.shed", r.shed as f64),
            ("runtime.preempted", r.preempted as f64),
            (
                "runtime.completed_ratio",
                r.completed as f64 / r.offered as f64,
            ),
        ]);
        Ok(out)
    }
}

pub struct Decode {
    seed: u64,
    fleet: Fleet,
}

impl Decode {
    fn run(backend: &Arc<dyn Backend>, seed: u64) -> Result<DecodeReport, String> {
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: PRESSURE_QPS },
            num_requests: DECODE_REQUESTS,
            seq_len: PROMPT_LEN,
            seed,
            ..TrafficConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let config = DecodeConfig {
            placement: KvPlacementPolicy::Hybrid {
                hot_window: HOT_WINDOW,
            },
            output_tokens: OUTPUT_TOKENS,
            kv_pus: KV_PUS,
            ..DecodeConfig::default()
        };
        DecodeSim::new(Arc::clone(backend), trace, config)
            .and_then(|sim| sim.run())
            .map_err(|e| e.to_string())
    }
}

impl Workload for Decode {
    const NAME: &'static str = "decode";
    const SETUPS: usize = 15;
    const UNIT: &'static str = "tokens";
    const PASSES: u64 = 6;

    fn setup(seed: u64, _pool: JobPool, tracer: &mut Tracer) -> Result<Self, String> {
        tracer.span("baselines.build", |_| {
            Ok(Decode {
                seed,
                fleet: Fleet::new(vec![build("hyflexpim")?]),
            })
        })
    }

    fn job(&self, index: u64, tracer: &mut Tracer) -> Result<JobOutcome, String> {
        let seed = job_seed(self.seed, index);
        let mut out = JobOutcome::default();
        let report = self.fleet.run(tracer, &mut out.layer, |tracer, fleet| {
            tracer.span("runtime.decode_run", |_| Decode::run(&fleet[0], seed))
        })?;
        let r = &report;
        out.check(
            r.offered == r.admitted + r.shed && r.admitted == r.completed + r.evicted,
            || {
                format!(
                    "ledger: offered {} admitted {} shed {} completed {} evicted {}",
                    r.offered, r.admitted, r.shed, r.completed, r.evicted
                )
            },
        );
        out.check(r.offered == DECODE_REQUESTS && r.decoded_tokens > 0, || {
            format!("offered {} decoded {}", r.offered, r.decoded_tokens)
        });
        out.digest = digest(&format!("{report:?}"));
        out.units = r.decoded_tokens as u64;
        out.layer.extend([
            ("runtime.offered", r.offered as f64),
            ("runtime.completed", r.completed as f64),
            ("runtime.shed", r.shed as f64),
            ("runtime.evicted", r.evicted as f64),
            ("runtime.decoded_tokens", r.decoded_tokens as f64),
            (
                "runtime.kv_tokens_written",
                (r.slc_tokens_written + r.mlc_tokens_written) as f64,
            ),
            ("runtime.demoted_tokens", r.demoted_tokens as f64),
            (
                "runtime.completed_ratio",
                r.completed as f64 / r.admitted.max(1) as f64,
            ),
        ]);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::InferenceRequest;
    use hyflex_pim::perf::{BatchPerfSummary, PerfSummary};

    /// A test backend forwarding the six required methods to the wrapped
    /// one, plus an optional `evaluate_decode_step` item.
    macro_rules! forwarding_backend {
        ($name:ident, $($decode:item)?) => {
            #[derive(Debug)]
            struct $name(Arc<dyn Backend>);

            impl Backend for $name {
                fn name(&self) -> &str {
                    self.0.name()
                }
                fn model(&self) -> &ModelConfig {
                    self.0.model()
                }
                fn capacity(&self) -> usize {
                    self.0.capacity()
                }
                fn request_cells(&self, seq_len: usize) -> usize {
                    self.0.request_cells(seq_len)
                }
                fn evaluate(&self, request: &InferenceRequest) -> hyflex_pim::Result<PerfSummary> {
                    self.0.evaluate(request)
                }
                fn evaluate_batched(
                    &self,
                    seq_len: usize,
                    batch_size: usize,
                ) -> hyflex_pim::Result<BatchPerfSummary> {
                    self.0.evaluate_batched(seq_len, batch_size)
                }
                $($decode)?
            }
        };
    }

    // Loses any override of the decode step: the trait default runs.
    forwarding_backend!(DefaultDecodeStep,);
    // Overrides the decode step: twice the inner backend's step time.
    forwarding_backend!(
        SlowDecodeStep,
        fn evaluate_decode_step(
            &self,
            context_len: usize,
            batch_size: usize,
        ) -> hyflex_pim::Result<BatchPerfSummary> {
            let mut step = self.0.evaluate_decode_step(context_len, batch_size)?;
            step.makespan_ns *= 2.0;
            Ok(step)
        }
    );

    fn assert_counted_matches(bare: &Arc<dyn Backend>) -> DecodeReport {
        let fleet = Fleet::new(vec![Arc::clone(bare)]);
        let plain = Decode::run(bare, 5).unwrap();
        assert_eq!(
            Decode::run(&fleet.counted[0], 5).unwrap(),
            plain,
            "{}",
            bare.name()
        );
        let (calls, secs) = fleet.stats.read();
        assert!(calls > 0 && secs > 0.0, "{}: {calls} calls", bare.name());
        plain
    }

    #[test]
    fn counted_decode_runs_match_unwrapped_runs() {
        for name in ["hyflexpim", "analog-attention"] {
            assert_counted_matches(&build(name).unwrap());
        }
        // A backend that overrides the decode step keeps its override
        // through the counting wrapper; a wrapper relying on the trait
        // default would lose it.
        let slow: Arc<dyn Backend> = Arc::new(SlowDecodeStep(build("hyflexpim").unwrap()));
        let plain = assert_counted_matches(&slow);
        let lossy: Arc<dyn Backend> = Arc::new(DefaultDecodeStep(Arc::clone(&slow)));
        assert_ne!(Decode::run(&lossy, 5).unwrap(), plain);
    }

    #[test]
    fn counted_overload_runs_match_unwrapped_runs() {
        let workload = Overload::setup(3, JobPool::serial(), &mut Tracer::off()).unwrap();
        let trace = workload.trace(11).unwrap();
        let fleet = &workload.fleet;
        let plain = Overload::run(&fleet.bare, trace.clone()).unwrap();
        assert_eq!(Overload::run(&fleet.counted, trace).unwrap(), plain);
        assert!(fleet.stats.read().0 > 0);
    }

    #[test]
    fn traced_jobs_reproduce_untraced_digests() {
        let pool = JobPool::serial();
        let overload = Overload::setup(2, pool, &mut Tracer::off()).unwrap();
        let decode = Decode::setup(2, pool, &mut Tracer::off()).unwrap();
        let untraced = [
            overload.job(1, &mut Tracer::off()).unwrap(),
            decode.job(1, &mut Tracer::off()).unwrap(),
        ];
        let mut tracer = Tracer::on();
        let traced = [
            overload.job(1, &mut tracer).unwrap(),
            decode.job(1, &mut tracer).unwrap(),
        ];
        for (u, t) in untraced.iter().zip(&traced) {
            assert_eq!(u.digest, t.digest);
            assert!(u.problems.is_empty() && t.problems.is_empty());
            assert!(u
                .layer
                .iter()
                .all(|(name, _)| !name.starts_with("core.backend")));
            assert!(t
                .layer
                .iter()
                .any(|(name, _)| *name == "core.backend_calls"));
        }
        assert!(!tracer.spans().is_empty());
    }
}
