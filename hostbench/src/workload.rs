//! The contract every benchmark workload implements.

use crate::trace::Tracer;
use hyflex_parallel::JobPool;

/// What one job reports back besides its host latency.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// Digest of the job's simulated outputs (`Debug` form, FNV-1a).
    pub digest: u64,
    /// Work units completed (samples, requests offered, tokens decoded).
    pub units: u64,
    /// Output checks that tripped; the job counts as failed when non-empty.
    pub problems: Vec<String>,
    /// Per-layer values measured inside the job (counts, backend time),
    /// keyed by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl JobOutcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A closed loop of seeded jobs over one layer of the simulator.
pub trait Workload: Sized {
    /// Name passed as `--workload`.
    const NAME: &'static str;
    /// Set-ups per run; `setup_s` adds their median to the pool's start.
    const SETUPS: usize;
    /// What `units` counts, for the printed summary.
    const UNIT: &'static str;
    /// Runs of each job in an untraced run, in passes spread over the run.
    /// A job's latency is its fastest run, so host interference that comes
    /// and goes within a run reaches it only if it hits every pass.
    const PASSES: u64;

    /// Generates inputs and builds backends on a running pool. Spans
    /// opened here are recorded as set-up.
    fn setup(seed: u64, pool: JobPool, tracer: &mut Tracer) -> Result<Self, String>;

    /// Runs job `index`, whose seed is derived from the workload seed.
    fn job(&self, index: u64, tracer: &mut Tracer) -> Result<JobOutcome, String>;

    /// Extra per-layer values measured after the traced jobs.
    fn finish(&self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Starts the pool's persistent workers, which are spawned on the first
/// parallel call of the process and live until it exits.
pub fn warm_pool(pool: JobPool, tracer: &mut Tracer) {
    tracer.span("parallel.warmup", |_| {
        let items: Vec<usize> = (0..pool.workers() * 4).collect();
        std::hint::black_box(pool.par_map_owned(items, |x| x + 1));
    });
}
