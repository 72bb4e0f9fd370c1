//! A forwarding [`Backend`] that counts and times every evaluation call.

use crate::trace::Tracer;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::perf::{BatchPerfSummary, PerfSummary};
use hyflex_transformer::ModelConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Evaluation calls and their host time, shared by every wrapper of a
/// fleet. Statistics only: nothing else is published through them, so
/// relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStats {
    /// `(calls, seconds)` so far.
    pub fn read(&self) -> (u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        )
    }
}

/// Wraps a backend; metadata methods forward untouched, evaluation methods
/// forward and add one call and its duration to [`CallStats`].
#[derive(Debug)]
pub struct Counted {
    inner: Arc<dyn Backend>,
    stats: Arc<CallStats>,
}

impl Counted {
    pub fn new(inner: Arc<dyn Backend>, stats: Arc<CallStats>) -> Self {
        Counted { inner, stats }
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        out
    }
}

impl Backend for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn model(&self) -> &ModelConfig {
        self.inner.model()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn request_cells(&self, seq_len: usize) -> usize {
        self.inner.request_cells(seq_len)
    }
    fn evaluate(&self, request: &InferenceRequest) -> hyflex_pim::Result<PerfSummary> {
        self.timed(|| self.inner.evaluate(request))
    }
    fn evaluate_batched(
        &self,
        seq_len: usize,
        batch_size: usize,
    ) -> hyflex_pim::Result<BatchPerfSummary> {
        self.timed(|| self.inner.evaluate_batched(seq_len, batch_size))
    }
    // Forwarded explicitly: the trait default would replace the inner
    // backend's own decode pricing (e.g. analog in-memory attention).
    fn evaluate_decode_step(
        &self,
        context_len: usize,
        batch_size: usize,
    ) -> hyflex_pim::Result<BatchPerfSummary> {
        self.timed(|| self.inner.evaluate_decode_step(context_len, batch_size))
    }
}

/// Backends both bare and behind [`Counted`] wrappers that share one
/// [`CallStats`]: untraced jobs run on the bare ones, traced jobs on the
/// counted ones.
#[derive(Debug)]
pub struct Fleet {
    pub bare: Vec<Arc<dyn Backend>>,
    pub counted: Vec<Arc<dyn Backend>>,
    pub stats: Arc<CallStats>,
}

impl Fleet {
    pub fn new(bare: Vec<Arc<dyn Backend>>) -> Self {
        let stats = Arc::new(CallStats::default());
        let counted = bare
            .iter()
            .map(|b| -> Arc<dyn Backend> {
                Arc::new(Counted::new(Arc::clone(b), Arc::clone(&stats)))
            })
            .collect();
        Fleet {
            bare,
            counted,
            stats,
        }
    }

    /// Runs `run` on the counted backends when tracing, appending the
    /// backend calls and seconds it cost to `layer`; on the bare ones
    /// otherwise.
    pub fn run<T>(
        &self,
        tracer: &mut Tracer,
        layer: &mut Vec<(&'static str, f64)>,
        run: impl FnOnce(&mut Tracer, &[Arc<dyn Backend>]) -> Result<T, String>,
    ) -> Result<T, String> {
        if !tracer.is_on() {
            return run(tracer, &self.bare);
        }
        let (calls, secs) = self.stats.read();
        let out = run(tracer, &self.counted)?;
        let (calls_after, secs_after) = self.stats.read();
        layer.push(("core.backend_calls", (calls_after - calls) as f64));
        layer.push(("core.backend_eval_s", secs_after - secs));
        Ok(out)
    }
}
