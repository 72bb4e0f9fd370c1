//! In-memory span recorder for the traced run.
//!
//! Spans (name, start, end, parent, job) are pushed to a `Vec` as the
//! benchmark calls into each layer and written once, at the end, as Chrome
//! trace-event JSON (open it in Perfetto or `chrome://tracing`). A tracer
//! that is off records nothing and only runs the closures it is given.

use std::fmt::Write as _;
use std::time::Instant;

/// Job id under which set-up spans are recorded.
pub const SETUP_JOB: u64 = u64::MAX;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

/// Span recorder handle threaded through every workload call.
#[derive(Debug)]
pub struct Tracer {
    recorder: Option<Recorder>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { recorder: None }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            recorder: Some(Recorder {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                job: SETUP_JOB,
            }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.recorder.is_some()
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        if let Some(rec) = &mut self.recorder {
            rec.job = job;
        }
    }

    /// Runs `f` inside a span called `name` (or just runs it when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(rec) = &mut self.recorder else {
            return f(self);
        };
        let index = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: elapsed_ns(rec.origin),
            end_ns: 0,
            parent: rec.open.last().copied(),
            job: rec.job,
        });
        rec.open.push(index);
        let out = f(self);
        if let Some(rec) = &mut self.recorder {
            rec.open.pop();
            rec.spans[index].end_ns = elapsed_ns(rec.origin);
        }
        out
    }

    /// Every span recorded so far (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.recorder.as_ref().map_or(&[], |rec| &rec.spans)
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| children.get_mut(p)) {
            parent.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microseconds) with each
/// span's job, parent and self time in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (index, (span, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
        if index > 0 {
            out.push(',');
        }
        let job = if span.job == SETUP_JOB {
            "\"setup\"".to_string()
        } else {
            span.job.to_string()
        };
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{index},\"job\":{job},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            *self_ns as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("job", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut on = Tracer::on();
        on.set_job(3);
        let value = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_trace_json(spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
