#![forbid(unsafe_code)]
//! Host-time benchmark of the HyFlexPIM simulator.
//!
//! ```text
//! hostbench --workload redistribute|overload|decode --seed N --seconds S --trace 0|1
//! hostbench --workload NAME --record K     # print reference digests, seeds 0..K
//! ```
//!
//! One workload per process. After set-up (the pool starts once; the rest
//! is repeated and its median taken) the workload's jobs run back to back
//! for `--seconds`, each with its own seed derived from `--seed`; every
//! job runs `PASSES` times, in passes over all of them, and a job's
//! latency is its fastest run. Every
//! job's simulated outputs are checked (conservation ledgers, same-seed
//! reruns, recorded reference digests) and only host time and memory are
//! reported. `--trace 1` runs every job index twice, untraced and with
//! spans around every layer call, in alternating order, and reports
//! per-layer numbers instead of end-to-end ones. The last stdout line is
//! the JSON result.

mod counted;
mod redistribute;
mod serving;
mod stats;
mod trace;
mod workload;

use hyflex_parallel::JobPool;
use redistribute::Redistribute;
use serving::{Decode, Overload};
use stats::{digest, median, nearest_rank, peak_rss_mb, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{chrome_trace_json, self_times_ns, Tracer, SETUP_JOB};
use workload::{warm_pool, JobOutcome, Workload};

/// Jobs every timed phase runs at least, so the tail percentile exists.
const MIN_JOBS: u64 = 20;
/// Jobs per run whose digests are checked against the recorded ones.
const REFERENCE_JOBS: u64 = 4;
/// `workload seed job digest` lines recorded with `--record`.
const REFERENCES: &str = include_str!("../reference_digests.txt");

/// Every end-to-end metric with its unit, in `BENCHMARK.json`'s order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "units/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, reported on every workload (zero
/// where the workload bypasses the layer).
const PER_LAYER: [(&str, &str); 32] = [
    ("transformer.pretrain_s", "s"),
    ("transformer.eval_s", "s"),
    ("core.factorize_s", "s"),
    ("transformer.finetune_s", "s"),
    ("core.profile_s", "s"),
    ("core.noise_sweep_s", "s"),
    ("parallel.factorize_speedup", "ratio"),
    ("parallel.sweep_speedup", "ratio"),
    ("core.factored_layers", "count"),
    ("transformer.samples_passed", "count"),
    ("core.sweep_points", "count"),
    ("runtime.overload_run_s", "s"),
    ("runtime.decode_run_s", "s"),
    ("runtime.trace_gen_s", "s"),
    ("core.backend_calls", "count"),
    ("core.backend_eval_s", "s"),
    ("runtime.engine_self_s", "s"),
    ("runtime.offered", "count"),
    ("runtime.completed", "count"),
    ("runtime.rejected", "count"),
    ("runtime.shed", "count"),
    ("runtime.preempted", "count"),
    ("runtime.evicted", "count"),
    ("runtime.decoded_tokens", "count"),
    ("runtime.kv_tokens_written", "count"),
    ("runtime.demoted_tokens", "count"),
    ("runtime.completed_ratio", "ratio"),
    ("workloads.generate_s", "s"),
    ("baselines.build_s", "s"),
    ("parallel.warmup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => args.record = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "redistribute" => run::<Redistribute>(&args),
        "overload" => run::<Overload>(&args),
        "decode" => run::<Decode>(&args),
        other => Err(format!(
            "unknown workload {other:?} (redistribute, overload, decode)"
        )),
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    }
}

struct JobRecord {
    index: u64,
    latency_s: f64,
    outcome: Result<JobOutcome, String>,
}

/// Every run of a phase, in the order they ran.
struct Phase {
    jobs: Vec<JobRecord>,
}

impl Phase {
    /// Digest of the first successful run of job `index`.
    fn digest(&self, index: u64) -> Option<u64> {
        self.jobs
            .iter()
            .filter(|j| j.index == index)
            .find_map(|j| j.outcome.as_ref().ok())
            .map(|o| o.digest)
    }

    /// Per job index: its fastest run's latency and its units of work.
    fn best(&self) -> BTreeMap<u64, (f64, u64)> {
        let mut best: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        for job in &self.jobs {
            let units = job.outcome.as_ref().map_or(0, |o| o.units);
            let entry = best.entry(job.index).or_insert((job.latency_s, units));
            *entry = (entry.0.min(job.latency_s), entry.1.max(units));
        }
        best
    }

    /// Ascending per-job latencies (each job's fastest run), ms.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.best().values().map(|&(s, _)| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

fn run_job<W: Workload>(workload: &W, index: u64, tracer: &mut Tracer) -> JobRecord {
    tracer.set_job(index);
    let start = Instant::now();
    let outcome = tracer.span("job", |t| workload.job(index, t));
    JobRecord {
        index,
        latency_s: start.elapsed().as_secs_f64(),
        outcome,
    }
}

/// Runs jobs back to back until `seconds` have passed, and returns the
/// untraced runs, the traced ones and the wall time.
///
/// Without a `tracer`, the first pass runs indices 0, 1, ... for
/// `seconds / W::PASSES`, and at least [`MIN_JOBS`] of them; the remaining
/// passes rerun those indices in order, so every job runs exactly
/// `W::PASSES` times. With a `tracer`, indices 0, 1, ... run until
/// `seconds` have passed and at least [`MIN_JOBS`] have run, every index
/// twice, untraced and traced, the two in alternating order so that host
/// drift reaches both sides alike.
fn timed_phase<W: Workload>(
    workload: &W,
    tracer: Option<&mut Tracer>,
    seconds: f64,
) -> (Phase, Phase, f64) {
    let start = Instant::now();
    let mut untraced = Phase { jobs: Vec::new() };
    let mut traced = Phase { jobs: Vec::new() };
    let Some(tracer) = tracer else {
        let pass_s = seconds / W::PASSES as f64;
        let mut jobs = 0;
        while jobs < MIN_JOBS || start.elapsed().as_secs_f64() < pass_s {
            untraced
                .jobs
                .push(run_job(workload, jobs, &mut Tracer::off()));
            jobs += 1;
        }
        for _ in 1..W::PASSES {
            for index in 0..jobs {
                untraced
                    .jobs
                    .push(run_job(workload, index, &mut Tracer::off()));
            }
        }
        return (untraced, traced, start.elapsed().as_secs_f64());
    };
    for index in 0.. {
        if index >= MIN_JOBS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if index % 2 == 1 {
            traced.jobs.push(run_job(workload, index, tracer));
        }
        untraced
            .jobs
            .push(run_job(workload, index, &mut Tracer::off()));
        if index % 2 == 0 {
            traced.jobs.push(run_job(workload, index, tracer));
        }
    }
    (untraced, traced, start.elapsed().as_secs_f64())
}

/// Recorded digests of jobs `0..REFERENCE_JOBS` for this workload and seed.
fn references(workload: &str, seed: u64) -> BTreeMap<u64, u64> {
    REFERENCES
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                [w, s, job, hex] if w == workload && s.parse() == Ok(seed) => {
                    Some((job.parse().ok()?, u64::from_str_radix(hex, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// Prints reference lines for seeds `0..seeds`.
fn record<W: Workload>(seeds: u64, pool: JobPool) -> Result<bool, String> {
    for seed in 0..seeds {
        let workload = W::setup(seed, pool, &mut Tracer::off())?;
        for index in 0..REFERENCE_JOBS {
            let outcome = workload.job(index, &mut Tracer::off())?;
            if !outcome.problems.is_empty() {
                return Err(format!("seed {seed} job {index}: {:?}", outcome.problems));
            }
            println!("{} {seed} {index} {:016x}", W::NAME, outcome.digest);
        }
    }
    Ok(true)
}

fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    let pool = JobPool::with_default_parallelism();
    if let Some(seeds) = args.record {
        return record::<W>(seeds, pool);
    }
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    // The pool's workers start once per process, on its first parallel
    // call, so that is timed once, cold. The rest of set-up is repeated;
    // each ends with an untraced warm-up run of job 0, which doubles as the
    // same-seed rerun of the first timed job.
    tracer.set_job(SETUP_JOB);
    let start = Instant::now();
    warm_pool(pool, &mut tracer);
    let pool_start_s = start.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut warm_digests = Vec::new();
    let mut workload = None;
    for _ in 0..W::SETUPS {
        let start = Instant::now();
        let (w, warm) = tracer.span("setup", |t| -> Result<_, String> {
            let w = W::setup(args.seed, pool, t)?;
            let warm = t.span("setup.warmup_job", |_| w.job(0, &mut Tracer::off()))?;
            Ok((w, warm))
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        warm_digests.push(warm.digest);
        workload = Some(w);
    }
    let workload = workload.ok_or("no set-up ran")?;
    let setup_s = pool_start_s + median(&setup_s).ok_or("no set-up ran")?;

    let traced_run = args.trace.then_some(&mut tracer);
    let (untraced, traced, wall_s) = timed_phase(&workload, traced_run, args.seconds);

    // Output checks: a run fails when it errs, trips its own checks, or
    // disagrees with a same-seed run (warm-up, recorded reference, or the
    // first untraced run of the same index).
    let references = references(W::NAME, args.seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for phase in [&untraced, &traced] {
        for job in &phase.jobs {
            attempted += 1;
            let mut problems = match &job.outcome {
                Ok(outcome) => outcome.problems.clone(),
                Err(e) => vec![e.clone()],
            };
            if let Ok(outcome) = &job.outcome {
                let mut expect = |what: &str, want: Option<u64>| {
                    if want.is_some_and(|want| want != outcome.digest) {
                        problems.push(format!("digest differs from {what}"));
                    }
                };
                if job.index == 0 {
                    for &warm in &warm_digests {
                        expect("the set-up rerun", Some(warm));
                    }
                }
                expect(
                    "the recorded reference",
                    references.get(&job.index).copied(),
                );
                expect("the first untraced run", untraced.digest(job.index));
            }
            if !problems.is_empty() {
                failed += 1;
                eprintln!("job {} failed: {}", job.index, problems.join("; "));
            }
        }
    }
    let first_jobs = (0..REFERENCE_JOBS)
        .map(|i| {
            untraced
                .digest(i)
                .map_or("-".to_string(), |d| format!("{d:016x}"))
        })
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "digest {} seed {} jobs 0-{}: {:016x} ({} of them recorded)",
        W::NAME,
        args.seed,
        REFERENCE_JOBS - 1,
        digest(&first_jobs),
        references.len()
    );

    let metrics = if args.trace {
        per_layer(&workload, &tracer, &untraced, &traced, args.seed)?
    } else {
        end_to_end::<W>(&untraced, wall_s, setup_s, pool_start_s)?
    };
    let correct = failed == 0;
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}");
    Ok(correct)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    // JSON has no NaN or infinity.
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn end_to_end<W: Workload>(
    phase: &Phase,
    wall_s: f64,
    setup_s: f64,
    pool_start_s: f64,
) -> Result<String, String> {
    let latencies = phase.latencies_ms();
    let p50 = nearest_rank(&latencies, 50.0).ok_or("no jobs ran")?;
    let (tail_p, tail_ms) = tail(&latencies).ok_or("too few jobs for a tail")?;
    // Work of each job over its fastest run, like the latencies.
    let (busy_s, units) = phase
        .best()
        .values()
        .fold((0.0, 0u64), |(s, u), &(latency_s, units)| {
            (s + latency_s, u + units)
        });
    let rss = peak_rss_mb().ok_or("peak RSS unavailable (needs /proc/self/status)")?;
    println!(
        "{} jobs, {} runs in {wall_s:.2} s on {} workers: job p50 {p50:.3} ms, tail \
         p{tail_p:.1} {tail_ms:.3} ms ({} jobs beyond), {units} {} in {busy_s:.2} s of \
         fastest runs, set-up {setup_s:.4} s (pool start {pool_start_s:.6} s + median of \
         {} set-ups)",
        latencies.len(),
        phase.jobs.len(),
        JobPool::with_default_parallelism().workers(),
        stats::TAIL_BEYOND,
        W::UNIT,
        W::SETUPS,
    );
    let values = [setup_s, units as f64 / busy_s, p50, tail_ms, rss];
    let mut out = String::new();
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        metric(&mut out, name, value, unit);
    }
    Ok(out)
}

fn per_layer<W: Workload>(
    workload: &W,
    tracer: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    seed: u64,
) -> Result<String, String> {
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    // Per traced job: summed span durations (as `<span>_s`) and the job's
    // own measured values; per set-up span name: one duration per set-up.
    let mut jobs: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    let mut setup: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&self_ns) {
        let secs = span.duration_ns() as f64 / 1e9;
        let key = format!("{}_s", span.name);
        if span.job == SETUP_JOB {
            setup.entry(key).or_default().push(secs);
            continue;
        }
        let values = jobs.entry(span.job).or_default();
        *values.entry(key).or_default() += secs;
        if span.name == "job" && span.duration_ns() > 0 {
            let covered = 1.0 - *self_ns as f64 / span.duration_ns() as f64;
            values.insert("trace.coverage_ratio".to_string(), covered);
        }
    }
    for job in &traced.jobs {
        let (Some(values), Ok(outcome)) = (jobs.get_mut(&job.index), &job.outcome) else {
            continue;
        };
        for (key, value) in &outcome.layer {
            values.insert(key.to_string(), *value);
        }
        let get = |values: &BTreeMap<String, f64>, key: &str| values.get(key).copied();
        let run = get(values, "runtime.overload_run_s").or(get(values, "runtime.decode_run_s"));
        if let Some(run) = run {
            let backend = get(values, "core.backend_eval_s").unwrap_or(0.0);
            let trace_gen = get(values, "runtime.trace_gen_s").unwrap_or(0.0);
            values.insert(
                "runtime.engine_self_s".to_string(),
                run - backend - trace_gen,
            );
        }
    }
    let finish: BTreeMap<&str, f64> = workload.finish()?.into_iter().collect();
    // The traced job's extra drain of the request trace is work the
    // untraced job does not do, so it is left out of the ratio.
    let traced_ms: Vec<f64> = traced
        .jobs
        .iter()
        .map(|job| {
            let drain = jobs
                .get(&job.index)
                .and_then(|values| values.get("runtime.trace_gen_s"))
                .copied()
                .unwrap_or(0.0);
            (job.latency_s - drain) * 1e3
        })
        .collect();
    let overhead = median(&traced_ms).unwrap_or(0.0)
        / nearest_rank(&untraced.latencies_ms(), 50.0).unwrap_or(f64::INFINITY);

    let mut out = String::new();
    let mut shares = Vec::new();
    let job_s = median(&collect(&jobs, "job_s")).unwrap_or(0.0);
    for (metric_name, unit) in PER_LAYER {
        let value = if let Some(v) = finish.get(metric_name) {
            *v
        } else if metric_name == "trace.overhead_ratio" {
            overhead
        } else if let Some(samples) = setup.get(metric_name) {
            median(samples).unwrap_or(0.0)
        } else {
            median(&collect(&jobs, metric_name)).unwrap_or(0.0)
        };
        if unit == "s" && value > 0.0 && job_s > 0.0 && !setup.contains_key(metric_name) {
            shares.push(format!("{metric_name} {:.1}%", 100.0 * value / job_s));
        }
        metric(&mut out, metric_name, value, unit);
    }
    println!(
        "{} traced / {} untraced jobs; median traced job {:.3} ms; share of it: {}",
        traced.jobs.len(),
        untraced.jobs.len(),
        job_s * 1e3,
        shares.join(", ")
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{seed}.json", W::NAME);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(spans)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("trace: {path} ({} spans)", spans.len());
    Ok(out)
}

/// `key` of every traced job (0 where a job lacks it).
fn collect(jobs: &BTreeMap<u64, BTreeMap<String, f64>>, key: &str) -> Vec<f64> {
    jobs.values()
        .map(|values| values.get(key).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{JobRecord, Phase, END_TO_END, PER_LAYER};
    use crate::workload::JobOutcome;

    fn run(index: u64, latency_s: f64, digest: u64) -> JobRecord {
        JobRecord {
            index,
            latency_s,
            outcome: Ok(JobOutcome {
                digest,
                units: 10 + index,
                ..JobOutcome::default()
            }),
        }
    }

    #[test]
    fn a_job_counts_its_fastest_run_and_first_digest() {
        let phase = Phase {
            jobs: vec![
                run(0, 0.3, 7),
                run(1, 0.2, 8),
                run(0, 0.1, 9),
                run(1, 0.4, 8),
                run(0, 0.2, 7),
            ],
        };
        let best = phase.best();
        assert_eq!(best.len(), 2);
        assert_eq!(best[&0], (0.1, 10));
        assert_eq!(best[&1], (0.2, 11));
        assert_eq!(phase.latencies_ms(), vec![100.0, 200.0]);
        assert_eq!(phase.digest(0), Some(7));
        assert_eq!(phase.digest(1), Some(8));
        assert_eq!(phase.digest(2), None);
    }

    /// `(name, unit)` of every metric in `BENCHMARK.json`'s `section` list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("end of list")];
        let field = |object: &str, key: &str| {
            let key = format!("\"{key}\"");
            let rest = &object[object.find(&key)? + key.len()..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        list.split('}')
            .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }
}
