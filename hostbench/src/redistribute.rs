//! `redistribute`: the fig11/12 unit of work — pretrain a tiny encoder,
//! run gradient redistribution (SVD, truncation, fine-tune, gradient
//! collection), then sweep SLC rates under the hybrid noise model.

use crate::stats::{digest, job_seed, median, setup_seed};
use crate::trace::Tracer;
use crate::workload::{JobOutcome, Workload};
use hyflex_parallel::JobPool;
use hyflex_pim::gradient_redistribution::{
    GradientRedistribution, LayerGradientProfile, RedistributionReport,
};
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator, SweepOutcome, SweepPoint};
use hyflex_runtime::par_noise_sweep;
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};
use hyflex_workloads::Dataset;
use std::cell::RefCell;
use std::time::Instant;

/// fig12's encoder tasks; job `i` runs task `i % 4`.
const TASKS: [GlueTask; 4] = [
    GlueTask::Mrpc,
    GlueTask::Cola,
    GlueTask::Sst2,
    GlueTask::Rte,
];
const PRETRAIN_EPOCHS: usize = 4;
const FINETUNE_EPOCHS: usize = 2;
/// fig12's SLC protection rates × noise seeds per rate.
const RATES: [f64; 7] = [0.0, 0.05, 0.10, 0.30, 0.40, 0.50, 1.0];
const SEEDS_PER_RATE: u64 = 3;
/// Traced jobs whose inputs are kept to time serial against pooled calls.
const SPEEDUP_SAMPLES: usize = 3;

/// Samples one job passes through the model: pretrain, fine-tune and the
/// gradient-collection pass over the training split; the three
/// evaluations and every sweep point over the evaluation split.
pub fn samples_per_job(train: usize, eval: usize) -> u64 {
    let train_passes = PRETRAIN_EPOCHS + FINETUNE_EPOCHS + 1;
    let eval_passes = 3 + RATES.len() * SEEDS_PER_RATE as usize;
    (train_passes * train + eval_passes * eval) as u64
}

/// Inputs of one traced job, kept to time its pooled calls serially.
struct Kept {
    dense: TransformerModel,
    finetuned: TransformerModel,
    profiles: Vec<LayerGradientProfile>,
    outcomes: Vec<SweepOutcome>,
    task: usize,
    sweep_base: u64,
}

pub struct Redistribute {
    seed: u64,
    pool: JobPool,
    datasets: Vec<Dataset>,
    pipeline: GradientRedistribution,
    simulator: NoiseSimulator,
    kept: RefCell<Vec<Kept>>,
}

impl Redistribute {
    /// `GradientRedistribution::apply_with_pool`'s public steps, in order,
    /// each in its own span. With `keep_dense`, also returns a copy of the
    /// model as it was before factorization.
    fn replay(
        &self,
        model: &mut TransformerModel,
        data: &Dataset,
        tracer: &mut Tracer,
        keep_dense: bool,
    ) -> Result<(RedistributionReport, Option<TransformerModel>), String> {
        let trainer = &self.pipeline.trainer;
        let eval = |model: &TransformerModel, tracer: &mut Tracer| {
            tracer
                .span("transformer.eval", |_| trainer.evaluate(model, &data.eval))
                .map_err(|e| e.to_string())
        };
        let eval_dense = eval(model, tracer)?;
        let dense = keep_dense.then(|| model.clone());
        tracer
            .span("core.factorize", |_| {
                self.pipeline.factorize_model_pooled(model, &self.pool)
            })
            .map_err(|e| e.to_string())?;
        let eval_truncated = eval(model, tracer)?;
        let finetune_losses = tracer
            .span("transformer.finetune", |_| {
                trainer.train(model, &data.train, self.pipeline.finetune_epochs)
            })
            .map_err(|e| e.to_string())?;
        let eval_finetuned = eval(model, tracer)?;
        let layer_profiles = tracer
            .span("core.profile", |_| {
                self.pipeline.collect_profiles(model, &data.train)
            })
            .map_err(|e| e.to_string())?;
        let report = RedistributionReport {
            layer_profiles,
            finetune_losses,
            eval_dense,
            eval_truncated,
            eval_finetuned,
        };
        Ok((report, dense))
    }

    fn sweep(
        &self,
        pool: &JobPool,
        model: &TransformerModel,
        profiles: &[LayerGradientProfile],
        eval: &Dataset,
        sweep_base: u64,
    ) -> Result<Vec<SweepOutcome>, String> {
        let points = SweepPoint::grid(&RATES, SEEDS_PER_RATE, sweep_base);
        par_noise_sweep(
            pool,
            &self.simulator,
            model,
            profiles,
            &HybridMappingSpec::gradient_based(0.0),
            &eval.eval,
            &points,
        )
        .map_err(|e| e.to_string())
    }
}

impl Workload for Redistribute {
    const NAME: &'static str = "redistribute";
    const SETUPS: usize = 7;
    const UNIT: &'static str = "samples";
    // A job lasts about a second, so two passes over the minimum job count
    // already take about 40 s, and the 20 jobs leave the tail percentile
    // at the median.
    const PASSES: u64 = 2;

    fn setup(seed: u64, pool: JobPool, tracer: &mut Tracer) -> Result<Self, String> {
        let datasets = tracer.span("workloads.generate", |_| {
            (0u64..)
                .zip(TASKS)
                .map(|(k, task)| glue::generate(task, &GlueConfig::default(), setup_seed(seed, k)))
                .collect()
        });
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        Ok(Redistribute {
            seed,
            pool,
            datasets,
            pipeline: GradientRedistribution {
                finetune_epochs: FINETUNE_EPOCHS,
                ..GradientRedistribution::new(trainer)
            },
            simulator: NoiseSimulator::paper_default(),
            kept: RefCell::new(Vec::new()),
        })
    }

    fn job(&self, index: u64, tracer: &mut Tracer) -> Result<JobOutcome, String> {
        let seed = job_seed(self.seed, index);
        let task = (index % TASKS.len() as u64) as usize;
        let data = &self.datasets[task];
        let mut rng = Rng::seed_from(seed);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng)
            .map_err(|e| e.to_string())?;
        tracer
            .span("transformer.pretrain", |_| {
                self.pipeline
                    .trainer
                    .train(&mut model, &data.train, PRETRAIN_EPOCHS)
            })
            .map_err(|e| e.to_string())?;
        let (report, dense) = if tracer.is_on() {
            let keep_dense = self.kept.borrow().len() < SPEEDUP_SAMPLES;
            self.replay(&mut model, data, tracer, keep_dense)?
        } else {
            let report = self
                .pipeline
                .apply_with_pool(&mut model, &data.train, &data.eval, &self.pool)
                .map_err(|e| e.to_string())?;
            (report, None)
        };
        let sweep_base = seed >> 8;
        let outcomes = tracer.span("core.noise_sweep", |_| {
            self.sweep(&self.pool, &model, &report.layer_profiles, data, sweep_base)
        })?;

        let mut out = JobOutcome {
            digest: digest(&format!("{report:?}{outcomes:?}")),
            units: samples_per_job(data.train.len(), data.eval.len()),
            ..JobOutcome::default()
        };
        let layers = model.named_linears().len();
        out.check(report.layer_profiles.len() == layers, || {
            format!(
                "{} profiles for {layers} layers",
                report.layer_profiles.len()
            )
        });
        out.check(report.finetune_losses.len() == FINETUNE_EPOCHS, || {
            "fine-tune epoch count".to_string()
        });
        out.check(
            outcomes.len() == RATES.len() * SEEDS_PER_RATE as usize,
            || "sweep point count".to_string(),
        );
        out.check(
            outcomes.iter().all(|o| o.primary_metric.is_finite())
                && report.finetune_losses.iter().all(|l| l.is_finite()),
            || "non-finite metric".to_string(),
        );
        out.layer = vec![
            ("core.factored_layers", report.layer_profiles.len() as f64),
            ("transformer.samples_passed", out.units as f64),
            ("core.sweep_points", outcomes.len() as f64),
        ];
        if let Some(dense) = dense {
            self.kept.borrow_mut().push(Kept {
                dense,
                finetuned: model,
                profiles: report.layer_profiles,
                outcomes,
                task,
                sweep_base,
            });
        }
        Ok(out)
    }

    /// Serial over pooled time of the same factorization and sweep calls on
    /// kept job inputs, alternating which runs first; the serial results
    /// must equal the pooled ones bit for bit.
    fn finish(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let mut factorize = Vec::new();
        let mut sweep = Vec::new();
        for (k, kept) in self.kept.borrow().iter().enumerate() {
            let data = &self.datasets[kept.task];
            let run = |pool: JobPool| -> Result<_, String> {
                let mut model = kept.dense.clone();
                let start = Instant::now();
                self.pipeline
                    .factorize_model_pooled(&mut model, &pool)
                    .map_err(|e| e.to_string())?;
                let factorize_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let outcomes = self.sweep(
                    &pool,
                    &kept.finetuned,
                    &kept.profiles,
                    data,
                    kept.sweep_base,
                )?;
                Ok((factorize_s, model, start.elapsed().as_secs_f64(), outcomes))
            };
            let (serial, pooled) = if k % 2 == 0 {
                let serial = run(JobPool::serial())?;
                (serial, run(self.pool)?)
            } else {
                let pooled = run(self.pool)?;
                (run(JobPool::serial())?, pooled)
            };
            if serial.1 != pooled.1 {
                return Err("serial factorization differs from pooled".to_string());
            }
            if serial.3 != pooled.3 || pooled.3 != kept.outcomes {
                return Err("serial sweep differs from pooled".to_string());
            }
            factorize.push(serial.0 / pooled.0);
            sweep.push(serial.2 / pooled.2);
        }
        Ok(vec![
            (
                "parallel.factorize_speedup",
                median(&factorize).unwrap_or(0.0),
            ),
            ("parallel.sweep_speedup", median(&sweep).unwrap_or(0.0)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_count_is_dataset_sizes_times_passes() {
        let config = GlueConfig::default();
        let data = glue::generate(GlueTask::Mrpc, &config, 1);
        assert_eq!(data.train.len(), config.train_samples);
        assert_eq!(data.eval.len(), config.eval_samples);
        // Pretrain 4 + fine-tune 2 + gradient collection 1 passes over 160
        // training samples; 3 evaluations + 7 rates x 3 seeds over 64.
        assert_eq!(
            samples_per_job(data.train.len(), data.eval.len()),
            7 * 160 + 24 * 64
        );
    }

    #[test]
    fn traced_replay_reproduces_apply() {
        let workload = Redistribute::setup(4, JobPool::new(2), &mut Tracer::off()).unwrap();
        let applied = workload.job(1, &mut Tracer::off()).unwrap();
        let mut tracer = Tracer::on();
        let replayed = workload.job(1, &mut tracer).unwrap();
        assert_eq!(applied.digest, replayed.digest);
        assert!(applied.problems.is_empty() && replayed.problems.is_empty());
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names.iter().filter(|n| **n == "transformer.eval").count(),
            3
        );
        assert!(names.contains(&"core.factorize") && names.contains(&"core.noise_sweep"));
        // The kept job's serial reruns equal the pooled results.
        let speedups = workload.finish().unwrap();
        assert!(speedups.iter().all(|(_, ratio)| *ratio > 0.0));
    }
}
