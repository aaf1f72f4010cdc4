//! Job execution: the staged engine behind [`SharedSession::run_with`], and the
//! event stream it emits.

use cdp_core::{
    evaluate_all, EvalCounts, GenerationStats, IslandEvent, IslandModel, ObjectiveVector,
    ScatterPoint,
};
use cdp_dataset::{Attribute, Code, SubTable};
use cdp_privacy::PrivacyReport;

use super::job::{AuditSpec, OptimizerMode, ProtectionJob, SourceData};
use super::report::{BestProtection, Front, JobOutcome, JobReport};
use super::shared::{SessionStats, SharedSession};
use super::{PipelineError, Result};

/// Progress events emitted while a job executes.
///
/// One stream serves every consumer — CLI progress lines, bench telemetry,
/// the `cdp serve` push channel — instead of each re-wiring
/// [`cdp_core::Evolution::run_with`] by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The data source resolved into a concrete table.
    SourceReady {
        /// Records in the original file.
        rows: usize,
        /// Attributes in the full table.
        attrs: usize,
        /// Number of protected attributes.
        protected: usize,
    },
    /// The fitness evaluator is bound to the original.
    EvaluatorReady {
        /// `true` when the session served a cached preparation instead of
        /// re-computing the original-side statistics.
        reused: bool,
    },
    /// Snapshot of the session's cache counters, taken right after the
    /// evaluator stage resolved (so `hits + preparations` already includes
    /// this job's request).
    CacheStats(SessionStats),
    /// The initial population of protections is masked and ready.
    PopulationReady {
        /// Number of protections entering the run.
        size: usize,
    },
    /// One evolutionary iteration finished (scalar mode, one island).
    Generation(GenerationStats),
    /// One NSGA-II generation finished and the population front moved
    /// (NSGA-II mode, one island).
    FrontAdvanced {
        /// Generation index, 1-based (0 is the initial population).
        generation: usize,
        /// Size of the population's non-dominated front.
        front_size: usize,
        /// Hypervolume of that front w.r.t. the objective set's
        /// reference point (100 on every axis).
        hypervolume: f64,
        /// Per-objective minima over that front (leads with IL, DR).
        ideal: ObjectiveVector,
    },
    /// One island finished one scalar iteration (island-model jobs,
    /// `islands >= 2`; the per-island counterpart of
    /// [`JobEvent::Generation`]).
    IslandGeneration {
        /// Island index.
        island: usize,
        /// The iteration's population statistics, scoped to that island.
        stats: GenerationStats,
    },
    /// One island finished one NSGA-II generation (island-model jobs;
    /// the per-island counterpart of [`JobEvent::FrontAdvanced`]).
    IslandFront {
        /// Island index.
        island: usize,
        /// Generation index within that island, 1-based.
        generation: usize,
        /// Size of the island population's non-dominated front.
        front_size: usize,
        /// Hypervolume of that front w.r.t. the objective set's
        /// reference point (100 on every axis).
        hypervolume: f64,
        /// Per-objective minima over that island front.
        ideal: ObjectiveVector,
    },
    /// An island exported members to its ring neighbour at a migration
    /// barrier (island-model jobs with `migration_size > 0`).
    Migration {
        /// Generations the source island had completed at the barrier.
        generation: usize,
        /// Source island index.
        island: usize,
        /// Members exported.
        emigrants: usize,
    },
    /// The optimizer stage finished (either mode).
    EvolutionFinished {
        /// Iterations (scalar) or generations (NSGA-II) actually executed.
        iterations: usize,
        /// Fitness evaluations performed, split into full assessments (the
        /// initial population) and patch-based re-assessments (every
        /// offspring).
        evaluations: EvalCounts,
    },
    /// The privacy audit of the winner completed.
    AuditReady,
}

pub(crate) fn run_job<F: FnMut(&JobEvent)>(
    session: &SharedSession,
    job: &ProtectionJob,
    observer: &mut F,
) -> Result<JobReport> {
    let src = job.resolve_for_run()?;
    observer(&JobEvent::SourceReady {
        rows: src.table.n_rows(),
        attrs: src.table.n_attrs(),
        protected: src.protected.len(),
    });
    let original = src.original();

    let (evaluator, reused) = session.evaluator_for(&original, job.metrics)?;
    observer(&JobEvent::EvaluatorReady { reused });
    observer(&JobEvent::CacheStats(session.stats()));

    let population = job.seed_population(&src)?;
    observer(&JobEvent::PopulationReady {
        size: population.len(),
    });
    let population_size = population.len();

    let (outcome, points, best) = match job.optimizer() {
        OptimizerMode::Scalar(evo_cfg) if job.iterations() == 0 => {
            // mask-and-score only: assess the population, pick the winner
            for (name, data) in &population {
                evaluator.prepared().check_compatible(data).map_err(|e| {
                    PipelineError::InvalidJob(format!("protection `{name}` incompatible: {e}"))
                })?;
            }
            let states = evaluate_all(&evaluator, &population, true);
            let points: Vec<ScatterPoint> = population
                .iter()
                .zip(&states)
                .map(|((name, _), state)| {
                    ScatterPoint::from_pair(
                        name.clone(),
                        state.assessment.il(),
                        state.assessment.dr(),
                        state.assessment.score(evo_cfg.aggregator),
                    )
                })
                .collect();
            let (i, _) = points
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.score.partial_cmp(&b.score).expect("finite scores"))
                .expect("population validated non-empty");
            let best = BestProtection {
                name: population[i].0.clone(),
                data: population[i].1.clone(),
                assessment: states[i].assessment,
            };
            (JobOutcome::Scored, points, best)
        }
        OptimizerMode::Scalar(evo_cfg) => {
            let islands = evo_cfg.islands.count;
            let mut model = IslandModel::scalar(evaluator.clone(), evo_cfg)
                .with_named_population(population)?;
            if job.drop_fraction() > 0.0 {
                model = model.drop_best_fraction(job.drop_fraction())?;
            }
            let outcome = model.run_with(|e| observer(&island_event(e, islands)));
            observer(&JobEvent::EvolutionFinished {
                iterations: outcome.iterations_run,
                evaluations: outcome.eval_counts,
            });
            let winner = outcome.population.best();
            let best = BestProtection {
                name: winner.name.clone(),
                data: winner.data.clone(),
                assessment: *winner.assessment(),
            };
            let points = outcome.final_points.clone();
            (JobOutcome::Scalar(outcome), points, best)
        }
        OptimizerMode::Nsga(cfg) => {
            let nsga_outcome = IslandModel::nsga(evaluator.clone(), cfg)
                .with_objectives(job.objectives().clone())
                .with_named_population(population)?
                .run_with(|e| observer(&island_event(e, cfg.islands.count)));
            let front = Front::from_outcome(nsga_outcome);
            observer(&JobEvent::EvolutionFinished {
                iterations: front.generations_run(),
                evaluations: front.eval_counts,
            });
            let best = front.knee().clone();
            let points = front.points.clone();
            (JobOutcome::Pareto(front), points, best)
        }
    };

    let privacy = match job.audit_spec() {
        None => None,
        Some(spec) => {
            let mut report = audit_best(&src, spec, &best.data, &original)?;
            // the calibrated-PRAM budget is job metadata the audit cannot
            // recover from the masked file; surface it alongside the risk
            // figures
            report.epsilon = job.pram_epsilon();
            observer(&JobEvent::AuditReady);
            Some(report)
        }
    };

    Ok(JobReport {
        kind: src.kind,
        table: src.table,
        protected: src.protected,
        population_size,
        evaluator_reused: reused,
        outcome,
        points,
        best,
        privacy,
    })
}

/// Map a core island-scheduler event onto the job event stream. A job
/// configured with one island reports plain [`JobEvent::Generation`] and
/// [`JobEvent::FrontAdvanced`] events.
fn island_event(e: &IslandEvent, islands: usize) -> JobEvent {
    match e {
        IslandEvent::Generation { stats, .. } if islands == 1 => JobEvent::Generation(*stats),
        IslandEvent::Front { stats, .. } if islands == 1 => JobEvent::FrontAdvanced {
            generation: stats.generation,
            front_size: stats.front_size,
            hypervolume: stats.hypervolume,
            ideal: stats.ideal,
        },
        IslandEvent::Generation { island, stats } => JobEvent::IslandGeneration {
            island: *island,
            stats: *stats,
        },
        IslandEvent::Front { island, stats } => JobEvent::IslandFront {
            island: *island,
            generation: stats.generation,
            front_size: stats.front_size,
            hypervolume: stats.hypervolume,
            ideal: stats.ideal,
        },
        IslandEvent::Migration {
            generation,
            island,
            emigrants,
        } => JobEvent::Migration {
            generation: *generation,
            island: *island,
            emigrants: *emigrants,
        },
    }
}

/// Audit the winning protection: k-anonymity and re-identification risk
/// over the masked quasi-identifiers, plus diversity/closeness for each
/// named sensitive attribute.
fn audit_best(
    src: &SourceData,
    spec: &AuditSpec,
    best: &SubTable,
    original: &SubTable,
) -> Result<PrivacyReport> {
    let schema = src.table.schema();
    let mut sensitive: Vec<(&Attribute, &[Code])> = Vec::with_capacity(spec.sensitive.len());
    for name in &spec.sensitive {
        let j = schema.index_of(name).ok_or_else(|| {
            PipelineError::InvalidJob(format!(
                "sensitive attribute `{name}` not in the table (header: {})",
                schema
                    .attrs()
                    .iter()
                    .map(|a| a.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        sensitive.push((schema.attr(j), src.table.column(j)));
    }
    Ok(cdp_privacy::report::audit(
        best,
        Some(original),
        &sensitive,
    )?)
}
