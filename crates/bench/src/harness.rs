//! The experiment driver: run cache, figure emission, summary tables.
//!
//! Runs execute as [`cdp::pipeline::ProtectionJob`]s through one
//! [`cdp::pipeline::Session`], so sweep points against the same dataset
//! (aggregator/truncation variations — and NSGA-II contenders via
//! [`Harness::run_front`]) prepare the original's measure statistics
//! exactly once.

use std::path::PathBuf;
use std::rc::Rc;

use cdp::pipeline::{Front, ProtectionJob, Session};
use cdp_core::{EvolutionOutcome, ScoreSummary};
use cdp_dataset::generators::DatasetKind;
use cdp_metrics::ScoreAggregator;

use crate::experiments::{figure_spec, FigureKind, RunSpec};
use crate::plot::{line_plot, scatter_plot};
use crate::report::write_csv;

/// Harness-wide settings.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Record-count override (`None` = the paper's 1000/1066).
    pub records: Option<usize>,
    /// Evolutionary iterations per run (the paper does not state its
    /// budget; 1000 reproduces the figures' shapes).
    pub iterations: usize,
    /// Master seed for generators, protections and evolution.
    pub seed: u64,
    /// Output directory for CSVs and plots.
    pub out_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            records: None,
            iterations: 1000,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// One emitted figure.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Paper figure number.
    pub id: u8,
    /// Where the data CSV was written.
    pub csv_path: PathBuf,
    /// ASCII rendition (also written next to the CSV).
    pub plot: String,
}

/// One row of the §3.1/§3.2 summary tables.
#[derive(Debug, Clone, Copy)]
pub struct SummaryRow {
    /// Dataset of the run.
    pub dataset: DatasetKind,
    /// Initial/final max/mean/min scores.
    pub summary: ScoreSummary,
}

/// The §3.3 robustness comparison (all on Flare, Eq. 2).
#[derive(Debug, Clone, Copy)]
pub struct RobustnessReport {
    /// Final min score with the full initial population.
    pub full_min: f64,
    /// Final min score without the best 5%.
    pub drop5_min: f64,
    /// Final min score without the best 10%.
    pub drop10_min: f64,
}

impl RobustnessReport {
    /// Gap reached from the 5%-truncated population (paper: 1.33 points).
    pub fn gap5(&self) -> f64 {
        self.drop5_min - self.full_min
    }

    /// Gap reached from the 10%-truncated population (paper: 1.08 points).
    pub fn gap10(&self) -> f64 {
        self.drop10_min - self.full_min
    }
}

/// Runs experiments, caching each (dataset, aggregator, truncation) run so
/// scatter/evolution figure pairs and summary tables reuse the same data —
/// exactly as in the paper, where each figure pair describes one run.
pub struct Harness {
    cfg: ExperimentConfig,
    session: Session,
    cache: Vec<(RunSpec, Rc<EvolutionOutcome>)>,
    front_cache: Vec<((DatasetKind, usize), Rc<Front>)>,
}

impl Harness {
    /// Create a harness.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Harness {
            cfg,
            session: Session::new(),
            cache: Vec::new(),
            front_cache: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The session executing the runs (its preparation counter shows how
    /// much original-side work the cache amortized).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The job a spec maps onto.
    fn job(&self, spec: RunSpec) -> ProtectionJob {
        let mut builder = ProtectionJob::builder()
            .dataset(spec.dataset)
            .suite_paper()
            .aggregator(spec.aggregator)
            .iterations(self.cfg.iterations)
            .drop_best_fraction(spec.drop_fraction)
            .seed(self.cfg.seed);
        if let Some(n) = self.cfg.records {
            builder = builder.records(n);
        }
        builder.build().expect("experiment specs are valid jobs")
    }

    /// Execute (or fetch) the run behind a spec.
    pub fn run(&mut self, spec: RunSpec) -> Rc<EvolutionOutcome> {
        if let Some((_, cached)) = self.cache.iter().find(|(s, _)| *s == spec) {
            return Rc::clone(cached);
        }
        let job = self.job(spec);
        let report = self
            .session
            .run(&job)
            .expect("paper suite applies to generated data");
        let outcome = Rc::new(report.outcome.into_scalar().expect("harness jobs evolve"));
        self.cache.push((spec, Rc::clone(&outcome)));
        outcome
    }

    /// Execute (or fetch) an NSGA-II sweep point: the paper-suite
    /// population of `dataset` optimized for `generations` Pareto
    /// generations. The job runs through the shared [`Session`], so the
    /// dataset's evaluator preparation is amortized with the scalar runs.
    pub fn run_front(&mut self, dataset: DatasetKind, generations: usize) -> Rc<Front> {
        let key = (dataset, generations);
        if let Some((_, cached)) = self.front_cache.iter().find(|(k, _)| *k == key) {
            return Rc::clone(cached);
        }
        let mut builder = ProtectionJob::builder()
            .dataset(dataset)
            .suite_paper()
            .nsga()
            .iterations(generations)
            .seed(self.cfg.seed);
        if let Some(n) = self.cfg.records {
            builder = builder.records(n);
        }
        let job = builder.build().expect("experiment specs are valid jobs");
        let report = self
            .session
            .run(&job)
            .expect("paper suite applies to generated data");
        let front = Rc::new(
            report
                .outcome
                .into_front()
                .expect("nsga jobs produce fronts"),
        );
        self.front_cache.push((key, Rc::clone(&front)));
        front
    }

    /// Emit one paper figure: CSV + ASCII plot under `out_dir`.
    ///
    /// # Panics
    /// Panics on unknown figure ids; use [`figure_spec`] to validate first.
    pub fn figure(&mut self, id: u8) -> std::io::Result<FigureOutput> {
        let spec = figure_spec(id).unwrap_or_else(|| panic!("unknown figure id {id}"));
        let outcome = self.run(spec.run);
        let title = format!(
            "Figure {id}: {} dataset, fitness Eq. {} ({}){}",
            spec.run.dataset.name(),
            if spec.run.aggregator == ScoreAggregator::Mean {
                "1"
            } else {
                "2"
            },
            spec.run.aggregator.name(),
            if spec.run.drop_fraction > 0.0 {
                format!(", best {:.0}% removed", spec.run.drop_fraction * 100.0)
            } else {
                String::new()
            }
        );
        let (csv_path, plot) = match spec.kind {
            FigureKind::Scatter => {
                let path = self.cfg.out_dir.join(format!("fig{id:02}_scatter.csv"));
                let mut rows = Vec::new();
                for (phase, points) in [
                    ("initial", &outcome.initial),
                    ("final", &outcome.final_points),
                ] {
                    for p in points.iter() {
                        rows.push(vec![
                            phase.to_string(),
                            p.name.clone(),
                            format!("{:.4}", p.il),
                            format!("{:.4}", p.dr),
                            format!("{:.4}", p.score),
                        ]);
                    }
                }
                write_csv(&path, &["phase", "protection", "il", "dr", "score"], &rows)?;
                (
                    path,
                    scatter_plot(&outcome.initial, &outcome.final_points, &title),
                )
            }
            FigureKind::Evolution => {
                let path = self.cfg.out_dir.join(format!("fig{id:02}_evolution.csv"));
                let rows: Vec<Vec<String>> = outcome
                    .trace
                    .generations
                    .iter()
                    .map(|g| {
                        vec![
                            g.iteration.to_string(),
                            format!("{:.4}", g.min),
                            format!("{:.4}", g.mean),
                            format!("{:.4}", g.max),
                            g.operator.map_or("-", |o| o.name()).to_string(),
                            g.accepted.to_string(),
                        ]
                    })
                    .collect();
                write_csv(
                    &path,
                    &["iteration", "min", "mean", "max", "operator", "accepted"],
                    &rows,
                )?;
                (path, line_plot(&outcome.trace.generations, &title))
            }
        };
        let plot_path = csv_path.with_extension("txt");
        std::fs::write(&plot_path, &plot)?;
        Ok(FigureOutput { id, csv_path, plot })
    }

    /// The §3.1 (Eq. 1) or §3.2 (Eq. 2) summary rows, in the paper's
    /// reporting order (Adult, Housing, German, Flare).
    pub fn summary(&mut self, aggregator: ScoreAggregator) -> Vec<SummaryRow> {
        [
            DatasetKind::Adult,
            DatasetKind::Housing,
            DatasetKind::German,
            DatasetKind::Flare,
        ]
        .into_iter()
        .map(|dataset| {
            let outcome = self.run(RunSpec {
                dataset,
                aggregator,
                drop_fraction: 0.0,
            });
            SummaryRow {
                dataset,
                summary: outcome.summary(),
            }
        })
        .collect()
    }

    /// The §3.3 robustness report.
    pub fn robustness(&mut self) -> RobustnessReport {
        let run = |h: &mut Self, drop_fraction: f64| {
            h.run(RunSpec {
                dataset: DatasetKind::Flare,
                aggregator: ScoreAggregator::Max,
                drop_fraction,
            })
            .summary()
            .final_min
        };
        RobustnessReport {
            full_min: run(self, 0.0),
            drop5_min: run(self, 0.05),
            drop10_min: run(self, 0.10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness::new(ExperimentConfig {
            records: Some(60),
            iterations: 15,
            seed: 7,
            out_dir: std::env::temp_dir().join("cdp_harness_test"),
        })
    }

    #[test]
    fn runs_are_cached() {
        let mut h = tiny();
        let spec = RunSpec {
            dataset: DatasetKind::Adult,
            aggregator: ScoreAggregator::Max,
            drop_fraction: 0.0,
        };
        let a = h.run(spec);
        let b = h.run(spec);
        assert!(Rc::ptr_eq(&a, &b), "same spec must not re-run");
    }

    #[test]
    fn scatter_and_evolution_figures_emit() {
        let mut h = tiny();
        let f1 = h.figure(1).unwrap();
        assert!(f1.csv_path.exists());
        assert!(f1.plot.contains("Figure 1"));
        let f2 = h.figure(2).unwrap();
        assert!(f2.csv_path.exists());
        assert!(f2.plot.contains("generation"));
        std::fs::remove_dir_all(h.config().out_dir.clone()).ok();
    }

    #[test]
    fn sweep_points_share_one_preparation_per_dataset() {
        let mut h = tiny();
        // three Flare runs (full, drop 5%, drop 10%) — one original
        h.robustness();
        assert_eq!(h.session().stats().preparations, 1, "one dataset, one prep");
        // a different aggregator on the same dataset still reuses it
        h.run(RunSpec {
            dataset: DatasetKind::Flare,
            aggregator: ScoreAggregator::Mean,
            drop_fraction: 0.0,
        });
        assert_eq!(h.session().stats().preparations, 1);
        // a new dataset pays its own preparation
        h.run(RunSpec {
            dataset: DatasetKind::Adult,
            aggregator: ScoreAggregator::Max,
            drop_fraction: 0.0,
        });
        assert_eq!(h.session().stats().preparations, 2);
    }

    #[test]
    fn nsga_sweep_points_share_the_scalar_preparation() {
        let mut h = tiny();
        h.run(RunSpec {
            dataset: DatasetKind::German,
            aggregator: ScoreAggregator::Max,
            drop_fraction: 0.0,
        });
        assert_eq!(h.session().stats().preparations, 1);
        // the nsga contender on the same dataset reuses the preparation …
        let front = h.run_front(DatasetKind::German, 2);
        assert_eq!(
            h.session().stats().preparations,
            1,
            "nsga shares the session"
        );
        assert!(!front.points.is_empty());
        assert_eq!(front.generations_run(), 2);
        // … and the front cache dedupes repeated sweep points
        let again = h.run_front(DatasetKind::German, 2);
        assert!(Rc::ptr_eq(&front, &again), "same spec must not re-run");
    }

    #[test]
    fn robustness_gaps_are_finite() {
        let mut h = tiny();
        let r = h.robustness();
        assert!(r.full_min.is_finite());
        assert!(r.gap5().is_finite());
        assert!(r.gap10().is_finite());
        // truncation removes the best seeds, so the reachable min cannot be
        // better than a tiny tolerance below the full run's
        assert!(r.drop5_min >= r.full_min - 1e-9);
    }

    #[test]
    fn summary_covers_four_datasets() {
        let mut h = tiny();
        let rows = h.summary(ScoreAggregator::Mean);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].dataset, DatasetKind::Adult);
        for row in rows {
            assert!(row.summary.final_mean <= row.summary.initial_mean + 1e-9);
        }
    }
}
