#![warn(missing_docs)]

//! # cdp — Categorical Data Protection
//!
//! Facade crate for the reproduction of Marés & Torra, *"An Evolutionary
//! Optimization Approach for Categorical Data Protection"* (PAIS/EDBT 2012).
//!
//! The workspace is organized as five library crates plus a benchmark
//! harness; this crate re-exports all of them so downstream users can depend
//! on a single name, and adds the [`pipeline`] layer that drives them as one
//! declarative job:
//!
//! * [`dataset`] — categorical microdata model, CSV I/O, generalization
//!   hierarchies, and seeded generators for the paper's four evaluation
//!   datasets.
//! * [`sdc`] — the six statistical disclosure control methods used to build
//!   the initial populations (microaggregation, top/bottom coding, global
//!   recoding, rank swapping, PRAM).
//! * [`metrics`] — information loss (CTBIL, DBIL, EBIL) and disclosure risk
//!   (ID, DBRL, PRL, RSRL) measures, score aggregators, and the cached
//!   evaluator.
//! * [`core`] — the paper's contribution: the post-masking evolutionary
//!   algorithm.
//! * [`privacy`] — syntactic privacy models (k-anonymity, l-diversity,
//!   t-closeness), re-identification risk, and the lattice-based optimal
//!   recoding baseline (Samarati-style search over generalization
//!   hierarchies).
//! * [`pipeline`] — the unified job API: [`pipeline::ProtectionJob`] (one
//!   declarative builder for the whole mask → score → evolve → audit
//!   workflow, scalar or NSGA-II via [`pipeline::OptimizerMode`]),
//!   [`pipeline::SharedSession`] (evaluator preparation amortized across
//!   jobs of either mode), and [`pipeline::JobReport`] (mode-aware
//!   [`pipeline::JobOutcome`]).
//!
//! ## Quickstart
//!
//! The paper's whole workflow — mask the original with an SDC suite, score
//! IL/DR, evolve the population, audit the winner — is one builder chain.
//! Offspring are delta-evaluated (patch-based re-assessment, bit-identical
//! to full scoring), and the linkage measures run on blocked
//! distinct-pattern scans (credits bit-identical to the all-pairs
//! reference scans in [`metrics::linkage`]):
//!
//! ```
//! use cdp::prelude::*;
//!
//! let report = ProtectionJob::builder()
//!     .dataset(DatasetKind::Adult)         // original file (paper shape)
//!     .records(120)                        // reduced for doc-test speed
//!     .suite_small()                       // initial SDC population
//!     .aggregator(ScoreAggregator::Mean)   // fitness: the paper's Eq. 1
//!     .iterations(40)                      // evolution budget
//!     .islands(4)                          // island-model run, same budget
//!     .seed(7)
//!     .audit()                             // privacy audit of the winner
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! let summary = report.summary().expect("evolved job");
//! assert!(summary.final_min <= summary.initial_min);
//! assert!(report.privacy.as_ref().expect("audited").k_anonymity.k >= 1);
//! assert_eq!(report.published_best().unwrap().n_rows(), 120);
//! ```
//!
//! ## Multi-objective mode
//!
//! NSGA-II is a first-class job mode, not a separate API: flip the same
//! builder chain with [`pipeline::ProtectionJobBuilder::nsga`] and the
//! run optimizes Pareto dominance over (IL, DR) directly, returning the
//! whole trade-off curve as a [`pipeline::Front`].
//! [`pipeline::JobReport::published_best`] then publishes the front's
//! *knee point* — the balanced trade-off — and any other front member is
//! publishable via [`pipeline::JobReport::publish_member`]:
//!
//! ```
//! use cdp::prelude::*;
//!
//! let report = ProtectionJob::builder()
//!     .dataset(DatasetKind::Adult)
//!     .records(100)
//!     .suite_small()
//!     .nsga()                              // Pareto dominance over (IL, DR)
//!     .iterations(8)                       // now counts generations
//!     .seed(7)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! let front = report.front().expect("nsga job");
//! assert!(!front.members.is_empty());
//! assert!(front.final_hypervolume() >= front.initial_hypervolume() - 1e-9);
//! // the published winner is the front's knee point
//! assert_eq!(report.best.data, front.knee().data);
//! assert_eq!(report.published_best().unwrap().n_rows(), 100);
//! ```
//!
//! ## Beyond (IL, DR): extending the objective vector
//!
//! The canonical pair is the floor of the objective vector, not its
//! ceiling. Under `.nsga()`, `.objective("eps")` appends the empirical-LDP
//! leakage objective — and `.objective("util")` a task-utility gap — so
//! dominance, crowding, hypervolume, and the knee all work over the longer
//! vector. `.epsilon_pram(1.5)` seeds the population with an ε-calibrated
//! invariant PRAM member (per-attribute retention `e^ε/(e^ε + K − 1)`,
//! drawn from its own seeded stream) and echoes the budget in the privacy
//! audit. A job that never calls `.objective(...)` keeps the canonical
//! pair and reproduces the two-objective RNG streams bit-identically:
//!
//! ```
//! use cdp::prelude::*;
//!
//! let report = ProtectionJob::builder()
//!     .dataset(DatasetKind::German)
//!     .records(80)
//!     .suite_small()
//!     .nsga()                              // objectives are nsga-only
//!     .objective("eps")                    // minimize leakage as a third axis
//!     .epsilon_pram(1.5)                   // ε-calibrated invariant PRAM member
//!     .iterations(6)
//!     .seed(11)
//!     .audit()
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! let front = report.front().expect("nsga job");
//! assert_eq!(front.objective_keys, ["il", "dr", "eps"]);
//! // every front member carries a 3-component objective vector …
//! assert!(front.points.iter().all(|p| p.objectives.len() == 3));
//! // … the published winner is still the knee, now balanced over 3 axes
//! assert_eq!(report.best.data, front.knee().data);
//! // and the calibrated budget surfaces in the audit
//! assert_eq!(report.privacy.as_ref().unwrap().epsilon, Some(1.5));
//! ```
//!
//! ## Serving jobs concurrently — `cdp serve`
//!
//! The pipeline doubles as a long-lived protection service. A
//! [`pipeline::SharedSession`] is concurrency-safe — cloneable, `&self`
//! methods, one shared evaluator cache — so N threads (or N clients of
//! the `cdp serve` subcommand) running jobs against the same original
//! trigger exactly **one** preparation; the rest block briefly on that
//! key and then hit the cache. [`pipeline::SessionStats`] reports the counters (also
//! streamed per job as [`pipeline::JobEvent::CacheStats`]); the hit rate
//! `hits / (hits + preparations)` is the service's headline metric.
//!
//! ```
//! use cdp::prelude::*;
//!
//! let job = ProtectionJob::builder()
//!     .dataset(DatasetKind::German)
//!     .records(80)
//!     .iterations(5)
//!     .seed(3)
//!     .build()
//!     .unwrap();
//! let session = SharedSession::new();
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         let session = session.clone();
//!         let job = &job;
//!         scope.spawn(move || session.run(job).unwrap());
//!     }
//! });
//! assert_eq!(session.stats().preparations, 1); // hot original, one prep
//! assert!(session.stats().hit_rate().unwrap() > 0.0);
//! ```
//!
//! Over the wire, `cdp serve --addr 127.0.0.1:7171` accepts the same
//! canonical `key=value` job grammar the CLI uses, line-delimited:
//! `JOB dataset=adult records=120 iters=40 seed=7` streams one `EVENT …`
//! line per [`pipeline::JobEvent`] and ends with a `DONE …` summary
//! (winner IL/DR breakdown, eval counts, cache-hit flag) or a one-line
//! `ERR …`; `STATS` returns the [`pipeline::SessionStats`] counters. The
//! determinism contract holds across the wire: a job submitted to the
//! server produces the bit-identical summary to [`pipeline::SharedSession::run`]
//! on the same spec — asserted end-to-end in the server tests.
//!
//! ## Low-level entry points
//!
//! The free-form APIs the pipeline is built from stay public — existing
//! experiments keep compiling, and a job reproduces their RNG streams
//! exactly:
//!
//! ```
//! use cdp::prelude::*;
//!
//! let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(7).with_records(120));
//! let population = build_population(&ds, &SuiteConfig::small(), 7).unwrap();
//! let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
//! let config = EvoConfig::builder()
//!     .iterations(40)
//!     .aggregator(ScoreAggregator::Mean)
//!     .seed(7)
//!     .build();
//! let outcome = Evolution::new(evaluator, config)
//!     .with_named_population(population)
//!     .unwrap()
//!     .run();
//! assert!(outcome.final_best().score <= outcome.initial_best().score);
//! ```

pub use cdp_core as core;
pub use cdp_dataset as dataset;
pub use cdp_metrics as metrics;
pub use cdp_privacy as privacy;
pub use cdp_sdc as sdc;

pub mod pipeline;

/// One-stop imports for examples and downstream experiments.
pub mod prelude {
    pub use cdp_core::{
        EvalCounts, EvoConfig, Evolution, EvolutionOutcome, Individual, IslandConfig, IslandEvent,
        IslandModel, IslandTiming, Population,
    };
    pub use cdp_dataset::generators::{Dataset, DatasetKind, GeneratorConfig};
    pub use cdp_dataset::{AttrKind, Attribute, Code, Hierarchy, Schema, SubTable, Table};
    pub use cdp_metrics::{
        Assessment, DrBreakdown, Evaluator, IlBreakdown, MetricConfig, ObjectiveSet,
        ObjectiveVector, ScoreAggregator,
    };
    pub use cdp_privacy::{CostKind, LatticeSearch, PrivacyReport, Recoder};
    pub use cdp_sdc::{build_population, ProtectionMethod, SuiteConfig};

    pub use crate::pipeline::{
        BestProtection, CacheEntryStats, DataSource, Front, JobEvent, JobOutcome, JobReport,
        OptimizerMode, PipelineError, PopulationSpec, ProtectionJob, Session, SessionStats,
        SharedSession, SuiteKind,
    };
}
