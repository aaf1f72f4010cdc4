#![warn(missing_docs)]

//! # cdp-core
//!
//! The paper's contribution: a post-masking **evolutionary algorithm** that
//! optimizes populations of protected categorical files against a fitness
//! combining information loss and disclosure risk (Marés & Torra,
//! PAIS/EDBT 2012, Algorithm 1).
//!
//! * **Genotype** — a whole protected file; no encoding. We store the
//!   protected columns only ([`cdp_dataset::SubTable`]), since operators and
//!   measures never touch the rest.
//! * **Mutation** — pick one cell at random, replace it with a random
//!   *valid* category of its attribute ([`operators::mutate`]).
//! * **Crossover** — 2-point crossover on the flattened value sequence
//!   ([`operators::crossover`]).
//! * **Selection** — score-proportional for mutation; for crossover one
//!   parent comes uniformly from the `Nb`-best leader group (the best
//!   tenth) and the other proportionally from the whole population
//!   ([`select_proportional`]: weight `1/score`, since the paper's Eq. 3
//!   read literally would favour the worst files under minimization).
//! * **Replacement** — parent/offspring elitism for mutation and
//!   Deterministic Crowding for crossover, each child duelling the parent
//!   whose frame it carries.
//!
//! ```
//! use cdp_core::{EvoConfig, Evolution};
//! use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
//! use cdp_metrics::{Evaluator, MetricConfig, ScoreAggregator};
//! use cdp_sdc::{build_population, SuiteConfig};
//!
//! let ds = DatasetKind::Flare.generate(&GeneratorConfig::seeded(3).with_records(80));
//! let pop = build_population(&ds, &SuiteConfig::small(), 3).unwrap();
//! let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
//! let cfg = EvoConfig::builder()
//!     .iterations(30)
//!     .aggregator(ScoreAggregator::Max)
//!     .seed(3)
//!     .build();
//! let outcome = Evolution::new(ev, cfg).with_named_population(pop).unwrap().run();
//! assert!(outcome.summary().final_mean <= outcome.summary().initial_mean);
//! ```

mod algorithm;
mod archive;
mod config;
mod error;
mod individual;
mod population;
mod replacement;
mod selection;
mod telemetry;

pub mod clock;
pub mod islands;
pub mod nsga;
pub mod operators;
pub mod parallel;

pub use algorithm::{Evolution, EvolutionOutcome, ScoreSummary};
pub use archive::ParetoArchive;
pub use cdp_metrics::{ObjectiveSet, ObjectiveVector};
pub use config::{EvoConfig, EvoConfigBuilder, IslandConfig};
pub use error::{EvoError, Result};
pub use individual::Individual;
pub use islands::{IslandEvent, IslandModel, IslandTiming};
pub use nsga::{FrontStats, Nsga2, NsgaConfig, NsgaOutcome};
pub use operators::OperatorKind;
pub use parallel::{evaluate_all, evaluate_tasks, EvalTask};
pub use population::Population;
pub use selection::select_proportional;
pub use telemetry::{EvalCounts, GenerationStats, ScatterPoint, Trace};
